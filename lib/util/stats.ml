type accumulator = {
  mutable n : int;
  mutable mean : float;
  mutable m2 : float;
}

let accumulator () = { n = 0; mean = 0.; m2 = 0. }

let add acc x =
  acc.n <- acc.n + 1;
  let delta = x -. acc.mean in
  acc.mean <- acc.mean +. (delta /. float_of_int acc.n);
  acc.m2 <- acc.m2 +. (delta *. (x -. acc.mean))

let count acc = acc.n

let mean acc =
  if acc.n = 0 then invalid_arg "Stats.mean: empty accumulator";
  acc.mean

let variance acc = if acc.n < 2 then 0. else acc.m2 /. float_of_int (acc.n - 1)
let stddev acc = sqrt (variance acc)

type window = { low : float; high : float }

let sigma_window ?(k = 3.0) acc =
  let m = mean acc and s = stddev acc in
  { low = m -. (k *. s); high = m +. (k *. s) }

let inside w x = x >= w.low && x <= w.high
let widen w ~by = { low = w.low -. by; high = w.high +. by }

let pp_window ppf w = Format.fprintf ppf "[%g, %g]" w.low w.high
