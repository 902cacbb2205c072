let normal prng ~mean ~sigma =
  (* Box–Muller; one variate per call keeps the stream layout simple and
     reproducible across refactors. *)
  let u1 = 1.0 -. Prng.float prng 1.0 in
  let u2 = Prng.float prng 1.0 in
  let r = sqrt (-2.0 *. log u1) in
  mean +. (sigma *. r *. cos (2.0 *. Float.pi *. u2))

let truncated_normal prng ~mean ~sigma ~lo ~hi =
  if lo >= hi then invalid_arg "Distribution.truncated_normal: empty range";
  let rec draw attempts =
    if attempts = 0 then Float.max lo (Float.min hi mean)
    else
      let x = normal prng ~mean ~sigma in
      if x >= lo && x <= hi then x else draw (attempts - 1)
  in
  draw 1000

let power_law_size prng ~x_min ~x_max =
  assert (x_min > 0. && x_max > x_min);
  (* Inverse-CDF sampling of f(x) ∝ x^-3 on [x_min, x_max]:
     F^-1(u) = (x_min^-2 - u (x_min^-2 - x_max^-2))^-1/2. *)
  let a = 1.0 /. (x_min *. x_min) in
  let b = 1.0 /. (x_max *. x_max) in
  let u = Prng.float prng 1.0 in
  1.0 /. sqrt (a -. (u *. (a -. b)))

type 'a discrete = { cumulative : float array; values : 'a array; total : float }

let discrete cases =
  let cases = List.filter (fun (w, _) -> w > 0.) cases in
  if cases = [] then invalid_arg "Distribution.discrete: no positive weights";
  List.iter
    (fun (w, _) ->
      if w < 0. || not (Float.is_finite w) then
        invalid_arg "Distribution.discrete: weights must be finite and >= 0")
    cases;
  let n = List.length cases in
  let cumulative = Array.make n 0. in
  let values =
    match cases with
    | (_, v) :: _ -> Array.make n v
    | [] -> assert false
  in
  let running = ref 0. in
  List.iteri
    (fun i (w, v) ->
      running := !running +. w;
      cumulative.(i) <- !running;
      values.(i) <- v)
    cases;
  { cumulative; values; total = !running }

let draw prng d =
  let u = Prng.float prng d.total in
  (* Binary search for the first cumulative weight exceeding u. *)
  let rec search lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if d.cumulative.(mid) > u then search lo mid else search (mid + 1) hi
  in
  d.values.(search 0 (Array.length d.cumulative - 1))
