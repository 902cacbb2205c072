type t = { mutable s0 : int64; mutable s1 : int64; mutable s2 : int64; mutable s3 : int64 }

(* splitmix64: used only to expand the seed into the xoshiro state and to
   derive split streams, per the xoshiro authors' guidance. *)
let splitmix64_next state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let of_seed64 seed64 =
  let state = ref seed64 in
  let s0 = splitmix64_next state in
  let s1 = splitmix64_next state in
  let s2 = splitmix64_next state in
  let s3 = splitmix64_next state in
  { s0; s1; s2; s3 }

let create seed = of_seed64 (Int64.of_int seed)

let copy t = { s0 = t.s0; s1 = t.s1; s2 = t.s2; s3 = t.s3 }

let rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let bits64 t =
  let open Int64 in
  let result = mul (rotl (mul t.s1 5L) 7) 9L in
  let tmp = shift_left t.s1 17 in
  t.s2 <- logxor t.s2 t.s0;
  t.s3 <- logxor t.s3 t.s1;
  t.s1 <- logxor t.s1 t.s2;
  t.s0 <- logxor t.s0 t.s3;
  t.s2 <- logxor t.s2 tmp;
  t.s3 <- rotl t.s3 45;
  result

let split t = of_seed64 (bits64 t)

let int t n =
  if n <= 0 then invalid_arg "Prng.int: bound must be positive";
  (* Rejection sampling over the top bits keeps the distribution exact for
     every bound, not just powers of two. *)
  let n64 = Int64.of_int n in
  let rec draw () =
    let raw = Int64.shift_right_logical (bits64 t) 1 in
    let v = Int64.rem raw n64 in
    if Int64.sub raw v > Int64.sub (Int64.sub Int64.max_int n64) 1L then draw ()
    else Int64.to_int v
  in
  draw ()

let float t x =
  assert (x > 0. && Float.is_finite x);
  (* 53 uniform mantissa bits in [0, 1). *)
  let mantissa = Int64.shift_right_logical (bits64 t) 11 in
  Int64.to_float mantissa *. 0x1p-53 *. x

let uniform t ~lo ~hi =
  assert (hi > lo);
  lo +. float t (hi -. lo)

let bool t = Int64.compare (bits64 t) 0L < 0
