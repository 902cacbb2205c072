type pulse_spec = {
  v0 : float;
  v1 : float;
  delay : float;
  rise : float;
  fall : float;
  width : float;
  period : float;
}

type shape =
  | Dc of float
  | Pwl of (float * float) array
  | Pulse of pulse_spec

type t = { shape : shape; gain : float }

let dc v = { shape = Dc v; gain = 1.0 }

let pwl points =
  (match points with
  | [] -> invalid_arg "Waveform.pwl: no points"
  | _ :: rest ->
    ignore
      (List.fold_left
         (fun prev (t, _) ->
           if t <= prev then invalid_arg "Waveform.pwl: times must increase";
           t)
         (fst (List.hd points))
         rest));
  { shape = Pwl (Array.of_list points); gain = 1.0 }

let pulse ~v0 ~v1 ~delay ~rise ~fall ~width ~period =
  if rise <= 0. || fall <= 0. || width < 0. then
    invalid_arg "Waveform.pulse: edges must be positive";
  if period < rise +. width +. fall then
    invalid_arg "Waveform.pulse: period shorter than pulse";
  { shape = Pulse { v0; v1; delay; rise; fall; width; period }; gain = 1.0 }

let triangle ~lo ~hi ~period =
  if period <= 0. then invalid_arg "Waveform.triangle: period";
  let half = period /. 2.0 in
  pulse ~v0:lo ~v1:hi ~delay:0.0 ~rise:half ~fall:half
    ~width:0.0 ~period

let scale k w = { w with gain = k *. w.gain }

let eval_pwl points t =
  let n = Array.length points in
  let t0, v0 = points.(0) in
  let tn, vn = points.(n - 1) in
  if t <= t0 then v0
  else if t >= tn then vn
  else begin
    (* Binary search for the segment containing t. *)
    let rec search lo hi =
      if hi - lo <= 1 then lo
      else
        let mid = (lo + hi) / 2 in
        if fst points.(mid) <= t then search mid hi else search lo mid
    in
    let i = search 0 (n - 1) in
    let ta, va = points.(i) and tb, vb = points.(i + 1) in
    va +. ((vb -. va) *. (t -. ta) /. (tb -. ta))
  end

let eval_pulse p t =
  if t < p.delay then p.v0
  else begin
    let phase = Float.rem (t -. p.delay) p.period in
    if phase < p.rise then p.v0 +. ((p.v1 -. p.v0) *. phase /. p.rise)
    else if phase < p.rise +. p.width then p.v1
    else if phase < p.rise +. p.width +. p.fall then
      p.v1 +. ((p.v0 -. p.v1) *. (phase -. p.rise -. p.width) /. p.fall)
    else p.v0
  end

let value w t =
  let raw =
    match w.shape with
    | Dc v -> v
    | Pwl points -> eval_pwl points t
    | Pulse p -> eval_pulse p t
  in
  w.gain *. raw

(* Floats compare by their bits: a waveform equal to another evaluates
   to the same bits at every time. *)
let same a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let equal a b =
  a == b
  || same a.gain b.gain
     &&
     match a.shape, b.shape with
     | Dc x, Dc y -> same x y
     | Pwl p, Pwl q ->
       Array.length p = Array.length q
       && Array.for_all2
            (fun (t, v) (u, w) -> same t u && same v w)
            p q
     | Pulse p, Pulse q ->
       same p.v0 q.v0 && same p.v1 q.v1 && same p.delay q.delay
       && same p.rise q.rise && same p.fall q.fall && same p.width q.width
       && same p.period q.period
     | (Dc _ | Pwl _ | Pulse _), _ -> false

type view =
  | View_dc of float
  | View_pwl of (float * float) list
  | View_pulse of {
      v0 : float;
      v1 : float;
      delay : float;
      rise : float;
      fall : float;
      width : float;
      period : float;
    }

let view w =
  let k = w.gain in
  match w.shape with
  | Dc v -> View_dc (k *. v)
  | Pwl points ->
    View_pwl (Array.to_list (Array.map (fun (t, v) -> t, k *. v) points))
  | Pulse p ->
    View_pulse
      {
        v0 = k *. p.v0;
        v1 = k *. p.v1;
        delay = p.delay;
        rise = p.rise;
        fall = p.fall;
        width = p.width;
        period = p.period;
      }
