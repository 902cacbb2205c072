(** Source waveforms: DC levels, piecewise-linear ramps and clock pulses.

    Times are seconds, values are volts (or amperes for current sources).
    Waveforms are pure functions of time so that transient stepping and
    repeated fault simulations never share mutable state. *)

type t

(** Constant level. *)
val dc : float -> t

(** [pwl points] interpolates linearly between [(time, value)] breakpoints
    and holds the edge values outside the covered span. Points must have
    strictly increasing times. @raise Invalid_argument otherwise. *)
val pwl : (float * float) list -> t

(** [pulse ~v0 ~v1 ~delay ~rise ~fall ~width ~period] is the SPICE-style
    periodic pulse: level [v0] until [delay], then a [rise] to [v1], held
    for [width], a [fall] back, repeating every [period]. *)
val pulse :
  v0:float ->
  v1:float ->
  delay:float ->
  rise:float ->
  fall:float ->
  width:float ->
  period:float ->
  t

(** [triangle ~lo ~hi ~period] ramps [lo]→[hi]→[lo] symmetrically — the
    paper's missing-code stimulus. *)
val triangle : lo:float -> hi:float -> period:float -> t

(** [scale k w] multiplies the waveform by [k] (used by source stepping). *)
val scale : float -> t -> t

(** [value w t] evaluates the waveform. *)
val value : t -> float -> float

(** [equal a b] — whether [a] and [b] were built alike, every float
    equal bit for bit (so [0.0] and [-0.0] differ). Equal waveforms
    evaluate to the same bits at every time. *)
val equal : t -> t -> bool

(** Structural view of a waveform, for serialization. The [gain] from
    {!scale} is folded into the values. *)
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

val view : t -> view
