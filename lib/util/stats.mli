(** Descriptive statistics used to compile good-signature spaces.

    The paper accepts a circuit as fault-free when each observed quantity
    lies inside a [k]·σ window around its nominal value, compiled by
    Monte-Carlo over process/voltage/temperature variation (§2). This
    module provides the accumulators and windows for that procedure. *)

(** Welford online accumulator: numerically stable single-pass mean and
    variance. *)
type accumulator

val accumulator : unit -> accumulator

(** [add acc x] folds one observation into [acc]. *)
val add : accumulator -> float -> unit

(** Number of observations folded so far. *)
val count : accumulator -> int

(** Arithmetic mean. @raise Invalid_argument on an empty accumulator. *)
val mean : accumulator -> float

(** Unbiased sample variance (0 for fewer than two observations). *)
val variance : accumulator -> float

(** Sample standard deviation, [sqrt (variance acc)]. *)
val stddev : accumulator -> float

(** Closed pass window [\[centre - k·σ, centre + k·σ\]]. *)
type window = { low : float; high : float }

(** [sigma_window ?k acc] is the [k]-sigma acceptance window around the
    accumulated mean; [k] defaults to 3, the paper's setting. *)
val sigma_window : ?k:float -> accumulator -> window

(** [inside w x] tests membership of the closed window. *)
val inside : window -> float -> bool

(** [widen w ~by] grows the window by [by] on each side (used to model the
    extra spread a DfT redesign removes). *)
val widen : window -> by:float -> window

val pp_window : Format.formatter -> window -> unit
