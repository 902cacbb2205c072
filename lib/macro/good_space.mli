(** The good-signature space: per-measurement acceptance windows.

    The output of a fault-free analog macro varies with process, supply
    and temperature, so "different from good" means "outside the compiled
    window" (paper §2). The space is compiled by Monte-Carlo: the macro is
    rebuilt and measured across sampled dies, and each named measurement
    gets a k·σ window (the paper's k is 3; [Core.Request.default] states
    the reproduction's die count and k). *)

type t

(** [compile ~n ~k ~tech macro prng] measures [n] Monte-Carlo dies
    (nominal included) drawn at {!Process.Variation.default_spread}, and
    windows every measurement at [k]·σ. Measurements missing from some
    vectors are windowed over the vectors that do carry them. *)
val compile :
  n:int ->
  k:float ->
  tech:Process.Tech.t ->
  Macro_cell.t ->
  Util.Prng.t ->
  t

(** [window t name] — the acceptance window, if the measurement exists. *)
val window : t -> string -> Util.Stats.window option

(** [deviating t vector] lists the measurement names falling outside their
    windows (measurements without a compiled window are ignored). *)
val deviating : t -> Macro_cell.vector -> string list

(** [deviating_currents t vector] maps the deviating measurements onto the
    observable current kinds, deduplicated in declaration order. *)
val deviating_currents : t -> Macro_cell.vector -> Signature.current_kind list

(** [widen t ~name ~by] loosens one window (used to model extra spread,
    e.g. the flipflop leakage before the DfT redesign). Unknown names are
    a no-op. *)
val widen : t -> name:string -> by:float -> t

val measurements : t -> string list

(** {1 Serialization view}

    The compiled space is just its acceptance windows, so it can be
    persisted and restored exactly — [Core.Codec] uses this pair to
    round-trip a space through the result cache. *)

(** [windows t] — every measurement with its window, in compile order. *)
val windows : t -> (string * Util.Stats.window) list

(** [of_windows ws] rebuilds a space from {!windows} output;
    [of_windows (windows t) = t]. *)
val of_windows : (string * Util.Stats.window) list -> t

val pp : Format.formatter -> t -> unit
