(** Process / supply-voltage / temperature variation of fault-free devices.

    The good signature of an analog macro is a region, not a point: §2 of
    the paper compiles it per stimulus over environmental conditions. A
    [sample] multiplies or shifts the nominal device parameters of one
    simulated die; [monte_carlo] draws dies for the good-space
    compilation. *)

type sample = {
  vth_n_shift : float;   (** V, additive shift of NMOS threshold *)
  vth_p_shift : float;   (** V, additive shift of |PMOS threshold| *)
  beta_factor : float;   (** multiplicative on transconductance *)
  resistance_factor : float;  (** multiplicative on resistors/sheet rho *)
  capacitance_factor : float; (** multiplicative on capacitors *)
  vdd : float;           (** actual supply, V *)
  temperature : float;   (** °C *)
}

(** The centred sample: nominal everything at the technology's Vdd. *)
val nominal : Tech.t -> sample

(** Spread description: 1σ for Gaussian parameters, half-range for the
    uniform supply and temperature. *)
type spread = {
  vth_sigma : float;
  beta_sigma : float;
  resistance_sigma : float;
  capacitance_sigma : float;
  vdd_tolerance : float;      (** ±V around nominal *)
  temperature_range : float * float;
}

(** Spread of the case-study process: σ(Vth) = 15 mV, σ(β) = 4 %,
    σ(R) = 8 %, σ(C) = 5 %, Vdd ± 0.25 V, 0–70 °C. *)
val default_spread : spread

(** [draw spread tech prng] samples one die. *)
val draw : spread -> Tech.t -> Util.Prng.t -> sample

(** [monte_carlo ?n spread tech prng] draws [n] dies (default 64),
    nominal first so the nominal signature is always in the good space. *)
val monte_carlo : ?n:int -> spread -> Tech.t -> Util.Prng.t -> sample list

val pp : Format.formatter -> sample -> unit
