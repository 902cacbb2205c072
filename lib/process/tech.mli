(** Technology parameters of the target process.

    Dimensions are in nanometres on the layout grid; resistances in ohms,
    capacitances in farads. The fault-model resistances follow §3.2 of the
    paper: metal shorts 0.2 Ω, extra contacts 2 Ω, oxide/junction pinholes
    2 kΩ, near-miss (non-catastrophic) shorts 500 Ω ∥ 1 fF. *)

type t = {
  name : string;
  (* --- design rules (nm) --- *)
  min_width : Layer.t -> int;     (** minimum drawn width per layer *)
  min_spacing : Layer.t -> int;   (** minimum same-layer spacing *)
  contact_size : int;             (** contact/via edge *)
  grid : int;                     (** layout grid pitch *)
  (* --- electrical --- *)
  sheet_resistance : Layer.t -> float;  (** Ω/□ of conducting layers *)
  short_resistance : Layer.t -> float;  (** Ω of an extra-material bridge *)
  extra_contact_resistance : float;
  gate_oxide_pinhole_resistance : float;
  junction_pinhole_resistance : float;
  thick_oxide_pinhole_resistance : float;
  shorted_device_resistance : float;    (** drain-source bridge of a device *)
  near_miss_resistance : float;         (** non-catastrophic short, 500 Ω *)
  near_miss_capacitance : float;        (** parallel 1 fF *)
  (* --- nominal supplies --- *)
  vdd : float;
  temperature : float;            (** °C, nominal *)
}

(** The double-metal 1 µm CMOS process used throughout the case study,
    with the paper's fault-model resistances. *)
val cmos1um : t
