(** Spot-defect statistics of the fabrication line.

    The defect simulator needs, per defect mechanism, (a) a relative rate —
    how often the mechanism occurs per unit area — and (b) a size
    distribution for the spot diameter. Extra material in the metallization
    steps dominates real CMOS lines, which is what makes shorts >95 % of
    all faults in the paper's Table 1; the synthetic table below encodes
    that dominance (see DESIGN.md §2, substitution of the Philips line
    statistics). *)

(** A physical defect mechanism the line can produce. *)
type mechanism =
  | Extra_material of Layer.t    (** conducting spot bridging shapes *)
  | Missing_material of Layer.t  (** hole severing a shape *)
  | Gate_oxide_pinhole           (** gate leaks to channel/source/drain *)
  | Junction_pinhole             (** source/drain junction leaks to bulk *)
  | Thick_oxide_pinhole          (** field-oxide leak between crossing layers *)
  | Extra_contact                (** spurious vertical connection *)
  | Missing_contact              (** open contact/via *)

val mechanism_name : mechanism -> string

(** Per-mechanism statistics. *)
type entry = {
  mechanism : mechanism;
  relative_rate : float;  (** occurrences per unit of sprinkling weight *)
  size_min : float;       (** nm, smallest printable spot *)
  size_max : float;       (** nm, upper cutoff of the 1/x³ density *)
}

type t

(** [create entries] checks rates are positive and builds the table. *)
val create : entry list -> t

val entries : t -> entry list

(** [default] — the synthetic line statistics fitted to the paper's fault
    mix: metallization extra-material dominates, followed by gate-oxide
    and junction pinholes, with opens and contact defects rare. *)
val default : t

(** [sampler t prng] draws mechanisms proportionally to their rates. *)
val sample_mechanism : t -> Util.Prng.t -> mechanism

(** [sample_size t prng mech] draws a spot diameter (nm) for the mechanism
    from its 1/x³ size law. *)
val sample_size : t -> Util.Prng.t -> mechanism -> float
