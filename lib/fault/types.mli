(** The circuit-level fault taxonomy of the methodology.

    These are the eight fault types of the paper's Table 1, each carried
    with enough structure to (a) collapse equivalent instances into
    classes and (b) inject the fault into a netlist for simulation.
    Nets are referred to by the node names of the macro netlist, which the
    layout synthesizer uses as wire labels. *)

(** Paper-facing category (the row of Table 1 a fault counts under). *)
type fault_type =
  | Short
  | Extra_contact
  | Gate_oxide_pinhole
  | Junction_pinhole
  | Thick_oxide_pinhole
  | Open
  | New_device
  | Shorted_device

val fault_type_name : fault_type -> string
val all_fault_types : fault_type list

(** Where a gate-oxide pinhole leaks to. The paper simulates all three
    and keeps the worst-case signature. *)
type pinhole_site = To_source | To_drain | To_channel

(** A circuit-level fault: a recipe for modifying the macro netlist. *)
type fault =
  | Bridge of {
      net_a : string;
      net_b : string;
      resistance : float;
      capacitance : float option;  (** for non-catastrophic 500 Ω ∥ 1 fF *)
      origin : fault_type;  (** [Short], [Extra_contact] or [Thick_oxide_pinhole] *)
    }
  | Bridge_cluster of {
      nets : string list;  (** three or more nets merged by one spot *)
      resistance : float;  (** per link between consecutive sorted nets *)
      capacitance : float option;
      origin : fault_type;
    }
  | Node_split of {
      net : string;
      far_pins : (string * string) list;
          (** [(device, terminal)] pins severed from the rest of the net,
              sorted; an empty list is a redundant defect *)
    }
  | Gate_pinhole of { device : string; site : pinhole_site; resistance : float }
  | Junction_leak of { net : string; bulk_net : string; resistance : float }
  | Device_ds_short of { device : string; resistance : float }
  | Parasitic_mos of { gate_net : string; net_a : string; net_b : string }

(** The Table-1 category a fault instance counts under. *)
val type_of_fault : fault -> fault_type

(** Catastrophic faults change DC connectivity; non-catastrophic
    (near-miss) faults are derived from them (§3.2). *)
type severity = Catastrophic | Non_catastrophic

(** A fault as produced by the defect simulator: the circuit-level fault
    plus its physical provenance. *)
type instance = {
  fault : fault;
  severity : severity;
  mechanism : Process.Defect_stats.mechanism;  (** physical origin *)
}

(** Canonical comparison key: instances with equal keys are circuit-level
    equivalent (same modification up to defect position). *)
val canonical_key : fault -> string

val pp_fault : Format.formatter -> fault -> unit
