(** Scalable-N flash-ADC analog core (generated).

    A parameterized workload for solver scaling studies: a reference
    ladder of [2^bits] segments between the converter's reference rails,
    with one long-channel readout NMOS per interior tap whose gate is
    coupled to the neighbouring tap. Connectivity is chain-local, so the
    MNA matrix is banded under the natural ordering and the circuit
    grows to thousands of unknowns while staying well-conditioned — the
    regime where re-factoring at every Newton iteration separates from
    factorization reuse. The measure procedure is a single DC operating
    point (plus the rail currents), so per-fault-class cost is dominated
    by the solves the cross-class shared-nominal warm start shortens.

    This is a benchmarking/scaling macro: it runs through the full
    pipeline (layout synthesis, defect sprinkling, fault classes,
    signatures) like any other macro, but it models the converter's
    analog core in the large, not a calibrated slice of the case-study
    chip. *)

(** [taps bits] = [2^bits] ladder segments. *)
val taps : int -> int

(** Bench netlist at a process point: the core plus the two reference
    rail sources [VRH]/[VRL]. Unknown count is [2^bits + 3]. *)
val bench_netlist : bits:int -> Process.Variation.sample -> Circuit.Netlist.t

(** The full macro bundle for {!Core.Pipeline}-style analysis.
    @raise Invalid_argument unless [2 <= bits <= 14]. *)
val macro : bits:int -> unit -> Macro.Macro_cell.t
