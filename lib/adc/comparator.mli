(** The comparator macro cell — the paper's worked example (§3.2).

    A fully balanced, three-phase clocked comparator loaded with a
    flipflop:

    - {b sampling} (clk1): the input and reference are tracked onto the
      sampling capacitors through NMOS switches; the class-A amplifier is
      off, so the only analog supply current is the flipflop leak device;
    - {b amplification} (clk2): the differential pair, biased by the
      [biasn] line, develops the decision across diode-connected PMOS
      loads;
    - {b latching} (clk3): a cross-coupled NMOS pair biased by the
      (marginally different) [biaslt] line regenerates the decision, and
      the flipflop captures it through pass transistors.

    The test bench mirrors the macro's environment in the flash ADC:
    the three clock lines are driven by small CMOS buffers on a separate
    digital supply ([iddq:] measurements), the bias lines come through
    the bias generator's output impedance, and the analog supply, input
    and reference are ideal sources ([ivdd:]/[iin:] measurements). *)

type options = {
  leaky_flipflop : bool;
      (** the original flipflop has a process-sensitive leak device; the
          DfT redesign ([false]) removes it *)
  bias_adjacent : bool;
      (** route [biasn] and [biaslt] on adjacent tracks (original layout);
          the DfT reorder ([false]) separates them *)
}

val default_options : options

(** Both DfT measures applied. *)
val dft_options : options

(** Netlist of the macro alone (no sources) — the layout view. *)
val layout_netlist : options -> Circuit.Netlist.t

(** Macro + test bench at a process point. *)
val bench_netlist : options -> Process.Variation.sample -> Circuit.Netlist.t

(** Synthesized layout. *)
val layout : options -> Layout.Cell.t

(** The macro-cell bundle (256 instances in the flash ADC). *)
val macro : options -> Macro.Macro_cell.t
