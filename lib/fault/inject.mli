(** Fault injection: apply a circuit-level fault model to a netlist.

    Injection always works on a deep copy — the golden netlist is never
    mutated. Injected elements use a reserved ["FLT_"] name prefix so they
    can be recognized in debug dumps. *)

(** [inject netlist fault] returns a faulty copy of [netlist].

    - [Bridge]: a resistor (and optional parallel capacitor) between the
      two nets.
    - [Node_split]: a fresh node; the listed far pins are reconnected to
      it. Pins absent from the netlist are ignored (they may belong to
      test-bench elements not present in this view).
    - [Gate_pinhole]: a resistor from the device's gate to its source or
      drain; [To_channel] splits the leak into two 2R halves to source
      and drain.
    - [Junction_leak]: a resistor from the net to the bulk rail net.
    - [Device_ds_short]: a resistor across the device's drain and source.
    - [Parasitic_mos]: a minimum-size NMOS between the two nets, gated by
      the bridging poly's net.

    @raise Invalid_argument when a referenced net or device does not
    exist in the netlist (a pipeline bug, not a fault property). *)
val inject : Circuit.Netlist.t -> Types.fault -> Circuit.Netlist.t

(** [inject_instance netlist instance] injects [instance.fault]. *)
val inject_instance : Circuit.Netlist.t -> Types.instance -> Circuit.Netlist.t

(** [is_fault_device name] — whether a device name carries the reserved
    ["FLT_"] injection prefix. [Circuit.Engine]'s shared-nominal context
    uses this predicate (passed in by [Core.Pipeline]) to tell injected
    stamps from the nominal skeleton of a faulty netlist: the plan is
    derived from the skeleton's template and the faulty solve
    warm-starts from the skeleton's operating point. *)
val is_fault_device : string -> bool
