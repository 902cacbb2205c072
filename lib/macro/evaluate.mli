(** Fault simulation of a macro: from fault classes to fault signatures.

    Each fault class representative is injected into the macro's nominal
    netlist, the macro is re-measured, and the faulty vector is classified
    into the paper's voltage and current signature categories against the
    good-signature space.

    Injected defects routinely produce pathological circuits (floating
    nodes, near-shorts) where the Newton solver fails; every fault-class
    simulation is therefore contained. A {!Circuit.Engine.No_convergence}
    triggers deterministic retries that walk the engine's documented
    escalation ladder ({!Circuit.Engine.escalation}) via
    {!Circuit.Engine.with_options_override}; a class that still fails is
    recorded as {!Unresolved} — with the classified error and the attempts
    taken — instead of aborting the whole batch. Its signature keeps the
    seed pipeline's optimistic gross-defect reading (output stuck, all
    currents deviating); [Core.Global.coverage_bounds] also reports the
    pessimistic bound where unresolved classes count as undetected. *)

(** How the class's simulation concluded. *)
type status =
  | Converged  (** clean first-attempt convergence *)
  | Recovered of { attempts : int }
      (** converged only on an escalated retry — the signature was
          measured with loosened solver tolerances (degraded) *)
  | Unresolved of { attempts : int; error : string }
      (** every attempt failed; [error] is the classified final error *)

(** What simulating a class yields before it is classified: the faulty
    vector (empty when {!Unresolved}) and the resolution status. A
    signature is this vector read against one run's golden vector and
    good space, so a measured class can serve any run that meets the
    same fault under the same settings. Declared before {!outcome},
    whose [status] label stays the default. *)
type measured = { vector : Macro_cell.vector; status : status }

type outcome = {
  fault_class : Fault.Collapse.fault_class;
  signature : Signature.t;
  status : status;
}

(** [simulation_failed o] — [true] iff the class ended {!Unresolved}. *)
val simulation_failed : outcome -> bool

(** Raised (inside the worker; the pool wraps it in
    [Util.Pool.Worker_failure]) when [run ~strict:true] meets an
    unresolved class — restoring the seed's fail-fast behaviour, with the
    failing fault-class index attached. *)
exception Simulation_failed of { index : int; attempts : int; error : string }

(** Deterministic fault-injection harness for the pipeline itself (test
    hook, off by default): makes a configurable [fraction] of fault-class
    simulations raise [No_convergence]. The decision is a pure function of
    [(seed, class index, attempt)] seeded through {!Util.Prng}, so it is
    identical for any job count. Half of the injected fraction fails every
    attempt (ending {!Unresolved}); the other half fails only the first
    attempt (ending {!Recovered}). *)
type injection = { seed : int; fraction : float }

(** [golden ~macro nominal] — the macro's fault-free measurement
    vector on [nominal], under the solver in effect
    ({!Circuit.Engine.current_solver}). *)
val golden : macro:Macro_cell.t -> Circuit.Netlist.t -> Macro_cell.vector

(** Where {!run} looks a class up before simulating it, and records each
    class it simulated as the class completes. Both are called from
    worker domains, so an implementation synchronizes internally.
    [Core.Checkpoint] is the one implementation. *)
type store = {
  find : index:int -> Fault.Collapse.fault_class -> measured option;
  record : index:int -> Fault.Collapse.fault_class -> measured -> unit;
}

(** [run ~retries ~macro ~nominal ~golden ~good classes] evaluates every
    class against the caller's nominal netlist and golden vector (see
    {!golden}). [retries] bounds the escalated re-attempts after a
    convergence failure or a deadline expiry. Any other exception is
    never retried or contained: programming errors propagate. Classes
    are simulated on a {!Util.Pool} of [?jobs] worker domains
    (defaulting to the pool's process-wide setting); outcomes keep the
    input order, so the result is identical for any job count.
    With [~strict:true], containment is off: the first (lowest-indexed)
    unresolved class raises {!Simulation_failed} wrapped in
    [Util.Pool.Worker_failure].

    [?deadline] bounds {e each attempt} of each class's simulation in
    solver iterations and/or wall-clock seconds (see
    {!Util.Watchdog.limits}); the budget doubles with every escalated
    retry ([scale ~factor:(2^attempt)]). An expiry is retried along the
    ladder like a convergence failure and, if the ladder runs out,
    recorded as {!Unresolved} with the (deterministic) expiry message.
    Iteration caps preserve the any-job-count byte-identity contract;
    wall-clock caps are machine-dependent and best-effort.

    Every class is simulated under the solver in effect at the call
    ({!Circuit.Engine.current_solver}; [Core.Pipeline.analyze] installs
    its config's), read once on entry and re-installed inside each pool
    worker — domain-local [with_solver] scopes do not propagate into
    worker domains on their own.

    [?store] serves the classes it holds: such a class is classified
    by the same code as a fresh one, against this run's golden vector
    and good space, and counts on [classes_reused] (its span marked
    [reused]) instead of [classes_simulated]. Every other class is
    simulated and handed to [store.record]. *)
val run :
  ?jobs:int ->
  retries:int ->
  ?inject:injection ->
  ?deadline:Util.Watchdog.limits ->
  ?store:store ->
  ?strict:bool ->
  macro:Macro_cell.t ->
  nominal:Circuit.Netlist.t ->
  golden:Macro_cell.vector ->
  good:Good_space.t ->
  Fault.Collapse.fault_class list ->
  outcome list

(** [voltage_table outcomes] tabulates the share of faults (weighted by
    class magnitude) per voltage signature — one column of Table 2. *)
val voltage_table : outcome list -> (Signature.voltage * float) list

(** [current_table outcomes] — share of faults whose signature deviates in
    each current, plus the share with no current deviation (Table 3; the
    kind shares can sum to more than 1 because of overlap). *)
val current_table :
  outcome list -> (Signature.current_kind * float) list * float
