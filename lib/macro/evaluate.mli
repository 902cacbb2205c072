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

(** A bounded memo of measured fault classes, kept across analyses by a
    long-lived caller (the daemon keeps one per macro set).

    A class's faulty vector and resolution status are a function of the
    macro's nominal netlist, its fault, the solver and the retry bound
    alone: the defect sample, good space and sigma of a run only decide
    which classes it meets and how their vectors are read. The memo
    therefore stores vectors and statuses, never signatures — each run
    classifies a remembered vector against its own golden and good space
    with the code a fresh simulation goes through — keyed by the macro
    (by identity), the fault, the solver and the retry bound. It also
    keeps each macro's golden vector per solver. A memo assumes one
    process technology: every netlist it sees for a macro must be built
    at the same point.

    Each macro holds at most [capacity] classes (default 4,096); past
    that the oldest is evicted, which can only cost a re-simulation.
    Safe to share between domains. *)
module Memo : sig
  type t

  val create : ?capacity:int -> unit -> t

  (** Classes held, over every macro. *)
  val size : t -> int
end

(** [golden ?memo ~macro nominal] — the macro's fault-free measurement
    vector on [nominal], under the solver in effect
    ({!Circuit.Engine.current_solver}). With a memo, it is measured once
    per macro and solver. *)
val golden :
  ?memo:Memo.t ->
  macro:Macro_cell.t ->
  Circuit.Netlist.t ->
  Macro_cell.vector

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

    [?resume] and [?on_outcome] are the checkpoint hooks (see
    [Core.Checkpoint]): [resume index] may return a previously persisted
    outcome for the class at [index] — it is used {e only} if its fault
    class equals the recomputed one, so a checkpoint from different
    inputs can never corrupt a run — and [on_outcome index o] is called
    for every outcome not restored (from worker domains; the callback
    must synchronize internally). Restored classes count on the
    [classes_restored] telemetry counter instead of
    [classes_simulated].

    [?memo] serves classes it remembers (counted on [classes_reused],
    their span marked [reused]) and takes in the rest once the run's
    outcomes are merged, in class order, so its contents never depend on
    the job count. A memo cannot serve a run with [inject] or a
    [deadline]: injection depends on the class index, and a wall-clock
    budget on the machine.
    @raise Invalid_argument when [memo] is given with [inject] or
    [deadline]. *)
val run :
  ?jobs:int ->
  retries:int ->
  ?inject:injection ->
  ?deadline:Util.Watchdog.limits ->
  ?resume:(int -> outcome option) ->
  ?on_outcome:(int -> outcome -> unit) ->
  ?strict:bool ->
  ?memo:Memo.t ->
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
