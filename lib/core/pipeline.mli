(** The defect-oriented test path of Fig. 1, end to end, for one macro.

    defect statistics + layout → defect simulation → fault collapsing →
    (non-catastrophic derivation) → circuit-level fault simulation →
    macro-level fault signatures. The caller chains {!Global} for the
    circuit-level scaling step.

    The fault-simulation stage is contained (see {!Macro.Evaluate}):
    convergence failures are retried along the engine's escalation ladder
    and, if still failing, recorded as unresolved instead of aborting the
    run. Per-macro health counters roll up into a {!run_health} record
    whose counters are byte-identical across {!Util.Pool} job counts.

    Spans and counters go to the ambient sink: a caller that wants a
    trace or metrics installs one with {!Util.Telemetry.with_sink} around
    the call. *)

(** Pipeline configuration as a value: build one with {!Config.default}
    and the [with_*] setters, pass it to {!analyze} / {!analyze_all}.

    {[
      let config =
        Core.Pipeline.Config.(
          default |> with_defects 5_000 |> with_seed 42 |> with_strict true)
    ]} *)
module Config : sig
  type t = {
    tech : Process.Tech.t;
    defects : int;        (** spots sprinkled per macro *)
    good_space_dies : int;  (** Monte-Carlo dies for the good space *)
    sigma : float;        (** acceptance window width, in σ *)
    seed : int;
    max_retries : int;
        (** escalated re-attempts after a convergence failure (default 1) *)
    strict : bool;
        (** fail fast on the first unresolved class instead of containing
            it (default [false]) *)
    failure_budget : int option;
        (** abort the run once more than this many classes end unresolved;
            checked on merged, ordered results so the outcome is identical
            for any job count (default [None] = unlimited) *)
    inject_failures : float option;
        (** test hook: force this fraction of fault-class simulations to
            raise [No_convergence] deterministically (default [None]) *)
    cache : Util.Cache.t option;
        (** persistent result cache consulted per macro before any
            simulation work is spawned (default [None] = simulate
            everything). See {!analyze} for the determinism contract. *)
    deadline : Util.Watchdog.limits option;
        (** per-attempt budget for each fault-class simulation, in
            solver iterations and/or wall-clock seconds; the budget
            doubles with every escalated retry. Part of the cache key —
            a deadline changes which classes end unresolved. Iteration
            caps keep the determinism contract; wall-clock caps are
            best-effort (default [None] = unbounded) *)
    checkpoint : Checkpoint.t option;
        (** the per-class result store (default [None]; [Core.Service]
            keeps one per macro set). Classes it holds are re-classified
            against this analysis's golden vector and good space instead
            of simulated, so tables are unchanged; each class simulated
            here is added to it and, with [cache], written to disk as it
            completes. Not part of the cache key. See {!Checkpoint}. *)
    solver : Circuit.Engine.solver;
        (** Newton factorization policy for every simulation stage
            (default {!Circuit.Engine.default_solver} = [Auto]), installed
            by {!analyze} with {!Circuit.Engine.with_solver} around them
            all. Both policies must produce identical tables; [Dense]
            (full Newton) is the reference for bisecting solver
            regressions. Part of the cache key. *)
  }

  (** [cmos1um]; no failure budget, cache or store. Every
      other field is read off {!Request.default}, the one place the
      per-analysis defaults are stated. *)
  val default : t

  val with_tech : Process.Tech.t -> t -> t
  val with_defects : int -> t -> t
  val with_good_space_dies : int -> t -> t
  val with_sigma : float -> t -> t
  val with_seed : int -> t -> t
  val with_max_retries : int -> t -> t
  val with_strict : bool -> t -> t
  val with_failure_budget : int option -> t -> t
  val with_inject_failures : float option -> t -> t

  (** [with_cache_handle cache config] installs a result cache (see
      {!Util.Cache.create}, versioned with {!Codec.version}); keep the
      handle to read {!Util.Cache.stats} after the run. *)
  val with_cache_handle : Util.Cache.t option -> t -> t

  val with_deadline : Util.Watchdog.limits option -> t -> t

  (** [with_checkpoint (Some store) config] installs a per-class result
      store; keep it to read {!Checkpoint.stats} after the run. *)
  val with_checkpoint : Checkpoint.t option -> t -> t

  val with_solver : Circuit.Engine.solver -> t -> t
end

(** Containment counters for one macro, functions of the merged outcome
    lists only. *)
type macro_health = {
  macro_name : string;
  classes : int;      (** fault classes simulated (both severities) *)
  retried : int;      (** classes that needed more than one attempt *)
  degraded : int;     (** classes that recovered on an escalated retry *)
  unresolved : int;   (** classes whose every attempt failed *)
}

(** {!macro_health} aggregated over a whole run. *)
type run_health = {
  per_macro : macro_health list;
  total_classes : int;
  total_retried : int;
  total_degraded : int;
  total_unresolved : int;
}

type macro_analysis = {
  macro : Macro.Macro_cell.t;
  sprinkled : int;
  effective : int;
  good : Macro.Good_space.t;
  classes_catastrophic : Fault.Collapse.fault_class list;
  classes_non_catastrophic : Fault.Collapse.fault_class list;
  outcomes_catastrophic : Macro.Evaluate.outcome list;
  outcomes_non_catastrophic : Macro.Evaluate.outcome list;
  health : macro_health;
}

(** [run_health analyses] rolls the per-macro health records up into run
    totals (macros in list order). *)
val run_health : macro_analysis list -> run_health

(** Raised once more fault classes end unresolved than
    [config.failure_budget] allows. Containment must not silently turn a
    completely broken run into an "everything unresolved" report. *)
exception Budget_exhausted of { failures : int; limit : int }

(** [analyze config macro] runs the whole per-macro path. Deterministic
    for a given [config.seed] regardless of the {!Util.Pool} job count:
    the defect draws are chunked with per-chunk PRNG streams and all
    parallel stages merge in input order.

    With [config.cache] set, the cache is consulted first under a key
    fingerprinting every input the result depends on (macro name, its
    nominal netlist and synthesized layout, tech and defect statistics,
    defect/die counts, sigma, seed, retry/strict/injection settings, and
    {!Codec.version}); a hit skips all simulation and re-attaches the
    in-memory [macro]. Determinism contract: a warm run produces
    byte-identical coverage tables, health counters and bounds to the
    cold run at any job count — only wall-clock telemetry differs. The
    failure budget is re-checked on hits, so a cached degraded run still
    raises under a tighter budget.

    With [config.checkpoint] set, the store is consulted for each fault
    class before it is simulated, and every class simulated is added to
    it; with a cache, each is also written to disk as it completes. A
    class's store key holds everything its measurement depends on: the
    macro's name, nominal netlist and tech, the fault, the solver, the
    retry bound, the deadline and, when failures are injected, the seed
    and the class index. A run resumed after an interrupt
    ([Checkpoint.create ~resume:true]) therefore produces the same bytes
    as an uninterrupted one. A cache hit never reaches the store.

    Each stage (sprinkle, collapse, good-space, evaluate-cat,
    evaluate-ncat) runs in a [pipeline.stage] span and logs its
    wall-clock duration at Info level as it ends; a hit runs none.

    @raise Budget_exhausted when the macro alone exceeds
    [config.failure_budget].
    @raise Util.Pool.Worker_failure wrapping
    [Macro.Evaluate.Simulation_failed] when [config.strict] and a class
    is unresolved.
    @raise Util.Watchdog.Interrupted when cooperative shutdown was
    requested (SIGINT/SIGTERM via
    [Util.Watchdog.install_signal_handlers]): in-flight classes drain,
    their class entries land, and the exception unwinds for the caller
    to exit with a resumable status. *)
val analyze : Config.t -> Macro.Macro_cell.t -> macro_analysis

(** [analyze_all config macros] analyses independent macros concurrently
    on the {!Util.Pool} (their layouts are forced up front; the stages
    inside each macro then run sequentially, so the pool is never
    oversubscribed). Same results, in the same order, as
    [List.map (analyze config) macros]. The failure budget is re-checked
    against the sum of unresolved classes across all macros, after the
    ordered merge. *)
val analyze_all : Config.t -> Macro.Macro_cell.t list -> macro_analysis list

(** All outcomes of one severity. *)
val outcomes :
  macro_analysis -> Fault.Types.severity -> Macro.Evaluate.outcome list

(** Number of simulated fault instances (magnitude-weighted). *)
val fault_count : macro_analysis -> Fault.Types.severity -> int
