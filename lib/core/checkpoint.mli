(** Incremental checkpoint/resume of fault-class outcomes.

    The result cache ({!Util.Cache}) makes a {e completed} macro analysis
    free to re-run, but a killed campaign used to lose everything since
    the last completed macro — hours of fault simulation on a large
    netlist. This module persists completed fault-class outcomes
    {e during} evaluation, so a resumed run restarts from the last
    checkpoint flush rather than the last completed macro.

    {2 Storage}

    Partials ride the result cache: a macro whose full analysis is keyed
    [key] stores its in-progress outcomes under [key ^ "-partial"]
    (schema {!Codec.partial_outcomes_to_json}). They therefore inherit
    the cache's envelope versioning, atomic tmp-and-rename writes and
    degraded-write containment for free — and because the key
    fingerprints every pipeline input, a checkpoint written under
    different inputs is simply never found. Once the full analysis entry
    is published, {!finish} retires the partial.

    {2 Determinism}

    A restored outcome is handed to [Macro.Evaluate.run]'s [resume]
    hook, which verifies it against the recomputed fault class before
    trusting it; fault simulation is deterministic, so a resumed run
    produces byte-identical coverage tables, health counters and bounds
    to an uninterrupted one at any job count. Only the survival
    statistics (restored/recorded counts) and wall-clock telemetry
    differ — exactly like warm-vs-cold cache runs.

    {2 Concurrency}

    One registry serves a whole run; one {!handle} serves one macro's
    evaluation and is called from {!Util.Pool} worker domains — its
    outcome table is mutex-protected, the registry counters atomic. *)

(** Shared registry: configuration plus run-wide counters. *)
type t

(** [create ()] — a registry with checkpointing on and resume off.
    [resume] makes handles load any existing partial and serve
    {!restore} hits from it. Every 8th freshly recorded outcome triggers
    a flush, which bounds how many a hard kill may lose. [interrupt_after]
    is a deterministic test hook (compare [Pipeline.Config.inject_failures]):
    after the [n]-th recorded outcome, run-wide, it calls
    {!Util.Watchdog.request_shutdown} — letting tests exercise the
    kill-and-resume path without racing a real signal against the
    scheduler. *)
val create : ?resume:bool -> ?interrupt_after:int -> unit -> t

val resume_enabled : t -> bool

(** Run-wide counters: [restored] outcomes served from a loaded partial,
    [recorded] outcomes freshly simulated and checkpointed, [flushes]
    partial writes. For a run that completes, all three are functions of
    the inputs and the pre-existing checkpoint only — independent of the
    job count. *)
type stats = { restored : int; recorded : int; flushes : int }

val stats : t -> stats

(** Per-macro checkpoint state. *)
type handle

(** [handle t ~cache ~key] — open the checkpoint for the macro whose
    full analysis is cached under [key]. With [resume] enabled, loads
    the partial stored under [key ^ "-partial"] (an absent or
    undecodable partial is an empty one — never an error). The read
    goes through {!Util.Cache.peek}: the macro's own lookup has already
    counted its miss, so the partial adds no second one. *)
val handle : t -> cache:Util.Cache.t -> key:string -> handle

(** [restore h ~section ~index] — the checkpointed outcome of the class
    at [index] of evaluation [section] (["cat"] / ["ncat"]), or [None].
    Always [None] when the registry has resume off. *)
val restore :
  handle -> section:string -> index:int -> Macro.Evaluate.outcome option

(** [record h ~section ~index outcome] adds a freshly simulated outcome;
    every 8th recorded outcome triggers a flush. Called from worker
    domains. *)
val record :
  handle -> section:string -> index:int -> Macro.Evaluate.outcome -> unit

(** [flush h] persists all outcomes recorded since the last flush (a
    no-op if there are none). Callers run this in a [Fun.protect]
    finalizer around evaluation, so an interrupt's in-flight drain is
    checkpointed on the way out. *)
val flush : handle -> unit

(** [finish h] retires the partial entry — call once the full analysis
    has been published under the macro's own key. *)
val finish : handle -> unit
