(** Run supervision: per-simulation deadlines and cooperative shutdown.

    Long defect-oriented campaigns die in two ways the retry ladder alone
    cannot contain: a pathological fault class drags one Newton loop on
    for minutes, or the scheduler delivers SIGTERM and everything since
    the last completed macro is lost. This module supplies the two
    mechanisms the pipeline layers on top of [Macro.Evaluate]'s retry
    ladder:

    - {e Deadlines}: a budget of solver iterations and/or wall-clock
      seconds armed for the dynamic extent of one simulation attempt
      ({!with_limits}) and metered by the solver's hot loop ({!tick}).
      Expiry raises {!Deadline_exceeded}, which [Macro.Evaluate]
      classifies as retryable — the attempt re-runs with escalated
      options and a scaled budget, and a class that exhausts its ladder
      is recorded as unresolved, exactly like a convergence failure.
      An iteration cap is a pure function of the computation, so runs
      that use only [max_iterations] keep the byte-identity determinism
      contract; a wall-clock cap is inherently machine-dependent and is
      documented as best-effort.
    - {e Cooperative shutdown}: one process-wide flag set by signal
      handlers (or {!request_shutdown}) and polled by {!Pool} between
      work items. In-flight items drain; no new work is dispatched; the
      pool raises {!Interrupted} so callers can flush checkpoints and
      exit with a distinct, resumable status.

    Both mechanisms cost nothing when unused: {!tick} with no armed
    deadline is one domain-local read, and the shutdown flag is a single
    atomic. *)

(** {1 Deadlines} *)

(** A simulation budget. [None] in a field means that dimension is
    unlimited. *)
type limits = { wall_seconds : float option; max_iterations : int option }

(** Both dimensions unlimited; {!with_limits} with this value is [f ()]. *)
val no_limits : limits

val limits : ?wall_seconds:float -> ?max_iterations:int -> unit -> limits

(** [scale l ~factor] multiplies both budgets by [factor] (clamped to at
    least 1) — used to grant escalated retries a larger budget, so the
    ladder has a real chance of resolving a class whose first attempt
    expired. *)
val scale : limits -> factor:int -> limits

(** Why a deadline expired. Carries the configured limit only — the
    rendered {!expiry_message} is folded into persisted outcome payloads
    and must not embed measured values. *)
type expiry =
  | Wall_clock of { limit : float }
  | Iterations of { limit : int }

val expiry_message : expiry -> string

exception Deadline_exceeded of expiry

(** [with_limits l f] arms [l] for the dynamic extent of [f] on the
    calling domain (an inner [with_limits] shadows an outer one), with a
    fresh iteration counter and wall-clock start. With {!no_limits} this
    is exactly [f ()]. *)
val with_limits : limits -> (unit -> 'a) -> 'a

(** [tick ~by ()] spends [by] (default 1) iterations of the armed budget;
    a no-op when no deadline is armed. The wall clock is read only every
    32 ticks, so the armed cost is an integer compare.
    @raise Deadline_exceeded on expiry (also counted on the
    [watchdog.deadline_exceeded] telemetry counter). *)
val tick : ?by:int -> unit -> unit

(** [armed ()] — whether the calling domain currently has a deadline. *)
val armed : unit -> bool

(** [now_seconds ()] reads the monotonic clock wall-clock budgets are
    measured on, in seconds from an arbitrary origin. For intervals
    another process compares with its own monotonic timing: unlike
    [Unix.gettimeofday], it does not follow steps or slews of the wall
    clock. *)
val now_seconds : unit -> float

(** [unmetered f] runs [f] with the calling domain's armed deadline
    masked: {!tick}s inside [f] spend nothing and cannot expire. For
    amortized per-worker work (e.g. deriving the shared nominal
    operating point) that would otherwise charge its cost to whichever
    fault class happened to run first on the worker — under an
    iteration budget that would make outcomes depend on scheduling and
    break the byte-identity contract. The wall clock keeps running:
    elapsed time inside [f] still counts against a wall-clock budget
    once restored (wall deadlines are best-effort by design). *)
val unmetered : (unit -> 'a) -> 'a

(** {1 Cooperative shutdown} *)

(** Raised by {!check_shutdown} (and by {!Pool} combinators) once
    shutdown has been requested; the payload is the request reason
    (e.g. ["SIGTERM"]). *)
exception Interrupted of string

(** [request_shutdown ~reason ()] sets the process-wide shutdown flag.
    The first request wins; later ones are ignored. Safe to call from a
    signal handler or any domain. *)
val request_shutdown : ?reason:string -> unit -> unit

val shutdown_requested : unit -> bool
val shutdown_reason : unit -> string option

(** Clear the flag — test harnesses only; a real run exits instead. *)
val reset_shutdown : unit -> unit

(** @raise Interrupted iff shutdown has been requested. *)
val check_shutdown : unit -> unit

(** Route SIGINT and SIGTERM to {!request_shutdown}. A second signal
    exits immediately with status 130 (after [at_exit] hooks, so trace
    channels still flush). Call once from the CLI front end. *)
val install_signal_handlers : unit -> unit
