(** Deterministic multicore execution pool.

    A thin, dependency-free layer over OCaml 5 [Domain] used by the
    embarrassingly parallel pipeline stages (defect sprinkling, fault-class
    simulation, per-macro analysis). The contract is strict determinism:
    every combinator returns results in input order, so a computation whose
    per-item work is pure produces bit-identical output for any job count —
    [jobs = 1] and [jobs = 8] must never be distinguishable from the result.

    The worker count is a process-wide knob resolved in this order:
    an explicit [?jobs] argument, then {!set_jobs}, then the [DOTEST_JOBS]
    environment variable, then [Domain.recommended_domain_count () - 1]
    (at least 1). With an effective job count of 1, or on lists of fewer
    than two elements, everything runs sequentially on the calling domain —
    no domain is ever spawned.

    Nested calls never oversubscribe: a [parallel_map] issued from inside a
    pool worker degrades to a sequential map, so parallelising an outer
    stage (e.g. per-macro analysis) automatically serialises the stages
    nested beneath it.

    {2 Cancellation}

    Every combinator stops dispatching promptly in two situations, on the
    sequential and parallel paths alike:

    - {e Failure}: once any item raises, no further items are dispatched;
      items already in flight drain. Because items are dispatched in index
      order, every index below the first recorded failure still runs, so
      the exception that propagates is the lowest-indexed failing item's —
      identical for any job count (see {!Worker_failure}).
    - {e Shutdown}: once {!Watchdog.request_shutdown} has been called
      (e.g. from a SIGTERM handler), no further items are dispatched,
      in-flight items drain, and the combinator raises
      {!Watchdog.Interrupted} — unless every item had already completed,
      in which case the full result is returned normally. *)

(** [Worker_failure (index, e)] wraps the exception [e] raised while
    processing the item at [index] of the input list, so a failure in a
    batch of thousands of items is attributable. Every combinator below
    raises failures in this form, on the sequential paths too — error
    behaviour is identical for any job count. A registered
    [Printexc] printer renders it as ["Pool.Worker_failure: item N
    raised …"]. *)
exception Worker_failure of int * exn

(** [default_jobs ()] is the job count used when {!set_jobs} has not been
    called: [DOTEST_JOBS] if set to a positive integer, otherwise
    [max 1 (Domain.recommended_domain_count () - 1)]. *)
val default_jobs : unit -> int

(** [set_jobs n] fixes the process-wide job count to [max 1 n].
    Call it once from the CLI / bench front end after parsing [--jobs]. *)
val set_jobs : int -> unit

(** [jobs ()] is the job count currently in effect. *)
val jobs : unit -> int

(** [parallel_map ?jobs f xs] is [List.map f xs], computed by up to [jobs]
    domains. Results keep input order. If any application raises, dispatch
    stops, items already in flight run to completion, and the exception of
    the lowest-indexed failing item is re-raised (with its backtrace) on
    the calling domain as [Worker_failure (index, e)] — which exception
    propagates is therefore deterministic.
    @raise Watchdog.Interrupted when a shutdown request stopped the map
    before every item had run. *)
val parallel_map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list

(** [parallel_mapi ?jobs f xs] is [List.mapi f xs] with the same contract
    as {!parallel_map}. *)
val parallel_mapi : ?jobs:int -> (int -> 'a -> 'b) -> 'a list -> 'b list

(** [chunk_ranges ~n ~chunk_size] partitions [0 .. n-1] into contiguous
    [(offset, length)] ranges of [chunk_size] items (the last may be
    shorter). The partition depends only on [n] and [chunk_size] — never on
    the job count — so per-chunk work (e.g. one PRNG split per chunk) is
    stable across machines. [n = 0] gives the empty list.
    @raise Invalid_argument if [n < 0] or [chunk_size <= 0]. *)
val chunk_ranges : n:int -> chunk_size:int -> (int * int) list
