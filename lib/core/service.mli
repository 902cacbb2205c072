(** The process-scoped half of the {!Service}/{!Request} split: one
    analysis service behind the versioned wire API.

    A service owns everything that is shared by every analysis a process
    runs — the persistent result cache handle, the worker-domain pool
    size, the telemetry sink, the failure budget — while each
    {!Request.t} carries only what varies between analyses. {!submit}
    executes one request and {!serve} exposes the same entry point over
    a Unix or TCP socket speaking newline-delimited
    {!Codec.api_version} JSON.

    {2 Concurrency model}

    The domain pool and the telemetry span machinery are per-process
    (domain-local state seeded from the orchestrating domain), so the
    service runs analyses one at a time on a single execution lane and
    uses system threads only for admission and I/O. Concurrency is
    recovered where it actually pays:

    - {e inside} a request, the pipeline fans macros and fault classes
      out over the domain pool exactly as the CLI does;
    - {e across} requests, duplicates coalesce: requests whose
      {!Request.fingerprint}s collide while one is queued or running
      attach to that flight and receive the same tables (computed once,
      marked [coalesced] for the attachers);
    - admission control bounds the number of distinct queued flights at
      [max_pending]; beyond it the service sheds load with an
      [Overloaded] error carrying a [retry_after] hint instead of
      growing an unbounded queue.

    Determinism carries over from the pipeline: the tables in a reply
    are byte-identical to the equivalent CLI run's, whichever lane,
    thread or flight produced them.

    {2 What a service keeps}

    The macros of each target ([comparator] and [global], each with and
    without [dft]) are built on the first request for that target and
    kept until the service is dropped, with their synthesized layouts
    and the layouts' cache-key fingerprints. A warm hit therefore
    neither re-synthesizes nor re-fingerprints a layout; it still
    rebuilds each macro's nominal netlist for the key and decodes the
    cached payload.

    Beside each macro set the service keeps a {!Macro.Evaluate.Memo}
    of the fault classes its requests have simulated, so a miss
    re-simulates only the classes no earlier request met and
    re-classifies the rest against its own good space. Replies are
    unchanged by it; requests with [inject_failures] or a deadline
    bypass it. The [classes_reused] telemetry counter counts what it
    served.

    {2 Shutdown}

    {!initiate_shutdown} (the CLI routes the first SIGTERM/SIGINT here)
    drains: queued and running flights complete, every new submission is
    refused with [Shutting_down], the accept loop closes, and {!serve}
    returns so the daemon can exit 0. A second signal escalates to
    {!Util.Watchdog.request_shutdown}, which aborts in-flight pipeline
    work cooperatively (checkpoints still flush). *)

type t

(** [create ()] — a service with no cache, default pool size, the null
    telemetry sink, no failure budget, and room for [max_pending]
    (default 16) distinct queued flights.

    [jobs] is applied with {!Util.Pool.set_jobs} (the pool is a process
    resource; the last service created wins). [telemetry] is installed
    around each request's execution, so per-request spans
    ([service.request], carrying queue/evaluate seconds and cache
    hit/miss attributes) and all pipeline spans beneath them reach it. *)
val create :
  ?cache:Util.Cache.t ->
  ?jobs:int ->
  ?telemetry:Util.Telemetry.sink ->
  ?failure_budget:int ->
  ?max_pending:int ->
  unit ->
  t

(** The service's cache handle, if any (for end-of-run stats). *)
val cache : t -> Util.Cache.t option

(** [submit t request] executes [request] (or attaches to an identical
    in-flight request) and blocks until its response is ready. Never
    raises: every failure mode — malformed request semantics, exhausted
    failure budget, contained simulation failure, overload, shutdown —
    comes back as a structured [Error]. Safe to call from any thread. *)
val submit : t -> Request.t -> Request.response

(** [handle_line t line] is the wire entry point: decode one
    newline-delimited JSON request, {!submit} it, encode the response as
    a single line (no trailing newline). Malformed JSON or a bad
    request decode to a [bad_request]/[unsupported_version] error
    response — the function never raises, so one hostile client line
    cannot take the daemon down. *)
val handle_line : t -> string -> string

(** {1 Counters} *)

(** Monotonic service totals since {!create} (thread-safe snapshot).
    [coalesced] counts attachers only — a flight computed once for three
    requests is 1 completion + 2 coalesced. [cache_hits]/[cache_misses]
    aggregate the per-request result-cache deltas. *)
type stats = {
  submitted : int;
  completed : int;
  failed : int;
  shed : int;
  coalesced : int;
  cache_hits : int;
  cache_misses : int;
}

val stats : t -> stats

(** {1 Serving} *)

type address = Unix_socket of string | Tcp of string * int

(** ["unix:PATH"], a bare path (anything with a [/]) → {!Unix_socket};
    ["HOST:PORT"] → {!Tcp}. *)
val address_of_string : string -> (address, string) result

val address_to_string : address -> string

(** [serve t address] binds, listens, and accepts one thread per
    connection, each reading newline-delimited requests and writing one
    response line per request (through {!handle_line}). Blocks until
    {!initiate_shutdown} (or a process-wide
    {!Util.Watchdog.request_shutdown}) and the subsequent drain
    complete; an existing Unix-socket path is replaced, and the socket
    file is removed on return. [on_ready] fires once the socket is
    listening — tests use it to connect without racing the bind.

    [poll] is called from the accept loop (at least every quarter
    second) and throughout the drain. Signal handlers must not touch
    the service directly — OCaml handlers run at safepoints on whatever
    thread is executing, possibly one already holding a service lock —
    so the CLI's handlers only record atomically and its [poll]
    performs {!initiate_shutdown} / watchdog escalation from here.

    SIGPIPE is set to ignore for the process, so a client that
    disconnects mid-response surfaces as a handler-local [EPIPE]
    instead of killing the daemon; transient [accept] failures
    (ECONNABORTED, EMFILE, EINTR) are logged and the loop keeps
    accepting. Raises [Failure] if a TCP host does not resolve. *)
val serve :
  ?on_ready:(address -> unit) -> ?poll:(unit -> unit) -> t -> address -> unit

(** [call address request] — the one-shot client: connect, send the
    request as one line, read one response line, decode. Connection
    and decode failures come back as [Internal_error] responses rather
    than exceptions, so callers handle exactly one shape. *)
val call : address -> Request.t -> Request.response

(** Begin a graceful drain (idempotent): in-flight and queued work
    completes, new submissions answer [Shutting_down], {!serve}
    returns. *)
val initiate_shutdown : t -> unit

val draining : t -> bool

(** Block until no flight is queued or running (used by {!serve}; also
    by in-process tests that bypass it). *)
val drain : t -> unit
