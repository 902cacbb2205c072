(** Observability substrate: hierarchical spans, counters, gauges and
    pluggable event sinks.

    The pipeline is a long multi-stage funnel (sprinkle → collapse →
    good-space → fault simulation → detection) fanned out over worker
    domains; this module answers "where did the run spend its time, how
    many Newton iterations did each stage burn, which fault classes were
    escalated" without printf debugging.

    {2 Model}

    - {e Spans} are timed regions with parent nesting. Each span carries
      the wall-clock time at entry and a monotonic-clock duration, plus
      free-form attributes that may be added while the span is open (e.g.
      a fault class's resolution status, known only at the end). The
      current span is tracked per domain with [Domain.DLS], so spans
      opened inside {!Pool} workers nest correctly — the pool seeds each
      worker with the span that was open at the fan-out point.
    - {e Counters} are named monotonically increasing integers
      ([newton_iterations], [retries], [samples_drawn], …). Increments are
      buffered in a per-domain table (no locks on the hot path) and
      flushed to the sink when a span ends or a worker exits. Because
      totals are sums of integer deltas, the aggregate is identical for
      any job count or scheduling — the determinism contract of the whole
      pipeline extends to its metrics.
    - {e Gauges} are named floats aggregated as a high-water mark (the
      maximum over all reports), which is likewise order-independent.

    {2 Sinks}

    Events flow to one ambient {!sink}: {!null} (the default — every
    instrumentation call is a cheap early return), {!in_memory}
    (aggregated counters/gauges, queried with {!metrics}), or {!jsonl}
    (one event per line, streamed to a channel). {!multi} fans one event
    stream out to several sinks, so [--trace] and [--metrics] compose.

    Durations and wall-clock values are, by nature, not deterministic and
    must be excluded from any byte-identity comparison; counter totals
    and gauge high-water marks must not be. *)

(** Attribute values carried by spans and rendered into traces. *)
type value = Int of int | Float of float | Bool of bool | String of string

type attrs = (string * value) list

(** The event stream a sink consumes. Times: [wall] is
    [Unix.gettimeofday]; durations are monotonic-clock nanoseconds.
    Span ids are unique within a process run; [parent] links a span to
    the span that was open (on the same or the spawning domain) when it
    started. Counter deltas carry the innermost span that was open when
    the per-domain buffer was flushed, if any. *)
type event =
  | Span_start of {
      id : int;
      parent : int option;
      name : string;
      wall : float;
    }
  | Span_end of {
      id : int;
      parent : int option;
      name : string;
      attrs : attrs;
      wall : float;
      duration_ns : int64;
    }
  | Counter of { name : string; delta : int; span : int option }
  | Gauge of { name : string; value : float; span : int option }

(** A sink consumes events (possibly from several domains concurrently —
    implementations synchronize internally) and can be flushed. *)
type sink = { emit : event -> unit; flush : unit -> unit }

(** The zero-cost default: no events are constructed, no clock is read. *)
val null : sink

(** [multi sinks] forwards every event to each sink in order. [multi []]
    is {!null}. *)
val multi : sink list -> sink

(** {1 In-memory aggregation} *)

(** A deterministic snapshot of the aggregated metrics: counter totals
    and gauge high-water marks, both sorted by name. *)
module Metrics : sig
  type t = { counters : (string * int) list; gauges : (string * float) list }

  val empty : t
end

(** Handle on an in-memory aggregate (one mutex-protected table; counter
    deltas arrive pre-aggregated per domain, so contention is low). *)
type memory

val in_memory : unit -> memory
val memory_sink : memory -> sink

(** [metrics memory] snapshots the aggregate. Call it after the traced
    computation has completed (and its spans closed, which flushes the
    per-domain buffers). *)
val metrics : memory -> Metrics.t

(** {1 JSONL streaming} *)

(** [jsonl oc] writes one JSON object per event as a line on [oc]
    (writes are mutex-serialized; [flush] flushes [oc] but does not
    close it). Use {!event_of_json} to read a trace back. *)
val jsonl : out_channel -> sink

val event_to_json : event -> Json.t

(** [event_of_json v] inverts {!event_to_json};
    [event_of_json (event_to_json e) = Ok e]. *)
val event_of_json : Json.t -> (event, string) result

(** {1 Ambient sink} *)

(** [enabled ()] — [false] iff the ambient sink is {!null}. Hot paths may
    use it to skip attribute construction entirely. *)
val enabled : unit -> bool

(** [with_sink sink f] installs [sink] for the duration of [f], then
    flushes the per-domain counter buffer of the calling domain and
    [sink], and restores the previous sink. It is the one way to set the
    ambient sink, a single process-wide value, so pool workers started
    inside [f] report to [sink] too. Not reentrant from worker domains;
    install from the orchestrating domain only. *)
val with_sink : sink -> (unit -> 'a) -> 'a

(** {1 Instrumentation} *)

(** [with_span ?attrs name f] runs [f] inside a span. With the {!null}
    sink this is exactly [f ()]. The span's end event carries [attrs]
    plus anything added by {!add_span_attrs}; ending a span flushes the
    calling domain's counter buffer. Exceptions propagate (the span still
    ends, attributed with ["error" = true]). *)
val with_span : ?attrs:attrs -> string -> (unit -> 'a) -> 'a

(** [add_span_attrs attrs] appends attributes to the innermost open span
    of the calling domain (no-op without one, or when disabled). *)
val add_span_attrs : attrs -> unit

(** [count ?by name] adds [by] (default 1) to counter [name] in the
    calling domain's buffer. *)
val count : ?by:int -> string -> unit

(** [gauge name v] reports [v]; in-memory aggregation keeps the maximum. *)
val gauge : string -> float -> unit

(** [silenced f] runs [f] with {!count} and {!gauge} muted on the calling
    domain (spans still open and close). For work whose occurrence count
    depends on scheduling rather than on the inputs — e.g. the per-worker
    shared-nominal derivations in [Circuit.Engine] — so that counter
    totals remain byte-identical for any [--jobs] value. *)
val silenced : (unit -> 'a) -> 'a

(** {1 Worker-domain plumbing (used by {!Pool})} *)

(** [current_span ()] — the innermost open span of the calling domain. *)
val current_span : unit -> int option

(** [in_span parent f] runs [f] with its span stack seeded to [parent]
    (so spans opened by [f] nest under the fan-out point), then flushes
    the domain's counter buffer and restores the previous stack. *)
val in_span : int option -> (unit -> 'a) -> 'a

(** [flush_local ()] flushes the calling domain's buffered counter deltas
    to the sink. Spans and {!in_span} do this automatically; call it only
    after counting outside any span. *)
val flush_local : unit -> unit
