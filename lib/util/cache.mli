(** Persistent content-addressed result cache.

    The pipeline's per-macro analyses are pure functions of the
    configuration, so repeated and partially-changed runs can skip
    already-simulated work entirely. This module is the storage layer:
    a directory of JSON entries — one file per key, written atomically —
    fronted by a small in-memory LRU so a key is deserialized from disk
    at most once per process.

    {2 Content addressing}

    Keys are hex digests produced by {!fingerprint} from every input the
    cached value depends on. The cache never compares payloads: equal key
    ⇒ equal value is the {e caller's} contract, which is why callers must
    fold a version stamp into the fingerprint and bump it whenever the
    semantics behind a payload change.

    {2 Envelope}

    Every entry is stored inside a versioned envelope
    [{schema; version; key; payload}]. On read, an entry whose schema
    stamp or version differs — or that does not parse at all (truncated
    write, foreign file) — is counted as {e stale} and reported as a
    miss, never misread: a stale format can only cost a re-simulation.

    {2 Concurrency and atomicity}

    Entries are written to a temporary file in the cache directory and
    atomically renamed into place, so readers (including concurrent
    processes sharing the directory) observe either the old entry, the
    new one, or none — never a torn write. The in-memory layer is
    mutex-protected and safe to use from {!Pool} worker domains.

    {2 Telemetry}

    Every lookup and eviction increments the [cache.hits] /
    [cache.misses] / [cache.stale] / [cache.evictions] counters through
    {!Telemetry}, and the same four counters are kept per handle for
    callers that run without a telemetry sink (see {!stats}). *)

type t

(** Counter snapshot of one handle. [hits] counts memory and disk hits
    alike; [stale] entries (bad schema, bad version, corrupt file) are
    {e also} counted under [misses] — a stale entry behaves exactly like
    an absent one. [write_errors] counts stores that could not be
    persisted (full disk, read-only directory): each is contained —
    warned about once per handle on stderr, counted on the
    [cache.write_errors] telemetry counter — and the cache degrades to
    one that never hits instead of failing the run. *)
type stats = {
  hits : int;
  misses : int;
  stale : int;
  evictions : int;
  write_errors : int;
}

val no_stats : stats

(** [create ~dir ~version ()] opens (creating it, including parents, if
    needed) a cache directory. [version] is the caller's semantic version
    stamp, checked against each entry's envelope. [capacity] bounds the
    in-memory LRU entry count (default 128; the directory itself is
    unbounded). @raise Sys_error when [dir] exists but is not a
    directory or cannot be created. *)
val create : ?capacity:int -> dir:string -> version:string -> unit -> t

val dir : t -> string

(** [fingerprint parts] — stable hex digest of the (order-sensitive)
    input list. Parts are length-prefixed before digesting, so component
    boundaries cannot alias (["ab"; "c"] ≠ ["a"; "bc"]). *)
val fingerprint : string list -> string

(** [find t ~key] — the stored payload, consulting the LRU first and the
    directory second. [None] counts as a miss (and additionally as stale
    when a file was present but unusable). *)
val find : t -> key:string -> Json.t option

(** [peek t ~key] is {!find} without counting: it touches no hit, miss
    or stale counter. For side entries such as checkpoint partials,
    which sit beside a result entry that was already counted, so one
    cache miss reads as one. *)
val peek : t -> key:string -> Json.t option

(** [store t ~key payload] writes the enveloped payload atomically and
    promotes it into the LRU. I/O errors are contained as degraded-mode
    writes (see {!stats}): never raised mid-run. *)
val store : t -> key:string -> Json.t -> unit

(** [remove t ~key] deletes the entry from the LRU and the directory
    (missing entries and I/O errors are ignored). Used to retire
    checkpoint partials once the full entry is published. *)
val remove : t -> key:string -> unit

(** [stats t] — the handle's counters so far. *)
val stats : t -> stats
