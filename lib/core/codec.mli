(** The library's one public (de)serialization surface.

    Everything the library persists or emits as JSON goes through this
    module, so the schema of each value is defined in exactly one place:
    the result cache stores per-macro analyses with {!analysis},
    checkpoints store {!partial_outcomes}, [dotest serve] speaks
    {!request} and {!response}, and {!Report.render}'s [`Json] format
    renders through {!table_to_json}.

    Each schema is one two-way codec value: a single description of its
    member names, case tags and member order gives both directions, so
    an encoder and its decoder cannot drift apart. Encoders are total.
    Decoders are total in the other direction: any JSON value yields
    [Ok] or a descriptive [Error], never an exception — a corrupt cache
    entry must cost a re-simulation, not a crash. For every codec,
    [c.dec (c.enc v) = Ok v]; floats survive exactly because
    {!Util.Json} prints the shortest representation that parses back to
    the identical double.

    {!version} stamps both the cache envelope and the cache key: bump it
    whenever simulation semantics or any encoding here changes, and
    every previously written cache entry becomes (safely) stale. *)

type 'a decoder = Util.Json.t -> ('a, string) result

(** A two-way codec. *)
type 'a t = { enc : 'a -> Util.Json.t; dec : 'a decoder }

(** Serialization/semantics version of the library (see the module
    preamble). Folded into every cache key and envelope. *)
val version : string

(** {1 Signatures} *)

val voltage : Macro.Signature.voltage t
val current_kind : Macro.Signature.current_kind t
val signature : Macro.Signature.t t

(** {1 Faults and fault classes} *)

val fault : Fault.Types.fault t
val instance : Fault.Types.instance t
val fault_class : Fault.Collapse.fault_class t

(** {1 Evaluation outcomes} *)

val status : Macro.Evaluate.status t
val outcome : Macro.Evaluate.outcome t

(** {1 Good-signature space} *)

val good_space : Macro.Good_space.t t

(** {1 The per-macro analysis payload}

    Everything {!Pipeline.analyze} computes for one macro except the
    macro value itself (a bundle of closures — the caller re-attaches
    it) and wall-clock timings (which a warm run did not spend).
    This record {e is} the result cache's payload. *)

type analysis = {
  sprinkled : int;
  effective : int;
  good : Macro.Good_space.t;
  classes_catastrophic : Fault.Collapse.fault_class list;
  classes_non_catastrophic : Fault.Collapse.fault_class list;
  outcomes_catastrophic : Macro.Evaluate.outcome list;
  outcomes_non_catastrophic : Macro.Evaluate.outcome list;
}

val analysis : analysis t
val analysis_to_json : analysis -> Util.Json.t
val analysis_of_json : analysis decoder

(** {1 Checkpoint partial payloads}

    The incremental-checkpoint schema (see [Checkpoint]): a flat list of
    completed fault-class outcomes, each tagged with the evaluation
    [section] it belongs to (["cat"] / ["ncat"]) and its class [index]
    within that section. Persisted through [Util.Cache] under the
    macro's cache key suffixed ["-partial"], so it inherits the cache's
    envelope versioning, atomic rename and degraded-write containment. *)

type partial_outcome = {
  section : string;
  index : int;
  outcome : Macro.Evaluate.outcome;
}

val partial_outcomes : partial_outcome list t
val partial_outcomes_to_json : partial_outcome list -> Util.Json.t
val partial_outcomes_of_json : partial_outcome list decoder

(** {1 Fingerprints}

    Stable content fingerprints of the inputs a per-macro result depends
    on. Two values with equal fingerprints produce identical analyses;
    anything a fingerprint cannot observe (a macro's [measure] or
    [classify_voltage] closure) is covered by {!version} instead —
    change those semantics, bump the version. *)

val tech_fingerprint : Process.Tech.t -> string
val stats_fingerprint : Process.Defect_stats.t -> string

(** [netlist_fingerprint nl] digests the full structural content:
    devices with element values, waveform views, MOSFET geometry and
    model parameters, and pin-to-node wiring. Two macros sharing a name
    but differing in any device (e.g. the comparator with and without
    the leaky flipflop) fingerprint differently. *)
val netlist_fingerprint : Circuit.Netlist.t -> string

(** [cell_fingerprint cell] is {!Layout.Cell.fingerprint}: the digest of
    the cell's name and shape list, computed once per cell value. A
    service that keeps its macros therefore spells a layout out once,
    not on every lookup. *)
val cell_fingerprint : Layout.Cell.t -> string

(** {1 The request/response wire format}

    The versioned JSON protocol spoken by [dotest serve] and its
    clients (newline-delimited, one value per line). {!api_version}
    stamps every request and response; it is independent of {!version}
    — the wire protocol and the cache payloads have separate
    lifecycles. Decoders are total like everything else here: malformed
    wire bytes decode to [Error], which the service turns into a
    structured [bad_request] response, never a crash.

    A minimal request is [{"api":"dotest-api/1","target":"global"}] —
    every other request field is optional and defaults to the matching
    {!Request.default} value. *)

(** The wire-protocol version: ["dotest-api/1"]. *)
val api_version : string

(** Deadline limits as carried inside requests
    ([{"wall_seconds": float|null, "max_iterations": int|null}]). *)
val limits : Util.Watchdog.limits t

(** Rejects a missing or non-matching ["api"] stamp; validates member
    shapes and basic ranges (non-negative defect count, positive die
    count). *)
val request : Request.t t

val request_to_json : Request.t -> Util.Json.t
val request_of_json : Request.t decoder
val response : Request.response t
val response_to_json : Request.response -> Util.Json.t
val response_of_json : Request.response decoder

(** {1 Rendered-report surface} *)

(** [table_to_json t] — array of row objects keyed by column title (the
    [`Json] report format). *)
val table_to_json : Util.Table.t -> Util.Json.t
