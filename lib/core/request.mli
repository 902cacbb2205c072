(** One analysis request as a first-class value.

    The paper's macro-decomposed methodology makes each analysis — a
    netlist/tech/test-parameter bundle — an independent, cacheable unit.
    This module is the per-request half of the {!Service}/[Request] split
    of the public API: everything that varies between two analyses lives
    here (target, defect counts, sigma, seed, solver, deadlines, output
    format), while everything shared by a whole process — cache handle,
    domain pool, telemetry sink, failure budget — lives in {!Service}.

    A request is plain data: no closures, no handles. That is what makes
    it serializable ({!Codec.request_to_json} /
    {!Codec.request_of_json} give it the versioned [dotest-api/1] wire
    format) and content-addressable ({!fingerprint} — two requests with
    equal fingerprints demand byte-identical tables, which is how the
    service coalesces duplicate in-flight work). *)

(** What to analyse. The macro sets themselves are code (bundles of
    closures), so the wire format names them instead of shipping them:
    [Comparator] is the single-macro path of the paper's Tables 1–3 /
    Fig. 3, [Global] the five-macro run with the global scaling step
    (Fig. 4, or Fig. 5 with [dft] applying both DfT measures). *)
type target = Comparator of { dft : bool } | Global of { dft : bool }

type format = [ `Text | `Json | `Csv ]

type t = {
  id : string option;
      (** client correlation id, echoed verbatim in the response and
          excluded from {!fingerprint} *)
  target : target;
  defects : int;
  good_space_dies : int;
  sigma : float;
  seed : int;
  max_retries : int;
  strict : bool;
  inject_failures : float option;
  deadline : Util.Watchdog.limits option;
  solver : Circuit.Engine.solver;
  format : format;  (** rendering of the response tables *)
}

(** Same numeric defaults as {!Pipeline.Config.default}; target
    [Global { dft = false }], text format, no id. *)
val default : t

val with_id : string option -> t -> t
val with_target : target -> t -> t
val with_defects : int -> t -> t
val with_good_space_dies : int -> t -> t
val with_sigma : float -> t -> t
val with_seed : int -> t -> t
val with_max_retries : int -> t -> t
val with_strict : bool -> t -> t
val with_inject_failures : float option -> t -> t
val with_deadline : Util.Watchdog.limits option -> t -> t
val with_solver : Circuit.Engine.solver -> t -> t
val with_format : format -> t -> t

(** ["comparator"] / ["global"] — the wire spelling of a target (the
    [dft] flag travels separately). *)
val target_name : target -> string

(** ["text"] / ["json"] / ["csv"]. *)
val format_name : format -> string

val all_formats : format list

val target_of_name : name:string -> dft:bool -> (target, string) result

(** Content address of the work a request demands: every field except
    [id]. Requests with equal fingerprints produce byte-identical
    response tables (same determinism contract as the result cache), so
    the service computes one of them and duplicates the answer. *)
val fingerprint : t -> string

(** {1 Responses} *)

(** One rendered report artefact: the [title] the CLI prints between
    [== … ==] markers and the table [body] rendered in the request's
    format. The tables of a response are byte-identical to the
    equivalent CLI run's — that is the serve-vs-CLI contract tested in
    CI. *)
type table = { title : string; body : string }

(** The successful payload. [tables] is the deterministic artefact list
    (coverage, health, bounds — never cache stats or wall-clock
    tables); everything else describes how this particular execution
    went and is excluded from byte-identity comparisons. *)
type reply = {
  reply_id : string option;  (** the request's [id], echoed *)
  tables : table list;
  cache_hits : int;  (** per-macro result-cache hits inside this request *)
  cache_misses : int;
  coalesced : bool;
      (** served from another in-flight request's computation *)
  queue_seconds : float;
      (** admission → execution start, on the monotonic clock *)
  evaluate_seconds : float;
      (** execution start → tables rendered, on the monotonic clock *)
}

(** Structured failure. Decoders never raise: malformed wire input
    becomes [Bad_request], an overloaded service sheds with [Overloaded]
    and a [retry_after] hint, a draining service answers
    [Shutting_down]. [Budget_exhausted] / [Simulation_failed] surface
    the pipeline's contained failure modes; [Internal_error] is the
    catch-all that keeps the daemon alive. *)
type error_code =
  | Bad_request
  | Unsupported_version
  | Overloaded
  | Shutting_down
  | Budget_exhausted
  | Simulation_failed
  | Internal_error

type error = {
  error_id : string option;
  code : error_code;
  message : string;
  retry_after : float option;
      (** seconds; only meaningful with [Overloaded] *)
}

type response = (reply, error) result

(** Stable wire spelling of an error code (["bad_request"], …). *)
val error_code_name : error_code -> string

(** All codes, for exhaustive round-trip tests. *)
val all_error_codes : error_code list
