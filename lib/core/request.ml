type target = Comparator of { dft : bool } | Global of { dft : bool }

type format = [ `Text | `Json | `Csv ]

type t = {
  id : string option;
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
  format : format;
}

(* The one place the per-analysis defaults are literals:
   [Pipeline.Config.default] reads them from here. [Pipeline] depends on
   [Request] through [Codec], so the opposite direction would be a
   dependency cycle. *)
let default =
  {
    id = None;
    target = Global { dft = false };
    defects = 25_000;
    good_space_dies = 48;
    sigma = 3.0;
    seed = 1995;
    max_retries = 1;
    strict = false;
    inject_failures = None;
    deadline = None;
    solver = Circuit.Engine.default_solver;
    format = `Text;
  }

let with_id id r = { r with id }
let with_target target r = { r with target }
let with_defects defects r = { r with defects }
let with_good_space_dies good_space_dies r = { r with good_space_dies }
let with_sigma sigma r = { r with sigma }
let with_seed seed r = { r with seed }
let with_max_retries max_retries r = { r with max_retries }
let with_strict strict r = { r with strict }
let with_inject_failures inject_failures r = { r with inject_failures }
let with_deadline deadline r = { r with deadline }
let with_solver solver r = { r with solver }
let with_format format r = { r with format }

let target_name = function Comparator _ -> "comparator" | Global _ -> "global"

let target_of_name ~name ~dft =
  match name with
  | "comparator" -> Ok (Comparator { dft })
  | "global" -> Ok (Global { dft })
  | other -> Error (Printf.sprintf "unknown target %S" other)

let format_name = function `Text -> "text" | `Json -> "json" | `Csv -> "csv"
let all_formats = [ `Text; `Json; `Csv ]

let inject_part = function
  | None -> "inject=none"
  | Some fraction -> Printf.sprintf "inject=%h" fraction

let deadline_part = function
  | None -> "deadline=none"
  | Some l ->
    Printf.sprintf "deadline=wall:%s,iters:%s"
      (match l.Util.Watchdog.wall_seconds with
      | None -> "none"
      | Some s -> Printf.sprintf "%h" s)
      (match l.Util.Watchdog.max_iterations with
      | None -> "none"
      | Some n -> string_of_int n)

(* Everything except [id], spelled with the same conventions as the
   pipeline's cache key (%h for floats, explicit none markers) so a
   fingerprint never aliases across field boundaries. *)
let fingerprint r =
  Util.Cache.fingerprint
    [
      "target=" ^ target_name r.target;
      (match r.target with
      | Comparator { dft } | Global { dft } -> Printf.sprintf "dft=%b" dft);
      Printf.sprintf "defects=%d" r.defects;
      Printf.sprintf "good_space_dies=%d" r.good_space_dies;
      Printf.sprintf "sigma=%h" r.sigma;
      Printf.sprintf "seed=%d" r.seed;
      Printf.sprintf "max_retries=%d" r.max_retries;
      Printf.sprintf "strict=%b" r.strict;
      inject_part r.inject_failures;
      deadline_part r.deadline;
      "solver=" ^ Circuit.Engine.solver_name r.solver;
      "format=" ^ format_name r.format;
    ]

(* --- responses --------------------------------------------------------- *)

type table = { title : string; body : string }

type reply = {
  reply_id : string option;
  tables : table list;
  cache_hits : int;
  cache_misses : int;
  coalesced : bool;
  queue_seconds : float;
  evaluate_seconds : float;
}

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
}

type response = (reply, error) result

let all_error_codes =
  [
    Bad_request;
    Unsupported_version;
    Overloaded;
    Shutting_down;
    Budget_exhausted;
    Simulation_failed;
    Internal_error;
  ]

let error_code_name = function
  | Bad_request -> "bad_request"
  | Unsupported_version -> "unsupported_version"
  | Overloaded -> "overloaded"
  | Shutting_down -> "shutting_down"
  | Budget_exhausted -> "budget_exhausted"
  | Simulation_failed -> "simulation_failed"
  | Internal_error -> "internal_error"
