(* One execution lane, many admission threads. The domain pool and the
   telemetry span stacks are process resources seeded from the
   orchestrating domain, so analyses are serialized on [exec]; system
   threads only admit, coalesce, wait and do socket I/O. *)

type outcome =
  | Tables of {
      tables : Request.table list;
      cache_hits : int;
      cache_misses : int;
      evaluate_seconds : float;
    }
  | Failed of Request.error_code * string

type flight = {
  mutable done_ : bool;
  mutable outcome : outcome option;
  mutable attachers : int;
}

type stats = {
  submitted : int;
  completed : int;
  failed : int;
  shed : int;
  coalesced : int;
  cache_hits : int;
  cache_misses : int;
}

type t = {
  cache_handle : Util.Cache.t option;
  telemetry : Util.Telemetry.sink;
  failure_budget : int option;
  max_pending : int;
  lock : Mutex.t;
  changed : Condition.t;  (* flight completion, drain entry *)
  flights : (string, flight) Hashtbl.t;  (* keyed by Request.fingerprint *)
  exec : Mutex.t;  (* the single execution lane *)
  (* By [dft], each with its class store; lane only. *)
  comparator : bool -> Macro.Macro_cell.t * Checkpoint.t;
  global_set : bool -> Macro.Macro_cell.t list * Checkpoint.t;
  mutable draining_ : bool;
  mutable s : stats;
}

(* Each DfT variant is built on first use and kept for the service's
   lifetime, with the layouts its macros synthesize and the cell
   fingerprints memoized on them: a warm hit then rebuilds neither. Its
   class store lives as long, so a miss re-simulates only the fault
   classes no earlier request met, nor any stored in the cache by an
   earlier process. Only the execution lane forces these. *)
let by_dft build =
  let kept d = lazy (build d, Checkpoint.create ~resume:true ()) in
  let plain = kept false and dft = kept true in
  fun d -> Lazy.force (if d then dft else plain)

let create ?cache ?jobs ?(telemetry = Util.Telemetry.null) ?failure_budget
    ?(max_pending = 16) () =
  Option.iter Util.Pool.set_jobs jobs;
  {
    cache_handle = cache;
    telemetry;
    failure_budget;
    max_pending = max 1 max_pending;
    lock = Mutex.create ();
    changed = Condition.create ();
    flights = Hashtbl.create 16;
    exec = Mutex.create ();
    comparator =
      by_dft (fun dft ->
          Adc.Comparator.macro
            (if dft then Adc.Comparator.dft_options
             else Adc.Comparator.default_options));
    global_set =
      by_dft (fun dft ->
          Dft.Measures.macro_set
            ~measures:(if dft then Dft.Measures.all_measures else []));
    draining_ = false;
    s =
      {
        submitted = 0;
        completed = 0;
        failed = 0;
        shed = 0;
        coalesced = 0;
        cache_hits = 0;
        cache_misses = 0;
      };
  }

let cache t = t.cache_handle

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let stats t = locked t (fun () -> t.s)
let draining t = locked t (fun () -> t.draining_)

let initiate_shutdown t =
  locked t (fun () ->
      t.draining_ <- true;
      Condition.broadcast t.changed)

let drain t =
  locked t (fun () ->
      while Hashtbl.length t.flights > 0 do
        Condition.wait t.changed t.lock
      done)

(* --- one analysis ------------------------------------------------------- *)

let config_of t (r : Request.t) =
  Pipeline.Config.(
    default |> with_defects r.defects |> with_good_space_dies r.good_space_dies
    |> with_sigma r.sigma |> with_seed r.seed |> with_max_retries r.max_retries
    |> with_strict r.strict
    |> with_failure_budget t.failure_budget
    |> with_inject_failures r.inject_failures
    |> with_cache_handle t.cache_handle
    |> with_deadline r.deadline
    |> with_solver r.solver)

(* The deterministic artefacts of a request: the tables the CLI prints
   for the equivalent invocation ({!Report.macro_tables} /
   {!Report.global_tables}). Execution-dependent output — cache stats,
   run survival, metrics — is deliberately not a table; its serve-side
   analogues are the reply counters and telemetry. *)
let tables_of t config (r : Request.t) =
  let with_store store = Pipeline.Config.with_checkpoint (Some store) config in
  let tables =
    match r.target with
    | Request.Comparator { dft } ->
      let macro, store = t.comparator dft in
      Report.macro_tables (Pipeline.analyze (with_store store) macro)
    | Request.Global { dft } ->
      let macros, store = t.global_set dft in
      Report.global_tables ~dft (Pipeline.analyze_all (with_store store) macros)
  in
  List.map
    (fun (title, table) ->
      { Request.title; body = Report.render ~format:r.format table })
    tables

let rec root_cause = function
  | Util.Pool.Worker_failure (_, e) -> root_cause e
  | e -> e

(* Runs on the execution lane; must never raise — the daemon's liveness
   depends on every failure mode ending as a structured outcome. *)
let execute t ~queue_seconds (r : Request.t) =
  let cache_stats () =
    match t.cache_handle with
    | Some c -> Util.Cache.stats c
    | None -> Util.Cache.no_stats
  in
  let before = cache_stats () in
  let fail code cause = Failed (code, Printexc.to_string cause) in
  let contained cause =
    match root_cause cause with
    | Util.Watchdog.Interrupted reason ->
      Failed (Request.Shutting_down, "interrupted: " ^ reason)
    | Pipeline.Budget_exhausted _ as e ->
      fail Request.Budget_exhausted e
    | Macro.Evaluate.Simulation_failed _ as e ->
      fail Request.Simulation_failed e
    | e -> fail Request.Internal_error e
  in
  Util.Telemetry.with_sink t.telemetry @@ fun () ->
  Util.Telemetry.with_span "service.request"
    ~attrs:
      [
        "target", Util.Telemetry.String (Request.target_name r.target);
        "queue_seconds", Util.Telemetry.Float queue_seconds;
      ]
  @@ fun () ->
  let started = Util.Watchdog.now_seconds () in
  let result =
    (* The pipeline reports to the sink installed above. *)
    try Ok (tables_of t (config_of t r) r) with e -> Error e
  in
  let evaluate_seconds = Util.Watchdog.now_seconds () -. started in
  let after = cache_stats () in
  let cache_hits = after.Util.Cache.hits - before.Util.Cache.hits in
  let cache_misses = after.Util.Cache.misses - before.Util.Cache.misses in
  Util.Telemetry.add_span_attrs
    [
      "evaluate_seconds", Util.Telemetry.Float evaluate_seconds;
      "cache_hits", Util.Telemetry.Int cache_hits;
      "cache_misses", Util.Telemetry.Int cache_misses;
      "ok", Util.Telemetry.Bool (Result.is_ok result);
    ];
  match result with
  | Ok tables -> Tables { tables; cache_hits; cache_misses; evaluate_seconds }
  | Error cause -> contained cause

(* --- admission, coalescing, shedding ------------------------------------ *)

let error ?(retry_after = None) ~id code message : Request.response =
  Error { Request.error_id = id; code; message; retry_after }

let response_of_outcome ~id ~coalesced ~queue_seconds = function
  | Tables { tables; cache_hits; cache_misses; evaluate_seconds } ->
    Ok
      {
        Request.reply_id = id;
        tables;
        cache_hits;
        cache_misses;
        coalesced;
        queue_seconds;
        evaluate_seconds;
      }
  | Failed (code, message) -> error ~id code message

let bump t f = locked t (fun () -> t.s <- f t.s)

let submit t (r : Request.t) : Request.response =
  let enqueued = Util.Watchdog.now_seconds () in
  bump t (fun s -> { s with submitted = s.submitted + 1 });
  Mutex.lock t.lock;
  if t.draining_ then begin
    t.s <- { t.s with failed = t.s.failed + 1 };
    Mutex.unlock t.lock;
    error ~id:r.id Request.Shutting_down
      "service is draining; no new analyses are admitted"
  end
  else
    let key = Request.fingerprint r in
    match Hashtbl.find_opt t.flights key with
    | Some flight ->
      (* Identical work is already queued or running: attach and get the
         same tables, computed once. *)
      flight.attachers <- flight.attachers + 1;
      while not flight.done_ do
        Condition.wait t.changed t.lock
      done;
      t.s <- { t.s with coalesced = t.s.coalesced + 1 };
      Mutex.unlock t.lock;
      let queue_seconds = Util.Watchdog.now_seconds () -. enqueued in
      response_of_outcome ~id:r.id ~coalesced:true ~queue_seconds
        (Option.get flight.outcome)
    | None ->
      if Hashtbl.length t.flights >= t.max_pending then begin
        t.s <- { t.s with shed = t.s.shed + 1 };
        let retry_after = Some (0.5 *. float_of_int t.max_pending) in
        Mutex.unlock t.lock;
        error ~retry_after ~id:r.id Request.Overloaded
          (Printf.sprintf "%d analyses already pending; try again later"
             t.max_pending)
      end
      else begin
        let flight = { done_ = false; outcome = None; attachers = 0 } in
        Hashtbl.add t.flights key flight;
        Mutex.unlock t.lock;
        (* [execute]'s never-raises contract is defence in depth, not a
           liveness assumption: the catch-all below plus the two
           [Fun.protect]s guarantee that whatever escapes, the exec lane
           unlocks and the flight completes — otherwise one escaped
           exception would wedge every later submit, all coalesced
           attachers, and drain, forever. *)
        let queue_seconds = ref (Util.Watchdog.now_seconds () -. enqueued) in
        let outcome =
          ref (Failed (Request.Internal_error, "analysis aborted before completion"))
        in
        Fun.protect
          ~finally:(fun () ->
            locked t (fun () ->
                flight.outcome <- Some !outcome;
                flight.done_ <- true;
                Hashtbl.remove t.flights key;
                (t.s <-
                   (match !outcome with
                   | Tables { cache_hits; cache_misses; _ } ->
                     {
                       t.s with
                       completed = t.s.completed + 1;
                       cache_hits = t.s.cache_hits + cache_hits;
                       cache_misses = t.s.cache_misses + cache_misses;
                     }
                   | Failed _ -> { t.s with failed = t.s.failed + 1 }));
                Condition.broadcast t.changed))
          (fun () ->
            Mutex.lock t.exec;
            Fun.protect ~finally:(fun () -> Mutex.unlock t.exec) @@ fun () ->
            queue_seconds := Util.Watchdog.now_seconds () -. enqueued;
            outcome :=
              (try execute t ~queue_seconds:!queue_seconds r
               with e ->
                 Failed
                   ( Request.Internal_error,
                     "uncontained exception: " ^ Printexc.to_string e )));
        response_of_outcome ~id:r.id ~coalesced:false
          ~queue_seconds:!queue_seconds !outcome
      end

(* --- the wire ----------------------------------------------------------- *)

let handle_line t line =
  let response =
    match Util.Json.of_string line with
    | Error msg ->
      error ~id:None Request.Bad_request ("malformed JSON: " ^ msg)
    | Ok json -> (
      (* Echo the client's correlation id even when the rest of the
         request does not decode. *)
      let id = Option.bind (Util.Json.member "id" json) Util.Json.to_str in
      match Codec.request_of_json json with
      | Ok request -> submit t request
      | Error msg ->
        let code =
          if
            String.length msg >= 11
            && String.sub msg 0 11 = "unsupported"
          then Request.Unsupported_version
          else Request.Bad_request
        in
        error ~id code msg)
  in
  Util.Json.to_string (Codec.response_to_json response)

(* --- the socket server -------------------------------------------------- *)

type address = Unix_socket of string | Tcp of string * int

let address_to_string = function
  | Unix_socket path -> "unix:" ^ path
  | Tcp (host, port) -> Printf.sprintf "%s:%d" host port

let address_of_string s =
  let prefixed prefix =
    let n = String.length prefix in
    if String.length s > n && String.sub s 0 n = prefix then
      Some (String.sub s n (String.length s - n))
    else None
  in
  match prefixed "unix:" with
  | Some path -> Ok (Unix_socket path)
  | None when String.contains s '/' ->
    (* Anything with a '/' is a socket path (the .mli contract), even if
       it also contains a ':' — never parsed as HOST:PORT. *)
    Ok (Unix_socket s)
  | None -> (
    match String.rindex_opt s ':' with
    | None -> Ok (Unix_socket s)
    | Some i -> (
      let host = String.sub s 0 i in
      let port = String.sub s (i + 1) (String.length s - i - 1) in
      match int_of_string_opt port with
      | Some p when p >= 0 && p < 65536 ->
        Ok (Tcp ((if host = "" then "127.0.0.1" else host), p))
      | _ ->
        Error
          (Printf.sprintf
             "cannot parse %S as unix:PATH, a socket path, or HOST:PORT" s)))

(* Strict: a typo'd host must error, not silently become loopback. *)
let resolve_host host =
  match (Unix.gethostbyname host).Unix.h_addr_list with
  | [||] -> failwith (Printf.sprintf "host %S resolves to no addresses" host)
  | addrs -> addrs.(0)
  | exception Not_found ->
    failwith (Printf.sprintf "cannot resolve host %S" host)

let connect = function
  | Unix_socket path ->
    let s = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect s (Unix.ADDR_UNIX path);
    s
  | Tcp (host, port) ->
    let addr = resolve_host host in
    let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.connect s (Unix.ADDR_INET (addr, port));
    s

let call address (r : Request.t) : Request.response =
  let client_error message =
    Error
      { Request.error_id = r.id; code = Internal_error; message; retry_after = None }
  in
  match connect address with
  | exception Unix.Unix_error (e, _, _) ->
    client_error
      (Printf.sprintf "cannot connect to %s: %s" (address_to_string address)
         (Unix.error_message e))
  | exception Failure msg -> client_error msg
  | fd ->
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    @@ fun () ->
    let oc = Unix.out_channel_of_descr fd in
    let ic = Unix.in_channel_of_descr fd in
    output_string oc (Util.Json.to_string (Codec.request_to_json r));
    output_char oc '\n';
    flush oc;
    match input_line ic with
    | exception End_of_file ->
      client_error "connection closed before a response arrived"
    | line -> (
      match
        Result.bind (Util.Json.of_string line) Codec.response_of_json
      with
      | Ok response -> response
      | Error msg -> client_error ("undecodable response: " ^ msg))

let handle_connection t fd =
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  (try
     let rec loop () =
       let line = input_line ic in
       if String.trim line <> "" then begin
         output_string oc (handle_line t line);
         output_char oc '\n';
         flush oc
       end;
       loop ()
     in
     loop ()
   with End_of_file | Sys_error _ | Unix.Unix_error _ -> ());
  close_in_noerr ic

let serve ?on_ready ?(poll = fun () -> ()) t address =
  (* A client that disconnects before its response line is written must
     surface as EPIPE (caught in handle_connection), not as SIGPIPE's
     default disposition, which would kill the whole daemon. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  let sock, bound, cleanup =
    match address with
    | Unix_socket path ->
      (try Unix.unlink path with Unix.Unix_error _ -> ());
      let s = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind s (Unix.ADDR_UNIX path);
      ( s,
        Unix_socket path,
        fun () -> try Unix.unlink path with Unix.Unix_error _ -> () )
    | Tcp (host, port) ->
      let addr = resolve_host host in
      let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt s Unix.SO_REUSEADDR true;
      Unix.bind s (Unix.ADDR_INET (addr, port));
      let bound =
        match Unix.getsockname s with
        | Unix.ADDR_INET (a, p) -> Tcp (Unix.string_of_inet_addr a, p)
        | _ -> Tcp (host, port)
      in
      s, bound, fun () -> ()
  in
  Unix.listen sock 64;
  Option.iter (fun f -> f bound) on_ready;
  let stop () =
    poll ();
    draining t || Util.Watchdog.shutdown_requested ()
  in
  (* A transient accept failure (ECONNABORTED; EMFILE under
     thread-per-connection; EINTR) must not kill the loop — log, back
     off briefly so fd exhaustion cannot spin it hot, keep accepting. *)
  let accept_once () =
    match Unix.accept sock with
    | fd, _ -> ignore (Thread.create (handle_connection t) fd)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error (e, _, _) ->
      Printf.eprintf "dotest serve: accept: %s\n%!" (Unix.error_message e);
      Thread.delay 0.05
  in
  (* Poll-accept so a drain request is noticed within a quarter second
     even with no connection traffic. *)
  let rec accept_loop () =
    if not (stop ()) then begin
      (match Unix.select [ sock ] [] [] 0.25 with
      | [], _, _ -> ()
      | _ -> accept_once ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      accept_loop ()
    end
  in
  accept_loop ();
  (try Unix.close sock with Unix.Unix_error _ -> ());
  cleanup ();
  initiate_shutdown t;
  (* Drain while still polling: a second signal arriving mid-drain must
     be able to escalate to the watchdog from this thread. *)
  let rec drain_loop () =
    poll ();
    if locked t (fun () -> Hashtbl.length t.flights > 0) then begin
      Thread.delay 0.1;
      drain_loop ()
    end
  in
  drain_loop ()
