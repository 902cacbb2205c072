exception Worker_failure of int * exn

let () =
  Printexc.register_printer (function
    | Worker_failure (index, e) ->
      Some
        (Printf.sprintf "Pool.Worker_failure: item %d raised %s" index
           (Printexc.to_string e))
    | _ -> None)

let default_jobs () =
  match Sys.getenv_opt "DOTEST_JOBS" with
  | Some s ->
    (match int_of_string_opt (String.trim s) with
    | Some n when n > 0 -> n
    | Some _ | None -> max 1 (Domain.recommended_domain_count () - 1))
  | None -> max 1 (Domain.recommended_domain_count () - 1)

(* 0 means "unset": fall back to [default_jobs] so the environment knob
   keeps working until the front end parses --jobs. *)
let configured = Atomic.make 0

let set_jobs n = Atomic.set configured (max 1 n)

let jobs () =
  match Atomic.get configured with 0 -> default_jobs () | n -> n

(* Workers flag their domain so nested combinators degrade to sequential
   maps instead of spawning domains under domains. *)
let inside_worker = Domain.DLS.new_key (fun () -> false)

let effective_jobs requested =
  if Domain.DLS.get inside_worker then 1
  else max 1 (match requested with Some n -> n | None -> jobs ())

(* Attribute a worker failure to its item: batch callers (thousands of
   fault classes) need to know which item blew up. *)
let apply_wrapped f i x =
  match f i x with
  | v -> v
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    Printexc.raise_with_backtrace (Worker_failure (i, e)) bt

(* Sequential execution with the same cancellation contract as the
   parallel path: a shutdown request stops the map before the next item
   (in-flight work, by construction, has already finished). *)
let sequential_mapi f xs =
  List.mapi
    (fun i x ->
      Watchdog.check_shutdown ();
      apply_wrapped f i x)
    xs

let parallel_mapi ?jobs:requested f xs =
  (* Pool bookkeeping counters are recorded on every execution path —
     sequential, degraded and parallel — so their totals are a function of
     the call structure only, never of the job count. *)
  (match xs with
  | [] -> ()
  | _ ->
    Telemetry.count "pool.maps";
    Telemetry.count ~by:(List.length xs) "pool.items");
  match xs with
  | [] -> []
  | [ x ] -> [ apply_wrapped f 0 x ]
  | _ ->
    let items = Array.of_list xs in
    let n = Array.length items in
    let workers = min (effective_jobs requested) n in
    if workers <= 1 then sequential_mapi f xs
    else begin
      let results = Array.make n None in
      let failures = Array.make n None in
      let next = Atomic.make 0 in
      (* Prompt cancellation: once any worker records a failure (or a
         shutdown is requested), no new items are dispatched — workers
         finish their in-flight item and stop. The exception that finally
         propagates is still deterministic: items are dispatched in index
         order, so when item [f] is the first to record a failure every
         index below [f] has already been dispatched and will drain —
         including the lowest-indexed failing item, which is the one
         re-raised below. *)
      let cancelled = Atomic.make false in
      Telemetry.with_span
        ~attrs:[ "items", Telemetry.Int n; "workers", Telemetry.Int workers ]
        "pool.map"
      @@ fun () ->
      (* Spans opened inside spawned workers nest under this map span;
         span durations give per-worker busy time, the map-span duration
         minus a worker's busy time is its queue/idle share. *)
      let map_span = Telemetry.current_span () in
      let worker_loop () =
        let processed = ref 0 in
        let rec loop () =
          if not (Atomic.get cancelled || Watchdog.shutdown_requested ())
          then begin
            let i = Atomic.fetch_and_add next 1 in
            if i < n then begin
              (match f i items.(i) with
              | v -> results.(i) <- Some v
              | exception e ->
                failures.(i) <- Some (e, Printexc.get_raw_backtrace ());
                Atomic.set cancelled true);
              incr processed;
              loop ()
            end
          end
        in
        loop ();
        Telemetry.add_span_attrs [ "items", Telemetry.Int !processed ]
      in
      let worker ~index () =
        Domain.DLS.set inside_worker true;
        Telemetry.with_span
          ~attrs:[ "worker", Telemetry.Int index ]
          "pool.worker" worker_loop
      in
      let spawned =
        Array.init (workers - 1) (fun i ->
            Domain.spawn (fun () ->
                Telemetry.in_span map_span (worker ~index:(i + 1))))
      in
      (* The calling domain works too; restore its flag afterwards so later
         top-level calls still parallelise. *)
      let was_inside = Domain.DLS.get inside_worker in
      Fun.protect
        ~finally:(fun () ->
          Domain.DLS.set inside_worker was_inside;
          Array.iter Domain.join spawned)
        (worker ~index:0);
      Array.iteri
        (fun i -> function
          | Some (e, bt) ->
            Printexc.raise_with_backtrace (Worker_failure (i, e)) bt
          | None -> ())
        failures;
      (* No failure was recorded; holes can only come from a shutdown
         request that stopped dispatch before every index ran. *)
      Array.to_list
        (Array.map
           (function
             | Some v -> v
             | None ->
               Watchdog.check_shutdown ();
               assert false (* every index ran, raised, or was cancelled *))
           results)
    end

let parallel_map ?jobs f xs = parallel_mapi ?jobs (fun _ x -> f x) xs

let chunk_ranges ~n ~chunk_size =
  if n < 0 then invalid_arg "Pool.chunk_ranges: n must be non-negative";
  if chunk_size <= 0 then
    invalid_arg "Pool.chunk_ranges: chunk_size must be positive";
  let rec build offset acc =
    if offset >= n then List.rev acc
    else
      let length = min chunk_size (n - offset) in
      build (offset + length) ((offset, length) :: acc)
  in
  build 0 []
