type value = Int of int | Float of float | Bool of bool | String of string

type attrs = (string * value) list

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

type sink = { emit : event -> unit; flush : unit -> unit }

let null = { emit = ignore; flush = ignore }

let is_null sink = sink == null

let multi = function
  | [] -> null
  | [ sink ] -> sink
  | sinks ->
    {
      emit = (fun e -> List.iter (fun s -> s.emit e) sinks);
      flush = (fun () -> List.iter (fun s -> s.flush ()) sinks);
    }

(* --- ambient sink ------------------------------------------------------ *)

let ambient = Atomic.make null

let enabled () = not (is_null (Atomic.get ambient))

(* --- per-domain state -------------------------------------------------- *)

(* Innermost-first stack of open spans. The attrs ref collects attributes
   added while the span is open; it is only meaningful on the domain that
   opened the span (a worker seeded with a parent id gets a throwaway
   ref). *)
let span_stack : (int * attrs ref) list Domain.DLS.key =
  Domain.DLS.new_key (fun () -> [])

(* Counter deltas buffered per domain: the hot paths (Newton iterations,
   PRNG draws) increment a plain hashtable without any synchronization;
   the buffer is flushed to the sink at span boundaries. *)
let counter_table : (string, int) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 32)

let current_span () =
  match Domain.DLS.get span_stack with (id, _) :: _ -> Some id | [] -> None

(* Emit the buffered deltas (sorted by name, so one flush is a stable
   block in a trace) attributed to [span], then reset the buffer. *)
let flush_buffer ~span =
  let s = Atomic.get ambient in
  if not (is_null s) then begin
    let table = Domain.DLS.get counter_table in
    if Hashtbl.length table > 0 then begin
      let entries = Hashtbl.fold (fun k v acc -> (k, v) :: acc) table [] in
      Hashtbl.reset table;
      List.iter
        (fun (name, delta) -> s.emit (Counter { name; delta; span }))
        (List.sort compare entries)
    end
  end

let flush_local () = flush_buffer ~span:(current_span ())

(* --- instrumentation --------------------------------------------------- *)

let next_span_id = Atomic.make 1

let with_span ?(attrs = []) name f =
  let s = Atomic.get ambient in
  if is_null s then f ()
  else begin
    let parent = current_span () in
    (* Counts buffered so far belong to the enclosing region, not to the
       span that is about to open. *)
    flush_buffer ~span:parent;
    let id = Atomic.fetch_and_add next_span_id 1 in
    s.emit (Span_start { id; parent; name; wall = Unix.gettimeofday () });
    let span_attrs = ref attrs in
    Domain.DLS.set span_stack ((id, span_attrs) :: Domain.DLS.get span_stack);
    let t0 = Monotonic_clock.now () in
    let finish ~error =
      let duration_ns = Int64.sub (Monotonic_clock.now ()) t0 in
      flush_buffer ~span:(Some id);
      (match Domain.DLS.get span_stack with
      | (top, _) :: rest when top = id -> Domain.DLS.set span_stack rest
      | _ -> () (* unbalanced nesting: leave the stack alone *));
      let attrs =
        if error then !span_attrs @ [ "error", Bool true ] else !span_attrs
      in
      s.emit
        (Span_end
           { id; parent; name; attrs; wall = Unix.gettimeofday (); duration_ns })
    in
    match f () with
    | v ->
      finish ~error:false;
      v
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      finish ~error:true;
      Printexc.raise_with_backtrace e bt
  end

let add_span_attrs attrs =
  if enabled () then
    match Domain.DLS.get span_stack with
    | (_, span_attrs) :: _ -> span_attrs := !span_attrs @ attrs
    | [] -> ()

(* Per-domain mute flag: counters and gauges recorded inside a
   [silenced] extent are dropped. Work whose *occurrence count* depends
   on scheduling (e.g. the per-worker shared-nominal derivations in
   [Circuit.Engine]) runs under it so counter totals stay byte-identical
   for any [--jobs] value. *)
let muted : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

let silenced f =
  let saved = Domain.DLS.get muted in
  Domain.DLS.set muted true;
  Fun.protect ~finally:(fun () -> Domain.DLS.set muted saved) f

let count ?(by = 1) name =
  if enabled () && not (Domain.DLS.get muted) then begin
    let table = Domain.DLS.get counter_table in
    match Hashtbl.find_opt table name with
    | Some current -> Hashtbl.replace table name (current + by)
    | None -> Hashtbl.add table name by
  end

let gauge name value =
  if not (Domain.DLS.get muted) then begin
    let s = Atomic.get ambient in
    if not (is_null s) then
      s.emit (Gauge { name; value; span = current_span () })
  end

let in_span parent f =
  if not (enabled ()) then f ()
  else begin
    let saved = Domain.DLS.get span_stack in
    Domain.DLS.set span_stack
      (match parent with Some id -> [ id, ref [] ] | None -> []);
    Fun.protect
      ~finally:(fun () ->
        flush_buffer ~span:parent;
        Domain.DLS.set span_stack saved)
      f
  end

let with_sink sink f =
  let saved = Atomic.get ambient in
  Atomic.set ambient sink;
  Fun.protect
    ~finally:(fun () ->
      flush_buffer ~span:(current_span ());
      sink.flush ();
      Atomic.set ambient saved)
    f

(* --- in-memory sink ---------------------------------------------------- *)

module Metrics = struct
  type t = { counters : (string * int) list; gauges : (string * float) list }

  let empty = { counters = []; gauges = [] }
end

type memory = {
  mutex : Mutex.t;
  counters : (string, int) Hashtbl.t;
  gauges : (string, float) Hashtbl.t;
}

let in_memory () =
  { mutex = Mutex.create (); counters = Hashtbl.create 32; gauges = Hashtbl.create 8 }

let memory_sink memory =
  {
    emit =
      (function
      | Counter { name; delta; _ } ->
        Mutex.protect memory.mutex (fun () ->
            match Hashtbl.find_opt memory.counters name with
            | Some total -> Hashtbl.replace memory.counters name (total + delta)
            | None -> Hashtbl.add memory.counters name delta)
      | Gauge { name; value; _ } ->
        (* High-water mark: max is commutative, so the aggregate is
           independent of worker scheduling. *)
        Mutex.protect memory.mutex (fun () ->
            match Hashtbl.find_opt memory.gauges name with
            | Some current when current >= value -> ()
            | Some _ | None -> Hashtbl.replace memory.gauges name value)
      | Span_start _ | Span_end _ -> ());
    flush = ignore;
  }

let metrics memory =
  Mutex.protect memory.mutex (fun () ->
      let sorted fold table =
        List.sort compare (fold (fun k v acc -> (k, v) :: acc) table [])
      in
      {
        Metrics.counters = sorted Hashtbl.fold memory.counters;
        gauges = sorted Hashtbl.fold memory.gauges;
      })

(* --- JSONL sink -------------------------------------------------------- *)

let json_of_value = function
  | Int i -> Json.Int i
  | Float v -> Json.Float v
  | Bool b -> Json.Bool b
  | String s -> Json.String s

let value_of_json = function
  | Json.Int i -> Ok (Int i)
  | Json.Float v -> Ok (Float v)
  | Json.Bool b -> Ok (Bool b)
  | Json.String s -> Ok (String s)
  | Json.Null | Json.List _ | Json.Obj _ -> Error "bad attribute value"

let json_of_opt = function Some id -> Json.Int id | None -> Json.Null

let event_to_json = function
  | Span_start { id; parent; name; wall } ->
    Json.Obj
      [
        "type", Json.String "span_start";
        "id", Json.Int id;
        "parent", json_of_opt parent;
        "name", Json.String name;
        "wall", Json.Float wall;
      ]
  | Span_end { id; parent; name; attrs; wall; duration_ns } ->
    Json.Obj
      [
        "type", Json.String "span_end";
        "id", Json.Int id;
        "parent", json_of_opt parent;
        "name", Json.String name;
        "wall", Json.Float wall;
        "duration_ns", Json.Int (Int64.to_int duration_ns);
        ( "attrs",
          Json.Obj (List.map (fun (k, v) -> k, json_of_value v) attrs) );
      ]
  | Counter { name; delta; span } ->
    Json.Obj
      [
        "type", Json.String "counter";
        "name", Json.String name;
        "delta", Json.Int delta;
        "span", json_of_opt span;
      ]
  | Gauge { name; value; span } ->
    Json.Obj
      [
        "type", Json.String "gauge";
        "name", Json.String name;
        "value", Json.Float value;
        "span", json_of_opt span;
      ]

let event_of_json v =
  let ( let* ) r f = Result.bind r f in
  let field name coerce =
    match Option.bind (Json.member name v) coerce with
    | Some x -> Ok x
    | None -> Error (Printf.sprintf "missing or bad field %S" name)
  in
  let opt_id name =
    match Json.member name v with
    | Some Json.Null | None -> Ok None
    | Some (Json.Int id) -> Ok (Some id)
    | Some _ -> Error (Printf.sprintf "bad field %S" name)
  in
  let* kind = field "type" Json.to_str in
  match kind with
  | "span_start" ->
    let* id = field "id" Json.to_int in
    let* parent = opt_id "parent" in
    let* name = field "name" Json.to_str in
    let* wall = field "wall" Json.to_float in
    Ok (Span_start { id; parent; name; wall })
  | "span_end" ->
    let* id = field "id" Json.to_int in
    let* parent = opt_id "parent" in
    let* name = field "name" Json.to_str in
    let* wall = field "wall" Json.to_float in
    let* duration = field "duration_ns" Json.to_int in
    let* attr_fields = field "attrs" Json.to_obj in
    let* attrs =
      List.fold_right
        (fun (k, v) acc ->
          let* acc = acc in
          let* v = value_of_json v in
          Ok ((k, v) :: acc))
        attr_fields (Ok [])
    in
    Ok
      (Span_end
         { id; parent; name; attrs; wall; duration_ns = Int64.of_int duration })
  | "counter" ->
    let* name = field "name" Json.to_str in
    let* delta = field "delta" Json.to_int in
    let* span = opt_id "span" in
    Ok (Counter { name; delta; span })
  | "gauge" ->
    let* name = field "name" Json.to_str in
    let* value = field "value" Json.to_float in
    let* span = opt_id "span" in
    Ok (Gauge { name; value; span })
  | other -> Error (Printf.sprintf "unknown event type %S" other)

let jsonl oc =
  let mutex = Mutex.create () in
  {
    emit =
      (fun event ->
        let line = Json.to_string (event_to_json event) in
        Mutex.protect mutex (fun () ->
            output_string oc line;
            output_char oc '\n'));
    flush = (fun () -> Mutex.protect mutex (fun () -> flush oc));
  }
