let schema = "dotest-cache/1"

type stats = {
  hits : int;
  misses : int;
  stale : int;
  evictions : int;
  write_errors : int;
}

let no_stats =
  { hits = 0; misses = 0; stale = 0; evictions = 0; write_errors = 0 }

(* The LRU keeps decoded payloads keyed by content address; [tick] is a
   logical clock giving every touch a recency stamp. Guarded by one
   mutex — lookups are rare (once per macro per run) so contention is
   irrelevant, and the handle must be safe from pool worker domains. *)
type entry = { payload : Json.t; mutable last_used : int }

type t = {
  cache_dir : string;
  version : string;
  capacity : int;
  lock : Mutex.t;
  lru : (string, entry) Hashtbl.t;
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
  mutable stale : int;
  mutable evictions : int;
  mutable write_errors : int;
  mutable warned_write : bool;
}

let rec mkdir_p path =
  if path = "" || path = "." || path = "/" || Sys.file_exists path then begin
    if path <> "" && Sys.file_exists path && not (Sys.is_directory path) then
      raise (Sys_error (path ^ ": not a directory"))
  end
  else begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let create ?(capacity = 128) ~dir ~version () =
  mkdir_p dir;
  {
    cache_dir = dir;
    version;
    capacity = max 1 capacity;
    lock = Mutex.create ();
    lru = Hashtbl.create 64;
    tick = 0;
    hits = 0;
    misses = 0;
    stale = 0;
    evictions = 0;
    write_errors = 0;
    warned_write = false;
  }

let dir t = t.cache_dir

let fingerprint parts =
  (* Length-prefix every part so component boundaries cannot alias. *)
  let buf = Buffer.create 256 in
  List.iter
    (fun part ->
      Buffer.add_string buf (string_of_int (String.length part));
      Buffer.add_char buf ':';
      Buffer.add_string buf part)
    parts;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let entry_path t key = Filename.concat t.cache_dir (key ^ ".json")

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* Callers may hold no counter-buffering span, so flush eagerly: cache
   traffic is far too cold for the buffering to matter. *)
let count t name =
  Telemetry.count ("cache." ^ name);
  Telemetry.flush_local ();
  match name with
  | "hits" -> t.hits <- t.hits + 1
  | "misses" -> t.misses <- t.misses + 1
  | "stale" -> t.stale <- t.stale + 1
  | "evictions" -> t.evictions <- t.evictions + 1
  | "write_errors" -> t.write_errors <- t.write_errors + 1
  | _ -> ()

(* Degraded mode: a cache that cannot be written (full disk, read-only
   directory, revoked permissions) must behave exactly like a cache that
   never hits — counted, warned about once, and otherwise silent. *)
let write_failed t ~what =
  count t "write_errors";
  if not t.warned_write then begin
    t.warned_write <- true;
    Printf.eprintf
      "dotest: cache write failed under %s (%s); continuing without \
       persistence\n\
       %!"
      t.cache_dir what
  end

let touch t key entry =
  t.tick <- t.tick + 1;
  entry.last_used <- t.tick;
  ignore key

(* Must be called with the lock held. *)
let insert t key payload =
  match Hashtbl.find_opt t.lru key with
  | Some entry -> touch t key entry
  | None ->
    if Hashtbl.length t.lru >= t.capacity then begin
      let victim =
        Hashtbl.fold
          (fun k e acc ->
            match acc with
            | Some (_, best) when best.last_used <= e.last_used -> acc
            | _ -> Some (k, e))
          t.lru None
      in
      match victim with
      | Some (k, _) ->
        Hashtbl.remove t.lru k;
        count t "evictions"
      | None -> ()
    end;
    t.tick <- t.tick + 1;
    Hashtbl.add t.lru key { payload; last_used = t.tick }

let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        match really_input_string ic (in_channel_length ic) with
        | contents -> Some contents
        | exception (End_of_file | Sys_error _) -> None)

(* Unwrap the envelope; any shape mismatch means a stale/corrupt entry. *)
let payload_of_entry t ~key contents =
  match Json.of_string contents with
  | Error _ -> None
  | Ok json ->
    let field name = Option.bind (Json.member name json) Json.to_str in
    if
      field "schema" = Some schema
      && field "version" = Some t.version
      && field "key" = Some key
    then Json.member "payload" json
    else None

(* [find] and [peek] share one lookup; only [find] tallies it. *)
let lookup t ~key ~counted =
  let tally name = if counted then count t name in
  locked t @@ fun () ->
  match Hashtbl.find_opt t.lru key with
  | Some entry ->
    touch t key entry;
    tally "hits";
    Some entry.payload
  | None ->
    let path = entry_path t key in
    (match read_file path with
    | None ->
      tally "misses";
      None
    | Some contents ->
      (match payload_of_entry t ~key contents with
      | Some payload ->
        insert t key payload;
        tally "hits";
        Some payload
      | None ->
        tally "stale";
        tally "misses";
        None))

let find t ~key = lookup t ~key ~counted:true
let peek t ~key = lookup t ~key ~counted:false

let store t ~key payload =
  let envelope =
    Json.Obj
      [
        "schema", Json.String schema;
        "version", Json.String t.version;
        "key", Json.String key;
        "payload", payload;
      ]
  in
  locked t @@ fun () ->
  insert t key payload;
  (* Atomic publication: write a sibling temp file, then rename. A failed
     write degrades to a cache that never hits — it must not fail the
     run. *)
  let tmp =
    Filename.concat t.cache_dir
      (Printf.sprintf ".tmp.%s.%d" key (Unix.getpid ()))
  in
  match open_out_bin tmp with
  | exception Sys_error what -> write_failed t ~what
  | oc ->
    let written =
      match
        output_string oc (Json.to_string envelope);
        output_char oc '\n';
        (* close_out surfaces the buffered-write errors that
           close_out_noerr would swallow — ENOSPC typically shows up
           here, not at output time. *)
        close_out oc
      with
      | () -> true
      | exception Sys_error what ->
        close_out_noerr oc;
        write_failed t ~what;
        false
    in
    if written then (
      try Sys.rename tmp (entry_path t key)
      with Sys_error what ->
        write_failed t ~what;
        (try Sys.remove tmp with Sys_error _ -> ()))
    else try Sys.remove tmp with Sys_error _ -> ()

let remove t ~key =
  locked t @@ fun () ->
  Hashtbl.remove t.lru key;
  try Sys.remove (entry_path t key) with Sys_error _ -> ()

let stats t =
  locked t @@ fun () ->
  {
    hits = t.hits;
    misses = t.misses;
    stale = t.stale;
    evictions = t.evictions;
    write_errors = t.write_errors;
  }
