type stats = { restored : int; recorded : int }

(* One macro's classes in memory. [order] lists the class keys oldest
   first, so the oldest is the one evicted. *)
type slot = {
  mutable goldens : (Circuit.Engine.solver * Macro.Macro_cell.vector) list;
  classes : (string, Macro.Evaluate.measured) Hashtbl.t;
  order : string Queue.t;
}

type t = {
  resume : bool;
  interrupt_after : int option;
  capacity : int;
  lock : Mutex.t;
  slots : (string, slot) Hashtbl.t;
  restored_n : int Atomic.t;
  recorded_n : int Atomic.t;
}

let create ?(resume = false) ?interrupt_after ?(capacity = 4096) () =
  {
    resume;
    interrupt_after;
    capacity = max 1 capacity;
    lock = Mutex.create ();
    slots = Hashtbl.create 8;
    restored_n = Atomic.make 0;
    recorded_n = Atomic.make 0;
  }

let resume_enabled t = t.resume

let stats t =
  { restored = Atomic.get t.restored_n; recorded = Atomic.get t.recorded_n }

let size t =
  Mutex.protect t.lock (fun () ->
      Hashtbl.fold (fun _ s acc -> acc + Hashtbl.length s.classes) t.slots 0)

let src = Logs.Src.create "dotest.checkpoint" ~doc:"per-class result store"

module Log = (val Logs.src_log src : Logs.LOG)

(* Call under the lock. *)
let slot t macro =
  match Hashtbl.find_opt t.slots macro with
  | Some s -> s
  | None ->
    let s =
      { goldens = []; classes = Hashtbl.create 64; order = Queue.create () }
    in
    Hashtbl.add t.slots macro s;
    s

(* The golden is measured outside the lock: other macros' analyses
   may be reading their own slots meanwhile. *)
let golden t ~macro measure =
  let solver = Circuit.Engine.current_solver () in
  match
    Mutex.protect t.lock (fun () -> List.assoc_opt solver (slot t macro).goldens)
  with
  | Some g -> g
  | None ->
    let g = measure () in
    Mutex.protect t.lock (fun () ->
        let s = slot t macro in
        if not (List.mem_assoc solver s.goldens) then
          s.goldens <- (solver, g) :: s.goldens);
    g

(* Call under the lock. *)
let keep t s key m =
  if not (Hashtbl.mem s.classes key) then begin
    if Hashtbl.length s.classes >= t.capacity then
      Hashtbl.remove s.classes (Queue.pop s.order);
    Hashtbl.add s.classes key m;
    Queue.push key s.order
  end

(* An entry is used only for the fault it was stored for. An
   undecodable one is absent, as a corrupt cache entry is a miss: the
   store may only ever save work, never fail a run. *)
let read_back cache ~key (fc : Fault.Collapse.fault_class) =
  Option.bind (Util.Cache.peek cache ~key) @@ fun payload ->
  match Codec.class_entry.dec payload with
  | Ok (fault, m) when fault = fc.representative.Fault.Types.fault -> Some m
  | Ok _ -> None
  | Error e ->
    Log.warn (fun m -> m "undecodable class entry (%s): re-simulating" e);
    None

let evaluate t ~cache ~macro ~key f =
  let s = Mutex.protect t.lock (fun () -> slot t macro) in
  (* What this evaluation adds to memory, by class index. *)
  let added = Hashtbl.create 64 in
  let add index k m =
    Mutex.protect t.lock (fun () -> Hashtbl.replace added index (k, m))
  in
  let find ~index fc =
    let k = key ~index fc in
    let held = Mutex.protect t.lock (fun () -> Hashtbl.find_opt s.classes k) in
    let found =
      match held, cache with
      | Some m, _ -> Some m
      | None, Some cache when t.resume ->
        let m = read_back cache ~key:k fc in
        Option.iter (add index k) m;
        m
      | None, (Some _ | None) -> None
    in
    if Option.is_some found then Atomic.incr t.restored_n;
    found
  in
  let record ~index (fc : Fault.Collapse.fault_class) m =
    let k = key ~index fc in
    Option.iter
      (fun cache ->
        Util.Cache.put cache ~key:k
          (Codec.class_entry.enc (fc.representative.Fault.Types.fault, m)))
      cache;
    add index k m;
    let total = 1 + Atomic.fetch_and_add t.recorded_n 1 in
    match t.interrupt_after with
    | Some n when total = n ->
      Util.Watchdog.request_shutdown
        ~reason:"checkpoint interrupt_after (test hook)" ()
    | Some _ | None -> ()
  in
  let result = f { Macro.Evaluate.find; record } in
  (* In class order, after the merge: what memory holds, and evicts,
     never depends on the job count. *)
  Mutex.protect t.lock (fun () ->
      Hashtbl.fold (fun index entry acc -> (index, entry) :: acc) added []
      |> List.sort (fun (a, _) (b, _) -> compare a b)
      |> List.iter (fun (_, (k, m)) -> keep t s k m));
  result
