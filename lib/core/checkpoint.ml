type stats = { restored : int; recorded : int; flushes : int }

type t = {
  resume : bool;
  interrupt_after : int option;
  restored_n : int Atomic.t;
  recorded_n : int Atomic.t;
  flushes_n : int Atomic.t;
}

(* Recorded outcomes per flush. A flush rewrites the whole partial, so
   the interval trades write volume against how many outcomes a hard
   kill can lose: at 8, one rewrite per 8 classes and at most 7 lost. *)
let flush_every = 8

let create ?(resume = false) ?interrupt_after () =
  {
    resume;
    interrupt_after;
    restored_n = Atomic.make 0;
    recorded_n = Atomic.make 0;
    flushes_n = Atomic.make 0;
  }

let resume_enabled t = t.resume

let stats t =
  {
    restored = Atomic.get t.restored_n;
    recorded = Atomic.get t.recorded_n;
    flushes = Atomic.get t.flushes_n;
  }

let src = Logs.Src.create "dotest.checkpoint" ~doc:"incremental checkpoints"

module Log = (val Logs.src_log src : Logs.LOG)

type handle = {
  registry : t;
  cache : Util.Cache.t;
  partial_key : string;
  lock : Mutex.t;
  (* Restored-from-disk and freshly recorded outcomes share one table:
     each fault-class index is either restored or simulated, never both,
     so a [restore] lookup can only hit a disk-loaded entry. *)
  outcomes : (string * int, Macro.Evaluate.outcome) Hashtbl.t;
  mutable unflushed : int;
}

let partial_key key = key ^ "-partial"

let handle registry ~cache ~key =
  let partial_key = partial_key key in
  let outcomes = Hashtbl.create 64 in
  if registry.resume then begin
    (* A partial is read beside its macro's result entry, whose lookup
       already counted the miss. *)
    match Util.Cache.peek cache ~key:partial_key with
    | None -> ()
    | Some payload ->
      (match Codec.partial_outcomes_of_json payload with
      | Ok ps ->
        List.iter
          (fun (p : Codec.partial_outcome) ->
            Hashtbl.replace outcomes (p.Codec.section, p.Codec.index)
              p.Codec.outcome)
          ps;
        Log.info (fun m ->
            m "resuming from %d checkpointed fault-class outcomes"
              (List.length ps))
      | Error e ->
        (* Same containment as a corrupt cache entry: a checkpoint may
           only ever save work, never fail a run. *)
        Log.warn (fun m ->
            m "undecodable checkpoint partial (%s): re-simulating" e))
  end;
  { registry; cache; partial_key; lock = Mutex.create (); outcomes;
    unflushed = 0 }

let with_lock h f =
  Mutex.lock h.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock h.lock) f

let restore h ~section ~index =
  if not h.registry.resume then None
  else
    with_lock h @@ fun () ->
    match Hashtbl.find_opt h.outcomes (section, index) with
    | Some o ->
      Atomic.incr h.registry.restored_n;
      Some o
    | None -> None

(* The payload is sorted by (section, index) so its bytes are a function
   of the outcome set alone, not of worker scheduling. *)
let flush_locked h =
  if h.unflushed > 0 then begin
    let ps =
      Hashtbl.fold
        (fun (section, index) outcome acc ->
          { Codec.section; index; outcome } :: acc)
        h.outcomes []
      |> List.sort (fun (a : Codec.partial_outcome) (b : Codec.partial_outcome) ->
             match compare a.Codec.section b.Codec.section with
             | 0 -> compare a.Codec.index b.Codec.index
             | c -> c)
    in
    Util.Cache.store h.cache ~key:h.partial_key
      (Codec.partial_outcomes_to_json ps);
    h.unflushed <- 0;
    Atomic.incr h.registry.flushes_n
  end

let flush h = with_lock h (fun () -> flush_locked h)

let record h ~section ~index outcome =
  (with_lock h @@ fun () ->
   Hashtbl.replace h.outcomes (section, index) outcome;
   h.unflushed <- h.unflushed + 1;
   if h.unflushed >= flush_every then flush_locked h);
  let total = 1 + Atomic.fetch_and_add h.registry.recorded_n 1 in
  match h.registry.interrupt_after with
  | Some n when total = n ->
    Util.Watchdog.request_shutdown
      ~reason:"checkpoint interrupt_after (test hook)" ()
  | Some _ | None -> ()

let finish h = Util.Cache.remove h.cache ~key:h.partial_key
