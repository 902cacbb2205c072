(** The per-class result store.

    In the paper's macro-cell path a fault class is measured by
    injecting its representative into the macro's nominal netlist and
    re-measuring the macro. Its faulty vector therefore depends on the
    macro, the fault and the solver settings, not on the run that met
    it. This store keeps every measured class under a key holding
    exactly those inputs (built by [Pipeline]), so a later run that
    meets the same class under the same settings does not simulate it
    again: a later request of the daemon, or a run resumed after an
    interrupt.

    {2 What it keeps}

    Measured classes ({!Macro.Evaluate.measured}: the faulty vector and
    its status), never signatures. Each run classifies a stored vector
    against its own golden vector and good space, with the code a fresh
    simulation goes through, so tables are unchanged by the store. It
    also keeps each macro's golden vector per solver.

    In memory each macro holds at most [capacity] classes; past that
    the oldest is evicted, which can only cost a re-simulation. Classes
    enter memory once their evaluation has merged, in class order, so
    what the store holds never depends on the job count.

    {2 How it reaches disk}

    With a cache, each freshly simulated class becomes its own
    {!Util.Cache} entry ({!Codec.class_entry}), written as the class
    completes, so an interrupt loses at most the classes in flight.
    With [resume] on, a class missing from memory is read back from
    disk. Class entries are read with {!Util.Cache.peek} and written
    with {!Util.Cache.put}: a class read counts as neither a
    result-cache hit nor a miss, and class entries never push a result
    entry out of the cache's memory.

    {2 Concurrency}

    Safe to share between domains: its tables are mutex-protected and
    its counters atomic. *)

type t

(** [create ()] — an empty store that reads nothing back from disk.
    [resume] reads back, from the run's cache, each class the store
    does not hold in memory. [capacity] bounds the classes kept in
    memory per macro (default 4,096). [interrupt_after] is a
    deterministic test hook (compare
    [Pipeline.Config.inject_failures]): after the [n]-th freshly
    simulated class, store-wide, it calls
    {!Util.Watchdog.request_shutdown}, letting tests exercise the
    kill-and-resume path without racing a real signal against the
    scheduler. *)
val create : ?resume:bool -> ?interrupt_after:int -> ?capacity:int -> unit -> t

val resume_enabled : t -> bool

(** Store-wide counters: [restored] classes served from the store (from
    memory or read back from disk), [recorded] classes freshly
    simulated and stored. For a run that completes, both are functions
    of the inputs and of what the store held before, whatever the job
    count. *)
type stats = { restored : int; recorded : int }

val stats : t -> stats

(** Classes held in memory, over every macro. *)
val size : t -> int

(** [golden t ~macro measure] — the golden vector of the macro whose
    store key is [macro], under the solver in effect
    ({!Circuit.Engine.current_solver}). [measure ()] runs on the first
    call per macro and solver only. *)
val golden :
  t -> macro:string -> (unit -> Macro.Macro_cell.vector) -> Macro.Macro_cell.vector

(** [evaluate t ~cache ~macro ~key f] runs one evaluation of the
    classes of the macro whose store key is [macro]: [f] hands the
    store's hook to {!Macro.Evaluate.run}. [key ~index fc] is a class's
    content address. Each class the hook records is written to [cache]
    at once; once [f] returns, the classes it recorded or read back
    from disk enter memory in class order. *)
val evaluate :
  t ->
  cache:Util.Cache.t option ->
  macro:string ->
  key:(index:int -> Fault.Collapse.fault_class -> string) ->
  (Macro.Evaluate.store -> 'a) ->
  'a
