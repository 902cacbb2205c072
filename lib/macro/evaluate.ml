type status =
  | Converged
  | Recovered of { attempts : int }
  | Unresolved of { attempts : int; error : string }

(* Defined before [outcome], whose [status] label stays the default. *)
type measured = { vector : Macro_cell.vector; status : status }

type outcome = {
  fault_class : Fault.Collapse.fault_class;
  signature : Signature.t;
  status : status;
}

let simulation_failed o =
  match o.status with Unresolved _ -> true | Converged | Recovered _ -> false

exception Simulation_failed of { index : int; attempts : int; error : string }

let () =
  Printexc.register_printer (function
    | Simulation_failed { index; attempts; error } ->
      Some
        (Printf.sprintf
           "Evaluate.Simulation_failed: fault class %d unresolved after %d \
            attempts (%s)"
           index attempts error)
    | _ -> None)

type injection = { seed : int; fraction : float }

(* The decision is a pure function of (seed, class index, attempt):
   identical for any job count or evaluation order. Half of the injected
   fraction fails persistently (every attempt, ending Unresolved), the
   other half only on the first attempt (recovering on retry), so both
   containment paths are exercised. *)
let injection_hits { seed; fraction } ~index ~attempt =
  let fraction = Float.max 0.0 (Float.min 1.0 fraction) in
  let prng = Util.Prng.create ((seed * 1_000_003) + index) in
  let u = Util.Prng.float prng 1.0 in
  if u < fraction /. 2.0 then true
  else if u < fraction then attempt = 0
  else false

let default_retries = 1

let src = Logs.Src.create "dotest.macro" ~doc:"macro fault simulation"

module Log = (val Logs.src_log src : Logs.LOG)

(* A simulation that fails even at the top of the escalation ladder is a
   gross defect; its optimistic reading — the one the seed pipeline used
   unconditionally — is "stuck with every current deviating", i.e.
   detected by everything. Global coverage reports bound the truth from
   both sides (see Core.Global.coverage_bounds). *)
let gross_signature =
  { Signature.voltage = Signature.Output_stuck_at;
    currents = Signature.all_current }

let simulate ?(retries = default_retries) ?inject
    ?(deadline = Util.Watchdog.no_limits) ?(index = 0)
    ~(macro : Macro_cell.t) ~nominal fc =
  let faulty_netlist =
    Fault.Inject.inject_instance nominal fc.Fault.Collapse.representative
  in
  (* A deadline expiry is a known, contained failure mode of a
     pathological class — exactly like a convergence failure, it walks the
     escalation ladder (with a doubled budget per retry, see below) and
     ends Unresolved if the ladder runs out. *)
  let classify = function
    | Circuit.Engine.No_convergence _ | Util.Watchdog.Deadline_exceeded _ ->
      Util.Resilience.Retryable
    | _ -> Util.Resilience.Fatal
  in
  let measure ~attempt =
    (match inject with
    | Some inj when injection_hits inj ~index ~attempt ->
      raise (Circuit.Engine.No_convergence "injected failure (test hook)")
    | Some _ | None -> ());
    (* Each escalated retry doubles the deadline along with loosening the
       options: a class whose first attempt expired gets both an easier
       problem and a larger budget, so the ladder can actually resolve
       it. The scaling is a pure function of the attempt number. *)
    Util.Watchdog.with_limits
      (Util.Watchdog.scale deadline ~factor:(1 lsl attempt))
    @@ fun () ->
    if attempt = 0 then macro.Macro_cell.measure faulty_netlist
    else
      (* Walk the documented escalation ladder: each retry loosens the
         solver options one more level. *)
      Circuit.Engine.with_options_override
        (Circuit.Engine.escalation Circuit.Engine.default_options
           ~level:attempt)
        (fun () -> macro.Macro_cell.measure faulty_netlist)
  in
  match
    Util.Resilience.run ~classify ~attempts:(1 + max 0 retries) measure
  with
  | Util.Resilience.Resolved { value = vector; attempts } ->
    let status =
      if attempts = 1 then Converged
      else begin
        Log.debug (fun m ->
            m "fault %a: recovered on attempt %d (escalated options)"
              Fault.Types.pp_fault fc.representative.Fault.Types.fault attempts);
        Recovered { attempts }
      end
    in
    { vector; status }
  | Util.Resilience.Exhausted { error; attempts } ->
    let what =
      match error with
      | Circuit.Engine.No_convergence what -> what
      | Util.Watchdog.Deadline_exceeded e -> Util.Watchdog.expiry_message e
      | e -> Printexc.to_string e
    in
    Log.debug (fun m ->
        m "fault %a: unresolved after %d attempts (%s)"
          Fault.Types.pp_fault fc.representative.Fault.Types.fault attempts
          what);
    { vector = []; status = Unresolved { attempts; error = what } }

let classify ~(macro : Macro_cell.t) ~good ~golden fc { vector; status } =
  let signature =
    match status with
    | Unresolved _ -> gross_signature
    | Converged | Recovered _ ->
      {
        Signature.voltage =
          macro.Macro_cell.classify_voltage ~golden ~faulty:vector;
        currents = Good_space.deviating_currents good vector;
      }
  in
  { fault_class = fc; signature; status }

let evaluate_class ?retries ~macro ~nominal ~good ~golden fc =
  classify ~macro ~good ~golden fc (simulate ?retries ~macro ~nominal fc)

module Memo = struct
  type key = {
    fault : Fault.Types.fault;
    solver : Circuit.Engine.solver;
    retries : int;
  }

  (* One macro's remembered results. [order] lists the class keys
     oldest first, so the oldest is the one evicted. *)
  type slot = {
    macro : Macro_cell.t;
    mutable goldens : (Circuit.Engine.solver * Macro_cell.vector) list;
    classes : (key, measured) Hashtbl.t;
    order : key Queue.t;
  }

  type t = { lock : Mutex.t; capacity : int; mutable slots : slot list }

  let default_capacity = 4096

  let create ?(capacity = default_capacity) () =
    { lock = Mutex.create (); capacity = max 1 capacity; slots = [] }

  let size t =
    Mutex.protect t.lock (fun () ->
        List.fold_left (fun acc s -> acc + Hashtbl.length s.classes) 0 t.slots)

  (* Macros are told apart by identity: a macro value carries closures,
     and two builds of one macro are two entries. Call under the lock. *)
  let slot t macro =
    match List.find_opt (fun s -> s.macro == macro) t.slots with
    | Some s -> s
    | None ->
      let s =
        { macro; goldens = []; classes = Hashtbl.create 64; order = Queue.create () }
      in
      t.slots <- s :: t.slots;
      s

  let find t ~macro key =
    Mutex.protect t.lock (fun () -> Hashtbl.find_opt (slot t macro).classes key)

  let add t ~macro key m =
    Mutex.protect t.lock @@ fun () ->
    let s = slot t macro in
    if not (Hashtbl.mem s.classes key) then begin
      if Hashtbl.length s.classes >= t.capacity then
        Hashtbl.remove s.classes (Queue.pop s.order);
      Hashtbl.add s.classes key m;
      Queue.push key s.order
    end

  (* The golden is measured outside the lock: other macros' analyses
     may be reading their own slots meanwhile. *)
  let golden t ~macro ~solver measure =
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
end

let golden ?memo ~(macro : Macro_cell.t) nominal =
  let measure () = macro.Macro_cell.measure nominal in
  match memo with
  | None -> measure ()
  | Some memo ->
    Memo.golden memo ~macro ~solver:(Circuit.Engine.current_solver ()) measure

let run ?jobs ?(retries = default_retries) ?inject ?deadline ?resume
    ?on_outcome ?(strict = false) ?memo ~(macro : Macro_cell.t) ~nominal
    ~golden ~good classes =
  if Option.is_some memo && (Option.is_some inject || Option.is_some deadline)
  then
    invalid_arg
      "Evaluate.run: a memo cannot serve a run with injection or a deadline";
  (* Solver choice must survive the hop into pool worker domains:
     domain-local overrides installed by the caller do not propagate, so
     the solver in effect is read here and re-installed explicitly inside
     every worker task. *)
  let solver = Circuit.Engine.current_solver () in
  let key fc =
    { Memo.fault = fc.Fault.Collapse.representative.Fault.Types.fault; solver;
      retries }
  in
  (* Cross-class nominal warm start: the context taught to recognize
     injected devices is created once here; each worker domain derives
     (and caches) the actual nominal operating points on first use — the
     derived state is domain-local because DLS does not propagate into
     pool workers. Installed per class, around the whole retry ladder, so
     escalated attempts warm-start from a nominal point solved under
     their own escalated options. *)
  let shared =
    Circuit.Engine.shared_nominal ~strip:Fault.Inject.is_fault_device ()
  in
  (* New results enter the memo after the merge, in class order, so what
     it holds (and evicts) never depends on the job count. *)
  let remember evaluated =
    Option.iter
      (fun memo ->
        List.iter2
          (fun fc (_, fresh) -> Option.iter (Memo.add memo ~macro (key fc)) fresh)
          classes evaluated)
      memo;
    List.map fst evaluated
  in
  Util.Pool.parallel_mapi ?jobs
    (fun index fc ->
      Circuit.Engine.with_solver solver @@ fun () ->
      Circuit.Engine.with_shared_nominal shared @@ fun () ->
      Util.Telemetry.with_span
        ~attrs:
          [
            "class", Util.Telemetry.Int index;
            "weight", Util.Telemetry.Int fc.Fault.Collapse.count;
          ]
        "evaluate.class"
      @@ fun () ->
      (* A restored outcome is only trusted when it is provably for this
         class: the checkpointed fault class must equal the recomputed
         one (class derivation is deterministic, so a mismatch means the
         checkpoint belongs to different inputs — re-simulate). *)
      let restored =
        match resume with
        | None -> None
        | Some find ->
          (match find index with
          | Some (o : outcome) when o.fault_class = fc -> Some o
          | Some _ | None -> None)
      in
      let outcome, fresh =
        match restored with
        | Some o ->
          Util.Telemetry.count "classes_restored";
          Util.Telemetry.add_span_attrs
            [ "restored", Util.Telemetry.Bool true ];
          o, None
        | None ->
          (* A remembered class is classified by the same code as a
             freshly simulated one, against this run's golden and
             good space. *)
          let m, fresh =
            match Option.bind memo (fun t -> Memo.find t ~macro (key fc)) with
            | Some m ->
              Util.Telemetry.count "classes_reused";
              Util.Telemetry.add_span_attrs
                [ "reused", Util.Telemetry.Bool true ];
              m, None
            | None ->
              let m =
                simulate ~retries ?inject ?deadline ~index ~macro ~nominal fc
              in
              Util.Telemetry.count "classes_simulated";
              (* Kept for the memo only: without one, a vector is
                 dropped as soon as it is classified. *)
              m, if Option.is_some memo then Some m else None
          in
          let o = classify ~macro ~good ~golden fc m in
          Option.iter (fun record -> record index o) on_outcome;
          o, fresh
      in
      (* Resolution status and escalation depth are attached to the span,
         so a trace answers "which classes needed the ladder" directly. *)
      (let status, attempts =
         match outcome.status with
         | Converged -> "converged", 1
         | Recovered { attempts } -> "recovered", attempts
         | Unresolved { attempts; _ } -> "unresolved", attempts
       in
       let escalation = attempts - 1 in
       if escalation > 0 then begin
         Util.Telemetry.count ~by:escalation "retries";
         Util.Telemetry.gauge "escalation_level" (float_of_int escalation)
       end;
       (match outcome.status with
       | Converged -> ()
       | Recovered _ -> Util.Telemetry.count "classes_recovered"
       | Unresolved _ -> Util.Telemetry.count "classes_unresolved");
       Util.Telemetry.add_span_attrs
         [
           "status", Util.Telemetry.String status;
           "attempts", Util.Telemetry.Int attempts;
           "escalation", Util.Telemetry.Int escalation;
         ]);
      (match outcome.status with
      | Unresolved { attempts; error } when strict ->
        raise (Simulation_failed { index; attempts; error })
      | Unresolved _ | Converged | Recovered _ -> ());
      outcome, fresh)
    classes
  |> remember

let total_weight outcomes =
  float_of_int
    (max 1
       (List.fold_left
          (fun acc o -> acc + o.fault_class.Fault.Collapse.count)
          0 outcomes))

let voltage_table outcomes =
  let total = total_weight outcomes in
  List.map
    (fun v ->
      let weight =
        List.fold_left
          (fun acc o ->
            if o.signature.Signature.voltage = v then
              acc + o.fault_class.Fault.Collapse.count
            else acc)
          0 outcomes
      in
      v, float_of_int weight /. total)
    Signature.all_voltage

let current_table outcomes =
  let total = total_weight outcomes in
  let kind_share k =
    let weight =
      List.fold_left
        (fun acc o ->
          if List.mem k o.signature.Signature.currents then
            acc + o.fault_class.Fault.Collapse.count
          else acc)
        0 outcomes
    in
    k, float_of_int weight /. total
  in
  let none_weight =
    List.fold_left
      (fun acc o ->
        if o.signature.Signature.currents = [] then
          acc + o.fault_class.Fault.Collapse.count
        else acc)
      0 outcomes
  in
  ( List.map kind_share Signature.all_current,
    float_of_int none_weight /. total )
