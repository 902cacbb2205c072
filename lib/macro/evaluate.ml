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

let simulate ~retries ?inject ?(deadline = Util.Watchdog.no_limits)
    ~index ~(macro : Macro_cell.t) ~nominal fc =
  let faulty_netlist =
    Fault.Inject.inject_instance nominal fc.Fault.Collapse.representative
  in
  let measure attempt =
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
  (* Attempt [n] is 0-based. A convergence failure or a deadline expiry
     is a known, contained failure mode of a pathological class: it walks
     the escalation ladder and ends Unresolved once the ladder runs out.
     Anything else is a programming error and propagates from the first
     attempt with its backtrace. *)
  let unresolved n error =
    Log.debug (fun m ->
        m "fault %a: unresolved after %d attempts (%s)"
          Fault.Types.pp_fault fc.representative.Fault.Types.fault (n + 1)
          error);
    { vector = []; status = Unresolved { attempts = n + 1; error } }
  in
  let rec attempt n =
    match measure n with
    | vector when n = 0 -> { vector; status = Converged }
    | vector ->
      Log.debug (fun m ->
          m "fault %a: recovered on attempt %d (escalated options)"
            Fault.Types.pp_fault fc.representative.Fault.Types.fault (n + 1));
      { vector; status = Recovered { attempts = n + 1 } }
    | exception
        (Circuit.Engine.No_convergence _ | Util.Watchdog.Deadline_exceeded _)
      when n < max 0 retries ->
      attempt (n + 1)
    | exception Circuit.Engine.No_convergence error -> unresolved n error
    | exception Util.Watchdog.Deadline_exceeded e ->
      unresolved n (Util.Watchdog.expiry_message e)
  in
  attempt 0

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

let golden ~(macro : Macro_cell.t) nominal = macro.Macro_cell.measure nominal

type store = {
  find : index:int -> Fault.Collapse.fault_class -> measured option;
  record : index:int -> Fault.Collapse.fault_class -> measured -> unit;
}

let run ?jobs ~retries ?inject ?deadline ?store ?(strict = false)
    ~(macro : Macro_cell.t) ~nominal ~golden ~good classes =
  (* Solver choice must survive the hop into pool worker domains:
     domain-local overrides installed by the caller do not propagate, so
     the solver in effect is read here and re-installed explicitly inside
     every worker task. *)
  let solver = Circuit.Engine.current_solver () in
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
      (* A stored class is classified by the same code as a freshly
         simulated one, against this run's golden and good space. *)
      let m =
        match Option.bind store (fun s -> s.find ~index fc) with
        | Some m ->
          Util.Telemetry.count "classes_reused";
          Util.Telemetry.add_span_attrs [ "reused", Util.Telemetry.Bool true ];
          m
        | None ->
          let m =
            simulate ~retries ?inject ?deadline ~index ~macro ~nominal fc
          in
          Util.Telemetry.count "classes_simulated";
          Option.iter (fun s -> s.record ~index fc m) store;
          m
      in
      let outcome = classify ~macro ~good ~golden fc m in
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
      outcome)
    classes

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
