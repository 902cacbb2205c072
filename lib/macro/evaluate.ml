type status =
  | Converged
  | Recovered of { attempts : int }
  | Unresolved of { attempts : int; error : string }

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

let evaluate_class ?(retries = default_retries) ?inject
    ?(deadline = Util.Watchdog.no_limits) ?(index = 0)
    ~(macro : Macro_cell.t) ~nominal ~good ~golden fc =
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
    let voltage = macro.Macro_cell.classify_voltage ~golden ~faulty:vector in
    let currents = Good_space.deviating_currents good vector in
    let status =
      if attempts = 1 then Converged
      else begin
        Log.debug (fun m ->
            m "fault %a: recovered on attempt %d (escalated options)"
              Fault.Types.pp_fault fc.representative.Fault.Types.fault attempts);
        Recovered { attempts }
      end
    in
    { fault_class = fc; signature = { Signature.voltage; currents }; status }
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
    {
      fault_class = fc;
      signature = gross_signature;
      status = Unresolved { attempts; error = what };
    }

let run ?jobs ?retries ?inject ?deadline ?resume ?on_outcome
    ?(strict = false) ?solver ~(macro : Macro_cell.t) ~good classes =
  (* Solver choice must survive the hop into pool worker domains:
     domain-local overrides installed by the caller do not propagate, so
     the effective solver is resolved here and re-installed explicitly
     inside every worker task. *)
  let solver =
    match solver with
    | Some s -> s
    | None -> Circuit.Engine.current_solver ()
  in
  (* The nominal netlist is built once and shared by every class: injection
     copies it before mutating, so parallel workers only ever read it. *)
  let nominal =
    macro.Macro_cell.build (Process.Variation.nominal Process.Tech.cmos1um)
  in
  let golden =
    Circuit.Engine.with_solver solver (fun () ->
        macro.Macro_cell.measure nominal)
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
      let outcome =
        match restored with
        | Some o ->
          Util.Telemetry.count "classes_restored";
          Util.Telemetry.add_span_attrs
            [ "restored", Util.Telemetry.Bool true ];
          o
        | None ->
          let o =
            evaluate_class ?retries ?inject ?deadline ~index ~macro ~nominal
              ~good ~golden fc
          in
          Util.Telemetry.count "classes_simulated";
          Option.iter (fun record -> record index o) on_outcome;
          o
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
