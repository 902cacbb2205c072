module J = Util.Json

type 'a decoder = J.t -> ('a, string) result

(* Bump whenever simulation semantics or any encoding below changes:
   every previously written cache entry then reads as stale.
   2: checkpoint partial-outcome payloads; cache stats gained
      write_errors; deadline limits folded into cache keys.
   3: shared-nominal warm start — analyses under an installed context
      start Newton from the derived nominal operating point (all
      backends), which changes which marginal classes resolve. *)
let version = "dotest-codec/3"

(* --- decoder plumbing --------------------------------------------------- *)

let ( let* ) = Result.bind

let error_at what json =
  Error (Printf.sprintf "%s, got %s" what (J.to_string json))

let field name json =
  match J.member name json with
  | Some v -> Ok v
  | None -> error_at (Printf.sprintf "expected field %S" name) json

let as_int json =
  match J.to_int json with
  | Some n -> Ok n
  | None -> error_at "expected an integer" json

let as_float json =
  match J.to_float json with
  | Some x -> Ok x
  | None -> error_at "expected a number" json

let as_str json =
  match J.to_str json with
  | Some s -> Ok s
  | None -> error_at "expected a string" json

let int_field name json = Result.bind (field name json) as_int
let float_field name json = Result.bind (field name json) as_float
let str_field name json = Result.bind (field name json) as_str

(* [Float] must survive exactly; [Json] already prints the shortest
   representation that parses back to the identical double, but an
   integral float would print as an [Int] and decode as one, which
   [to_float] accepts — so floats round-trip through [as_float]. *)
let list_of dec json =
  match J.to_list json with
  | None -> error_at "expected a list" json
  | Some items ->
    let rec go i acc = function
      | [] -> Ok (List.rev acc)
      | item :: rest ->
        (match dec item with
        | Ok v -> go (i + 1) (v :: acc) rest
        | Error e -> Error (Printf.sprintf "element %d: %s" i e))
    in
    go 0 [] items

let list_field name dec json = Result.bind (field name json) (list_of dec)

(* Optional float field encoded as absence. *)
let opt_float_field name json =
  match J.member name json with
  | None | Some J.Null -> Ok None
  | Some v ->
    let* x = as_float v in
    Ok (Some x)

(* An enumeration keyed by a naming function. *)
let enum ~what ~name_of all =
  let encode v = J.String (name_of v) in
  let decode json =
    let* s = as_str json in
    match List.find_opt (fun v -> name_of v = s) all with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "unknown %s %S" what s)
  in
  encode, decode

(* --- signatures --------------------------------------------------------- *)

let voltage_to_json, voltage_of_json =
  enum ~what:"voltage signature" ~name_of:Macro.Signature.voltage_name
    Macro.Signature.all_voltage

let current_kind_to_json, current_kind_of_json =
  enum ~what:"current kind" ~name_of:Macro.Signature.current_name
    Macro.Signature.all_current

let signature_to_json (s : Macro.Signature.t) =
  J.Obj
    [
      "voltage", voltage_to_json s.Macro.Signature.voltage;
      "currents", J.List (List.map current_kind_to_json s.Macro.Signature.currents);
    ]

let signature_of_json json =
  let* voltage = Result.bind (field "voltage" json) voltage_of_json in
  let* currents = list_field "currents" current_kind_of_json json in
  Ok { Macro.Signature.voltage; currents }

(* --- faults ------------------------------------------------------------- *)

let layer_to_json, layer_of_json =
  enum ~what:"layer" ~name_of:Process.Layer.name Process.Layer.all

let fault_type_to_json, fault_type_of_json =
  enum ~what:"fault type" ~name_of:Fault.Types.fault_type_name
    Fault.Types.all_fault_types

let site_name = function
  | Fault.Types.To_source -> "source"
  | Fault.Types.To_drain -> "drain"
  | Fault.Types.To_channel -> "channel"

let site_to_json, site_of_json =
  enum ~what:"pinhole site" ~name_of:site_name
    [ Fault.Types.To_source; Fault.Types.To_drain; Fault.Types.To_channel ]

let severity_name = function
  | Fault.Types.Catastrophic -> "catastrophic"
  | Fault.Types.Non_catastrophic -> "non-catastrophic"

let severity_to_json, severity_of_json =
  enum ~what:"severity" ~name_of:severity_name
    [ Fault.Types.Catastrophic; Fault.Types.Non_catastrophic ]

(* [Defect_stats.mechanism_name] is not injective ([Extra_material
   Contact] and [Extra_contact] both render "extra-contact"), so the
   mechanism is encoded structurally. *)
let mechanism_to_json (m : Process.Defect_stats.mechanism) =
  match m with
  | Process.Defect_stats.Extra_material layer ->
    J.Obj [ "kind", J.String "extra-material"; "layer", layer_to_json layer ]
  | Process.Defect_stats.Missing_material layer ->
    J.Obj [ "kind", J.String "missing-material"; "layer", layer_to_json layer ]
  | Process.Defect_stats.Gate_oxide_pinhole ->
    J.Obj [ "kind", J.String "gate-oxide-pinhole" ]
  | Process.Defect_stats.Junction_pinhole ->
    J.Obj [ "kind", J.String "junction-pinhole" ]
  | Process.Defect_stats.Thick_oxide_pinhole ->
    J.Obj [ "kind", J.String "thick-oxide-pinhole" ]
  | Process.Defect_stats.Extra_contact ->
    J.Obj [ "kind", J.String "extra-contact" ]
  | Process.Defect_stats.Missing_contact ->
    J.Obj [ "kind", J.String "missing-contact" ]

let mechanism_of_json json =
  let* kind = str_field "kind" json in
  let layered f = Result.map f (Result.bind (field "layer" json) layer_of_json) in
  match kind with
  | "extra-material" ->
    layered (fun l -> Process.Defect_stats.Extra_material l)
  | "missing-material" ->
    layered (fun l -> Process.Defect_stats.Missing_material l)
  | "gate-oxide-pinhole" -> Ok Process.Defect_stats.Gate_oxide_pinhole
  | "junction-pinhole" -> Ok Process.Defect_stats.Junction_pinhole
  | "thick-oxide-pinhole" -> Ok Process.Defect_stats.Thick_oxide_pinhole
  | "extra-contact" -> Ok Process.Defect_stats.Extra_contact
  | "missing-contact" -> Ok Process.Defect_stats.Missing_contact
  | other -> Error (Printf.sprintf "unknown defect mechanism %S" other)

let capacitance_fields = function
  | None -> []
  | Some c -> [ "capacitance", J.Float c ]

let fault_to_json (f : Fault.Types.fault) =
  match f with
  | Fault.Types.Bridge { net_a; net_b; resistance; capacitance; origin } ->
    J.Obj
      ([
         "kind", J.String "bridge";
         "net_a", J.String net_a;
         "net_b", J.String net_b;
         "resistance", J.Float resistance;
       ]
      @ capacitance_fields capacitance
      @ [ "origin", fault_type_to_json origin ])
  | Fault.Types.Bridge_cluster { nets; resistance; capacitance; origin } ->
    J.Obj
      ([
         "kind", J.String "bridge-cluster";
         "nets", J.List (List.map (fun n -> J.String n) nets);
         "resistance", J.Float resistance;
       ]
      @ capacitance_fields capacitance
      @ [ "origin", fault_type_to_json origin ])
  | Fault.Types.Node_split { net; far_pins } ->
    J.Obj
      [
        "kind", J.String "node-split";
        "net", J.String net;
        ( "far_pins",
          J.List
            (List.map
               (fun (device, terminal) ->
                 J.List [ J.String device; J.String terminal ])
               far_pins) );
      ]
  | Fault.Types.Gate_pinhole { device; site; resistance } ->
    J.Obj
      [
        "kind", J.String "gate-pinhole";
        "device", J.String device;
        "site", site_to_json site;
        "resistance", J.Float resistance;
      ]
  | Fault.Types.Junction_leak { net; bulk_net; resistance } ->
    J.Obj
      [
        "kind", J.String "junction-leak";
        "net", J.String net;
        "bulk_net", J.String bulk_net;
        "resistance", J.Float resistance;
      ]
  | Fault.Types.Device_ds_short { device; resistance } ->
    J.Obj
      [
        "kind", J.String "device-ds-short";
        "device", J.String device;
        "resistance", J.Float resistance;
      ]
  | Fault.Types.Parasitic_mos { gate_net; net_a; net_b } ->
    J.Obj
      [
        "kind", J.String "parasitic-mos";
        "gate_net", J.String gate_net;
        "net_a", J.String net_a;
        "net_b", J.String net_b;
      ]

let far_pin_of_json json =
  match J.to_list json with
  | Some [ d; t ] ->
    let* device = as_str d in
    let* terminal = as_str t in
    Ok (device, terminal)
  | Some _ | None -> error_at "expected a [device, terminal] pair" json

let fault_of_json json =
  let* kind = str_field "kind" json in
  match kind with
  | "bridge" ->
    let* net_a = str_field "net_a" json in
    let* net_b = str_field "net_b" json in
    let* resistance = float_field "resistance" json in
    let* capacitance = opt_float_field "capacitance" json in
    let* origin = Result.bind (field "origin" json) fault_type_of_json in
    Ok (Fault.Types.Bridge { net_a; net_b; resistance; capacitance; origin })
  | "bridge-cluster" ->
    let* nets = list_field "nets" as_str json in
    let* resistance = float_field "resistance" json in
    let* capacitance = opt_float_field "capacitance" json in
    let* origin = Result.bind (field "origin" json) fault_type_of_json in
    Ok (Fault.Types.Bridge_cluster { nets; resistance; capacitance; origin })
  | "node-split" ->
    let* net = str_field "net" json in
    let* far_pins = list_field "far_pins" far_pin_of_json json in
    Ok (Fault.Types.Node_split { net; far_pins })
  | "gate-pinhole" ->
    let* device = str_field "device" json in
    let* site = Result.bind (field "site" json) site_of_json in
    let* resistance = float_field "resistance" json in
    Ok (Fault.Types.Gate_pinhole { device; site; resistance })
  | "junction-leak" ->
    let* net = str_field "net" json in
    let* bulk_net = str_field "bulk_net" json in
    let* resistance = float_field "resistance" json in
    Ok (Fault.Types.Junction_leak { net; bulk_net; resistance })
  | "device-ds-short" ->
    let* device = str_field "device" json in
    let* resistance = float_field "resistance" json in
    Ok (Fault.Types.Device_ds_short { device; resistance })
  | "parasitic-mos" ->
    let* gate_net = str_field "gate_net" json in
    let* net_a = str_field "net_a" json in
    let* net_b = str_field "net_b" json in
    Ok (Fault.Types.Parasitic_mos { gate_net; net_a; net_b })
  | other -> Error (Printf.sprintf "unknown fault kind %S" other)

let instance_to_json (i : Fault.Types.instance) =
  J.Obj
    [
      "fault", fault_to_json i.Fault.Types.fault;
      "severity", severity_to_json i.Fault.Types.severity;
      "mechanism", mechanism_to_json i.Fault.Types.mechanism;
    ]

let instance_of_json json =
  let* fault = Result.bind (field "fault" json) fault_of_json in
  let* severity = Result.bind (field "severity" json) severity_of_json in
  let* mechanism = Result.bind (field "mechanism" json) mechanism_of_json in
  Ok { Fault.Types.fault; severity; mechanism }

let fault_class_to_json (fc : Fault.Collapse.fault_class) =
  J.Obj
    [
      "representative", instance_to_json fc.Fault.Collapse.representative;
      "count", J.Int fc.Fault.Collapse.count;
    ]

let fault_class_of_json json =
  let* representative =
    Result.bind (field "representative" json) instance_of_json
  in
  let* count = int_field "count" json in
  Ok { Fault.Collapse.representative; count }

(* --- evaluation outcomes ------------------------------------------------ *)

let status_to_json (s : Macro.Evaluate.status) =
  match s with
  | Macro.Evaluate.Converged -> J.Obj [ "kind", J.String "converged" ]
  | Macro.Evaluate.Recovered { attempts } ->
    J.Obj [ "kind", J.String "recovered"; "attempts", J.Int attempts ]
  | Macro.Evaluate.Unresolved { attempts; error } ->
    J.Obj
      [
        "kind", J.String "unresolved";
        "attempts", J.Int attempts;
        "error", J.String error;
      ]

let status_of_json json =
  let* kind = str_field "kind" json in
  match kind with
  | "converged" -> Ok Macro.Evaluate.Converged
  | "recovered" ->
    let* attempts = int_field "attempts" json in
    Ok (Macro.Evaluate.Recovered { attempts })
  | "unresolved" ->
    let* attempts = int_field "attempts" json in
    let* error = str_field "error" json in
    Ok (Macro.Evaluate.Unresolved { attempts; error })
  | other -> Error (Printf.sprintf "unknown outcome status %S" other)

let outcome_to_json (o : Macro.Evaluate.outcome) =
  J.Obj
    [
      "fault_class", fault_class_to_json o.Macro.Evaluate.fault_class;
      "signature", signature_to_json o.Macro.Evaluate.signature;
      "status", status_to_json o.Macro.Evaluate.status;
    ]

let outcome_of_json json =
  let* fault_class = Result.bind (field "fault_class" json) fault_class_of_json in
  let* signature = Result.bind (field "signature" json) signature_of_json in
  let* status = Result.bind (field "status" json) status_of_json in
  Ok { Macro.Evaluate.fault_class; signature; status }

(* --- good-signature space ----------------------------------------------- *)

let good_space_to_json good =
  J.List
    (List.map
       (fun (name, (w : Util.Stats.window)) ->
         J.Obj
           [
             "name", J.String name;
             "low", J.Float w.Util.Stats.low;
             "high", J.Float w.Util.Stats.high;
           ])
       (Macro.Good_space.windows good))

let good_space_of_json json =
  let window json =
    let* name = str_field "name" json in
    let* low = float_field "low" json in
    let* high = float_field "high" json in
    Ok (name, { Util.Stats.low; high })
  in
  Result.map Macro.Good_space.of_windows (list_of window json)

(* --- the per-macro analysis payload ------------------------------------- *)

type analysis = {
  sprinkled : int;
  effective : int;
  good : Macro.Good_space.t;
  classes_catastrophic : Fault.Collapse.fault_class list;
  classes_non_catastrophic : Fault.Collapse.fault_class list;
  outcomes_catastrophic : Macro.Evaluate.outcome list;
  outcomes_non_catastrophic : Macro.Evaluate.outcome list;
}

let analysis_to_json a =
  J.Obj
    [
      "sprinkled", J.Int a.sprinkled;
      "effective", J.Int a.effective;
      "good", good_space_to_json a.good;
      ( "classes_catastrophic",
        J.List (List.map fault_class_to_json a.classes_catastrophic) );
      ( "classes_non_catastrophic",
        J.List (List.map fault_class_to_json a.classes_non_catastrophic) );
      ( "outcomes_catastrophic",
        J.List (List.map outcome_to_json a.outcomes_catastrophic) );
      ( "outcomes_non_catastrophic",
        J.List (List.map outcome_to_json a.outcomes_non_catastrophic) );
    ]

let analysis_of_json json =
  let* sprinkled = int_field "sprinkled" json in
  let* effective = int_field "effective" json in
  let* good = Result.bind (field "good" json) good_space_of_json in
  let* classes_catastrophic =
    list_field "classes_catastrophic" fault_class_of_json json
  in
  let* classes_non_catastrophic =
    list_field "classes_non_catastrophic" fault_class_of_json json
  in
  let* outcomes_catastrophic =
    list_field "outcomes_catastrophic" outcome_of_json json
  in
  let* outcomes_non_catastrophic =
    list_field "outcomes_non_catastrophic" outcome_of_json json
  in
  Ok
    {
      sprinkled;
      effective;
      good;
      classes_catastrophic;
      classes_non_catastrophic;
      outcomes_catastrophic;
      outcomes_non_catastrophic;
    }

(* --- checkpoint partial payloads ---------------------------------------- *)

type partial_outcome = {
  section : string;
  index : int;
  outcome : Macro.Evaluate.outcome;
}

let partial_outcome_to_json p =
  J.Obj
    [
      "section", J.String p.section;
      "index", J.Int p.index;
      "outcome", outcome_to_json p.outcome;
    ]

let partial_outcome_of_json json =
  let* section = str_field "section" json in
  let* index = int_field "index" json in
  let* outcome = Result.bind (field "outcome" json) outcome_of_json in
  Ok { section; index; outcome }

let partial_outcomes_to_json ps = J.List (List.map partial_outcome_to_json ps)
let partial_outcomes_of_json json = list_of partial_outcome_of_json json

(* --- fingerprints ------------------------------------------------------- *)

(* Floats are rendered in hex ("%h") so fingerprinting never loses bits
   to decimal formatting. *)
let hexf = Printf.sprintf "%h"

let tech_fingerprint (tech : Process.Tech.t) =
  let per_layer name f render =
    List.map
      (fun layer ->
        (* Some electrical functions reject cut layers by contract;
           fingerprint the rejection too. *)
        let value = try render (f layer) with Invalid_argument _ -> "n/a" in
        Printf.sprintf "%s(%s)=%s" name (Process.Layer.name layer) value)
      Process.Layer.all
  in
  Util.Cache.fingerprint
    ([ "tech"; tech.Process.Tech.name ]
    @ per_layer "min_width" tech.Process.Tech.min_width string_of_int
    @ per_layer "min_spacing" tech.Process.Tech.min_spacing string_of_int
    @ per_layer "sheet_resistance" tech.Process.Tech.sheet_resistance hexf
    @ per_layer "short_resistance" tech.Process.Tech.short_resistance hexf
    @ List.map
        (fun (name, value) -> Printf.sprintf "%s=%s" name value)
        [
          "contact_size", string_of_int tech.Process.Tech.contact_size;
          "grid", string_of_int tech.Process.Tech.grid;
          ( "extra_contact_resistance",
            hexf tech.Process.Tech.extra_contact_resistance );
          ( "gate_oxide_pinhole_resistance",
            hexf tech.Process.Tech.gate_oxide_pinhole_resistance );
          ( "junction_pinhole_resistance",
            hexf tech.Process.Tech.junction_pinhole_resistance );
          ( "thick_oxide_pinhole_resistance",
            hexf tech.Process.Tech.thick_oxide_pinhole_resistance );
          ( "shorted_device_resistance",
            hexf tech.Process.Tech.shorted_device_resistance );
          "near_miss_resistance", hexf tech.Process.Tech.near_miss_resistance;
          "near_miss_capacitance", hexf tech.Process.Tech.near_miss_capacitance;
          "vdd", hexf tech.Process.Tech.vdd;
          "temperature", hexf tech.Process.Tech.temperature;
        ])

let stats_fingerprint stats =
  Util.Cache.fingerprint
    ("defect-stats"
    :: List.map
         (fun (e : Process.Defect_stats.entry) ->
           Printf.sprintf "%s rate=%s size=[%s,%s]"
             (J.to_string (mechanism_to_json e.Process.Defect_stats.mechanism))
             (hexf e.Process.Defect_stats.relative_rate)
             (hexf e.Process.Defect_stats.size_min)
             (hexf e.Process.Defect_stats.size_max))
         (Process.Defect_stats.entries stats))

let waveform_part w =
  match Circuit.Waveform.view w with
  | Circuit.Waveform.View_dc v -> Printf.sprintf "dc %s" (hexf v)
  | Circuit.Waveform.View_pwl points ->
    "pwl "
    ^ String.concat ","
        (List.map (fun (t, v) -> Printf.sprintf "%s:%s" (hexf t) (hexf v)) points)
  | Circuit.Waveform.View_pulse { v0; v1; delay; rise; fall; width; period } ->
    Printf.sprintf "pulse %s %s %s %s %s %s %s" (hexf v0) (hexf v1) (hexf delay)
      (hexf rise) (hexf fall) (hexf width) (hexf period)

let device_part (dv : Circuit.Netlist.device_view) =
  let kind =
    match dv.Circuit.Netlist.kind with
    | Circuit.Netlist.Resistor r -> "R " ^ hexf r
    | Circuit.Netlist.Capacitor c -> "C " ^ hexf c
    | Circuit.Netlist.Vsource w -> "V " ^ waveform_part w
    | Circuit.Netlist.Isource w -> "I " ^ waveform_part w
    | Circuit.Netlist.Mosfet spec ->
      Printf.sprintf "M %s vth=%s kp=%s lambda=%s w=%s l=%s"
        (match spec.Circuit.Netlist.polarity with
        | Circuit.Mos_model.Nmos -> "nmos"
        | Circuit.Mos_model.Pmos -> "pmos")
        (hexf spec.Circuit.Netlist.params.Circuit.Mos_model.vth)
        (hexf spec.Circuit.Netlist.params.Circuit.Mos_model.kp)
        (hexf spec.Circuit.Netlist.params.Circuit.Mos_model.lambda)
        (hexf spec.Circuit.Netlist.w) (hexf spec.Circuit.Netlist.l)
  in
  Printf.sprintf "%s | %s | %s" dv.Circuit.Netlist.dev_name kind
    (String.concat " "
       (List.map
          (fun (role, node) ->
            Printf.sprintf "%s=%d" role (Circuit.Netlist.index_of_node node))
          dv.Circuit.Netlist.pin_nodes))

let netlist_fingerprint nl =
  Util.Cache.fingerprint
    ((Printf.sprintf "netlist nodes=%d" (Circuit.Netlist.node_count nl))
    :: List.map (Circuit.Netlist.node_name nl) (Circuit.Netlist.nodes nl)
    @ List.map device_part (Circuit.Netlist.devices nl))

let cell_fingerprint = Layout.Cell.fingerprint

(* --- rendered-report surface -------------------------------------------- *)

let table_to_json = Util.Table.to_json

let metrics_to_json (m : Util.Telemetry.Metrics.t) =
  J.Obj
    [
      ( "counters",
        J.Obj
          (List.map
             (fun (name, total) -> name, J.Int total)
             m.Util.Telemetry.Metrics.counters) );
      ( "gauges",
        J.Obj
          (List.map
             (fun (name, value) -> name, J.Float value)
             m.Util.Telemetry.Metrics.gauges) );
    ]

let cache_stats_to_json ~state (s : Util.Cache.stats) =
  J.Obj
    [
      ( "state",
        J.String
          (match state with `Cold -> "cold" | `Warm -> "warm" | `Off -> "off")
      );
      "hits", J.Int s.Util.Cache.hits;
      "misses", J.Int s.Util.Cache.misses;
      "stale", J.Int s.Util.Cache.stale;
      "evictions", J.Int s.Util.Cache.evictions;
      "write_errors", J.Int s.Util.Cache.write_errors;
    ]

(* --- the request/response wire format ------------------------------------ *)

(* Version of the wire protocol, independent of the cache codec version:
   a daemon and its clients negotiate on this stamp alone, while cache
   entries keep their own lifecycle. *)
let api_version = "dotest-api/1"

let as_bool json =
  match J.to_bool json with
  | Some b -> Ok b
  | None -> error_at "expected a boolean" json

let bool_field name json = Result.bind (field name json) as_bool

(* Absent and null both decode as [None]: clients may omit optional
   fields entirely. *)
let opt_str_field name json =
  match J.member name json with
  | None | Some J.Null -> Ok None
  | Some v ->
    let* s = as_str v in
    Ok (Some s)

let opt_int_of json =
  match json with
  | J.Null -> Ok None
  | v ->
    let* n = as_int v in
    Ok (Some n)

let limits_to_json (l : Util.Watchdog.limits) =
  J.Obj
    [
      ( "wall_seconds",
        match l.Util.Watchdog.wall_seconds with
        | None -> J.Null
        | Some s -> J.Float s );
      ( "max_iterations",
        match l.Util.Watchdog.max_iterations with
        | None -> J.Null
        | Some n -> J.Int n );
    ]

let limits_of_json json =
  let* wall_seconds = opt_float_field "wall_seconds" json in
  let* max_iterations =
    Result.bind (field "max_iterations" json) opt_int_of
  in
  Ok { Util.Watchdog.wall_seconds; max_iterations }

(* "rank1" named a third backend, the reuse policy without the banded
   kernel, until the two merged into [Auto]. Requests that still send it
   decode as [Auto]; nothing emits it, so [api_version] does not move. *)
let solver_to_json, solver_of_json =
  let encode, decode =
    enum ~what:"solver backend" ~name_of:Circuit.Engine.solver_name
      Circuit.Engine.all_solvers
  in
  ( encode,
    function J.String "rank1" -> Ok Circuit.Engine.Auto | json -> decode json )

let format_to_json, format_of_json =
  enum ~what:"format" ~name_of:Request.format_name Request.all_formats

let error_code_to_json, error_code_of_json =
  enum ~what:"error code" ~name_of:Request.error_code_name
    Request.all_error_codes

let opt_field name encode = function None -> [] | Some v -> [ name, encode v ]

let request_to_json (r : Request.t) =
  J.Obj
    ([ "api", J.String api_version ]
    @ opt_field "id" (fun s -> J.String s) r.Request.id
    @ [
        "target", J.String (Request.target_name r.Request.target);
        ( "dft",
          J.Bool
            (match r.Request.target with
            | Request.Comparator { dft } | Request.Global { dft } -> dft) );
        "defects", J.Int r.Request.defects;
        "good_space_dies", J.Int r.Request.good_space_dies;
        "sigma", J.Float r.Request.sigma;
        "seed", J.Int r.Request.seed;
        "max_retries", J.Int r.Request.max_retries;
        "strict", J.Bool r.Request.strict;
        ( "inject_failures",
          match r.Request.inject_failures with
          | None -> J.Null
          | Some f -> J.Float f );
        ( "deadline",
          match r.Request.deadline with
          | None -> J.Null
          | Some l -> limits_to_json l );
        "solver", solver_to_json r.Request.solver;
        "format", format_to_json r.Request.format;
      ])

(* Every field except "api" and "target" is optional and defaults to
   {!Request.default}'s value, so a minimal request is
   [{"api":"dotest-api/1","target":"global"}]. *)
let request_of_json json =
  let* api = str_field "api" json in
  if api <> api_version then
    Error (Printf.sprintf "unsupported api version %S (this is %s)" api api_version)
  else
    let opt name dec fallback =
      match J.member name json with
      | None | Some J.Null -> Ok fallback
      | Some v -> dec v
    in
    let d = Request.default in
    let* id = opt_str_field "id" json in
    let* target_name = str_field "target" json in
    let* dft = opt "dft" as_bool false in
    let* target = Request.target_of_name ~name:target_name ~dft in
    let* defects = opt "defects" as_int d.Request.defects in
    let* good_space_dies =
      opt "good_space_dies" as_int d.Request.good_space_dies
    in
    let* sigma = opt "sigma" as_float d.Request.sigma in
    let* seed = opt "seed" as_int d.Request.seed in
    let* max_retries = opt "max_retries" as_int d.Request.max_retries in
    let* strict = opt "strict" as_bool d.Request.strict in
    let* inject_failures =
      opt "inject_failures" (fun v -> Result.map Option.some (as_float v)) None
    in
    let* deadline =
      opt "deadline" (fun v -> Result.map Option.some (limits_of_json v)) None
    in
    let* solver = opt "solver" solver_of_json d.Request.solver in
    let* format = opt "format" format_of_json d.Request.format in
    if defects < 0 then Error "defects must be non-negative"
    else if good_space_dies < 1 then Error "good_space_dies must be positive"
    else
      Ok
        {
          Request.id;
          target;
          defects;
          good_space_dies;
          sigma;
          seed;
          max_retries;
          strict;
          inject_failures;
          deadline;
          solver;
          format;
        }

let table_entry_to_json (t : Request.table) =
  J.Obj [ "title", J.String t.Request.title; "body", J.String t.Request.body ]

let table_entry_of_json json =
  let* title = str_field "title" json in
  let* body = str_field "body" json in
  Ok { Request.title; body }

let response_to_json (r : Request.response) =
  match r with
  | Ok reply ->
    J.Obj
      ([ "api", J.String api_version; "status", J.String "ok" ]
      @ opt_field "id" (fun s -> J.String s) reply.Request.reply_id
      @ [
          ( "tables",
            J.List (List.map table_entry_to_json reply.Request.tables) );
          "cache_hits", J.Int reply.Request.cache_hits;
          "cache_misses", J.Int reply.Request.cache_misses;
          "coalesced", J.Bool reply.Request.coalesced;
          "queue_s", J.Float reply.Request.queue_seconds;
          "evaluate_s", J.Float reply.Request.evaluate_seconds;
        ])
  | Error e ->
    J.Obj
      ([ "api", J.String api_version; "status", J.String "error" ]
      @ opt_field "id" (fun s -> J.String s) e.Request.error_id
      @ [
          "code", error_code_to_json e.Request.code;
          "message", J.String e.Request.message;
          ( "retry_after",
            match e.Request.retry_after with
            | None -> J.Null
            | Some s -> J.Float s );
        ])

let response_of_json json =
  let* api = str_field "api" json in
  if api <> api_version then
    Error (Printf.sprintf "unsupported api version %S (this is %s)" api api_version)
  else
    let* status = str_field "status" json in
    match status with
    | "ok" ->
      let* reply_id = opt_str_field "id" json in
      let* tables = list_field "tables" table_entry_of_json json in
      let* cache_hits = int_field "cache_hits" json in
      let* cache_misses = int_field "cache_misses" json in
      let* coalesced = bool_field "coalesced" json in
      let* queue_seconds = float_field "queue_s" json in
      let* evaluate_seconds = float_field "evaluate_s" json in
      Ok
        (Ok
           {
             Request.reply_id;
             tables;
             cache_hits;
             cache_misses;
             coalesced;
             queue_seconds;
             evaluate_seconds;
           })
    | "error" ->
      let* error_id = opt_str_field "id" json in
      let* code = Result.bind (field "code" json) error_code_of_json in
      let* message = str_field "message" json in
      let* retry_after = opt_float_field "retry_after" json in
      Ok (Error { Request.error_id; code; message; retry_after })
    | other -> Error (Printf.sprintf "unknown response status %S" other)
