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

(* --- two-way codecs ----------------------------------------------------- *)

(* A schema is one value used in both directions: every member name, case
   tag and member order below is written once. *)
type 'a t = { enc : 'a -> J.t; dec : 'a decoder }

let ( let* ) = Result.bind

let error_at what json =
  Error (Printf.sprintf "%s, got %s" what (J.to_string json))

let scalar what enc read =
  {
    enc;
    dec =
      (fun json ->
        match read json with
        | Some v -> Ok v
        | None -> error_at ("expected " ^ what) json);
  }

let int = scalar "an integer" (fun n -> J.Int n) J.to_int

(* [Json] prints the shortest representation that parses back to the
   identical double; an integral float prints as an [Int], which
   [to_float] accepts, so floats round-trip exactly. *)
let float = scalar "a number" (fun x -> J.Float x) J.to_float
let string = scalar "a string" (fun s -> J.String s) J.to_str
let bool = scalar "a boolean" (fun b -> J.Bool b) J.to_bool

let list c =
  {
    enc = (fun vs -> J.List (List.map c.enc vs));
    dec =
      (fun json ->
        match J.to_list json with
        | None -> error_at "expected a list" json
        | Some items ->
          let rec go i acc = function
            | [] -> Ok (List.rev acc)
            | item :: rest ->
              (match c.dec item with
              | Ok v -> go (i + 1) (v :: acc) rest
              | Error e -> Error (Printf.sprintf "element %d: %s" i e))
          in
          go 0 [] items);
  }

(* [None] is [null]. *)
let nullable c =
  {
    enc = (function None -> J.Null | Some v -> c.enc v);
    dec = (function J.Null -> Ok None | json -> Result.map Option.some (c.dec json));
  }

(* An enumeration keyed by a naming function. *)
let enum ~what ~name_of all =
  {
    enc = (fun v -> J.String (name_of v));
    dec =
      (fun json ->
        let* s = string.dec json in
        match List.find_opt (fun v -> name_of v = s) all with
        | Some v -> Ok v
        | None -> Error (Printf.sprintf "unknown %s %S" what s));
  }

let conv to_ of_ c =
  { enc = (fun v -> c.enc (to_ v)); dec = (fun json -> Result.map of_ (c.dec json)) }

(* --- objects ------------------------------------------------------------ *)

(* Members of an object: [put v rest] renders part of an ['o] as members
   in front of [rest], [get] reads an ['a] out of the whole object. An
   [('a, 'a) members] is the complete schema of an object; [obj] makes it
   a codec. *)
type ('o, 'a) members = {
  put : 'o -> (string * J.t) list -> (string * J.t) list;
  get : J.t -> ('a, string) result;
}

let obj m = { enc = (fun v -> J.Obj (m.put v [])); dec = m.get }

let req name c =
  {
    put = (fun v rest -> (name, c.enc v) :: rest);
    get =
      (fun json ->
        match J.member name json with
        | Some v -> c.dec v
        | None -> error_at (Printf.sprintf "expected field %S" name) json);
  }

(* Omitted when [None]; absent and null both read as [None]. *)
let opt name c =
  {
    put =
      (fun v rest ->
        match v with None -> rest | Some v -> (name, c.enc v) :: rest);
    get =
      (fun json ->
        match J.member name json with
        | None | Some J.Null -> Ok None
        | Some v -> Result.map Option.some (c.dec v));
  }

(* Always written; absent and null both read as [default]. *)
let dft name c default =
  {
    put = (fun v rest -> (name, c.enc v) :: rest);
    get =
      (fun json ->
        match J.member name json with
        | None | Some J.Null -> Ok default
        | Some v -> c.dec v);
  }

(* Members side by side, as a pair; for case payloads, which have no
   record type to project from. *)
let ( *** ) a b =
  {
    put = (fun (x, y) rest -> a.put x (b.put y rest));
    get =
      (fun json ->
        let* x = a.get json in
        let* y = b.get json in
        Ok (x, y));
  }

(* A record, member by member in wire order: [record make] starts from the
   record's constructor and each [field m proj] adds the next argument,
   read by [m] and projected out by [proj]. *)
let record make = { put = (fun _ rest -> rest); get = (fun _ -> Ok make) }

let field m proj r =
  {
    put = (fun o rest -> r.put o (m.put (proj o) rest));
    get =
      (fun json ->
        let* f = r.get json in
        let* a = m.get json in
        Ok (f a));
  }

(* --- tagged variants ---------------------------------------------------- *)

(* A case: its tag, its payload members and how a payload becomes the
   variant. [tagged c p] encodes payload [p] as case [c]; [branch c] is
   the case's decoder. *)
type ('a, 'p) case = {
  tag : string;
  payload : ('p, 'p) members;
  inject : 'p -> 'a;
}

let case tag payload inject = { tag; payload; inject }
let bare tag v = case tag (record ()) (fun () -> v)
let tagged c p = c.tag, c.payload.put p []
let branch c = c.tag, fun json -> Result.map c.inject (c.payload.get json)

(* Member [key] holds the tag and the payload members follow it.
   [select] maps every value to its tagged payload. *)
let variant ?(key = "kind") ~what branches select =
  let tag = req key string in
  {
    put =
      (fun v rest ->
        let t, members = select v in
        tag.put t (members @ rest));
    get =
      (fun json ->
        let* t = tag.get json in
        match List.assoc_opt t branches with
        | Some dec -> dec json
        | None -> Error (Printf.sprintf "unknown %s %S" what t));
  }

(* --- signatures --------------------------------------------------------- *)

let voltage =
  enum ~what:"voltage signature" ~name_of:Macro.Signature.voltage_name
    Macro.Signature.all_voltage

let current_kind =
  enum ~what:"current kind" ~name_of:Macro.Signature.current_name
    Macro.Signature.all_current

let signature =
  record (fun voltage currents -> { Macro.Signature.voltage; currents })
  |> field (req "voltage" voltage) (fun s -> s.Macro.Signature.voltage)
  |> field (req "currents" (list current_kind)) (fun s -> s.Macro.Signature.currents)
  |> obj

(* --- faults ------------------------------------------------------------- *)

let layer = enum ~what:"layer" ~name_of:Process.Layer.name Process.Layer.all

let fault_type =
  enum ~what:"fault type" ~name_of:Fault.Types.fault_type_name
    Fault.Types.all_fault_types

let site =
  enum ~what:"pinhole site"
    ~name_of:(function
      | Fault.Types.To_source -> "source"
      | Fault.Types.To_drain -> "drain"
      | Fault.Types.To_channel -> "channel")
    [ Fault.Types.To_source; Fault.Types.To_drain; Fault.Types.To_channel ]

let severity =
  enum ~what:"severity"
    ~name_of:(function
      | Fault.Types.Catastrophic -> "catastrophic"
      | Fault.Types.Non_catastrophic -> "non-catastrophic")
    [ Fault.Types.Catastrophic; Fault.Types.Non_catastrophic ]

(* [Defect_stats.mechanism_name] is not injective ([Extra_material
   Contact] and [Extra_contact] both render "extra-contact"), so the
   mechanism is encoded structurally. *)
let mechanism =
  let open Process.Defect_stats in
  let on_layer = req "layer" layer in
  let extra = case "extra-material" on_layer (fun l -> Extra_material l)
  and missing = case "missing-material" on_layer (fun l -> Missing_material l)
  and gate_oxide = bare "gate-oxide-pinhole" Gate_oxide_pinhole
  and junction = bare "junction-pinhole" Junction_pinhole
  and thick_oxide = bare "thick-oxide-pinhole" Thick_oxide_pinhole
  and extra_contact = bare "extra-contact" Extra_contact
  and missing_contact = bare "missing-contact" Missing_contact in
  variant ~what:"defect mechanism"
    [ branch extra; branch missing; branch gate_oxide; branch junction;
      branch thick_oxide; branch extra_contact; branch missing_contact ]
    (function
      | Extra_material l -> tagged extra l
      | Missing_material l -> tagged missing l
      | Gate_oxide_pinhole -> tagged gate_oxide ()
      | Junction_pinhole -> tagged junction ()
      | Thick_oxide_pinhole -> tagged thick_oxide ()
      | Extra_contact -> tagged extra_contact ()
      | Missing_contact -> tagged missing_contact ())
  |> obj

(* A severed pin is a two-element array. *)
let far_pin =
  {
    enc = (fun (device, terminal) -> J.List [ string.enc device; string.enc terminal ]);
    dec =
      (fun json ->
        match J.to_list json with
        | Some [ d; t ] ->
          let* device = string.dec d in
          let* terminal = string.dec t in
          Ok (device, terminal)
        | Some _ | None -> error_at "expected a [device, terminal] pair" json);
  }

let fault =
  let open Fault.Types in
  let net_a = req "net_a" string and net_b = req "net_b" string in
  let net = req "net" string and device = req "device" string in
  let resistance = req "resistance" float in
  let capacitance = opt "capacitance" float in
  let origin = req "origin" fault_type in
  let bridge =
    case "bridge" (net_a *** net_b *** resistance *** capacitance *** origin)
      (fun (net_a, (net_b, (resistance, (capacitance, origin)))) ->
        Bridge { net_a; net_b; resistance; capacitance; origin })
  and cluster =
    case "bridge-cluster"
      (req "nets" (list string) *** resistance *** capacitance *** origin)
      (fun (nets, (resistance, (capacitance, origin))) ->
        Bridge_cluster { nets; resistance; capacitance; origin })
  and split =
    case "node-split" (net *** req "far_pins" (list far_pin))
      (fun (net, far_pins) -> Node_split { net; far_pins })
  and pinhole =
    case "gate-pinhole" (device *** req "site" site *** resistance)
      (fun (device, (site, resistance)) -> Gate_pinhole { device; site; resistance })
  and leak =
    case "junction-leak" (net *** req "bulk_net" string *** resistance)
      (fun (net, (bulk_net, resistance)) -> Junction_leak { net; bulk_net; resistance })
  and ds_short =
    case "device-ds-short" (device *** resistance)
      (fun (device, resistance) -> Device_ds_short { device; resistance })
  and parasitic =
    case "parasitic-mos" (req "gate_net" string *** net_a *** net_b)
      (fun (gate_net, (net_a, net_b)) -> Parasitic_mos { gate_net; net_a; net_b })
  in
  variant ~what:"fault kind"
    [ branch bridge; branch cluster; branch split; branch pinhole; branch leak;
      branch ds_short; branch parasitic ]
    (function
      | Bridge { net_a; net_b; resistance; capacitance; origin } ->
        tagged bridge (net_a, (net_b, (resistance, (capacitance, origin))))
      | Bridge_cluster { nets; resistance; capacitance; origin } ->
        tagged cluster (nets, (resistance, (capacitance, origin)))
      | Node_split { net; far_pins } -> tagged split (net, far_pins)
      | Gate_pinhole { device; site; resistance } ->
        tagged pinhole (device, (site, resistance))
      | Junction_leak { net; bulk_net; resistance } ->
        tagged leak (net, (bulk_net, resistance))
      | Device_ds_short { device; resistance } -> tagged ds_short (device, resistance)
      | Parasitic_mos { gate_net; net_a; net_b } ->
        tagged parasitic (gate_net, (net_a, net_b)))
  |> obj

let instance =
  record (fun fault severity mechanism -> { Fault.Types.fault; severity; mechanism })
  |> field (req "fault" fault) (fun i -> i.Fault.Types.fault)
  |> field (req "severity" severity) (fun i -> i.Fault.Types.severity)
  |> field (req "mechanism" mechanism) (fun i -> i.Fault.Types.mechanism)
  |> obj

let fault_class =
  record (fun representative count -> { Fault.Collapse.representative; count })
  |> field (req "representative" instance) (fun c -> c.Fault.Collapse.representative)
  |> field (req "count" int) (fun c -> c.Fault.Collapse.count)
  |> obj

(* --- evaluation outcomes ------------------------------------------------ *)

let status =
  let open Macro.Evaluate in
  let attempts = req "attempts" int in
  let converged = bare "converged" Converged
  and recovered = case "recovered" attempts (fun attempts -> Recovered { attempts })
  and unresolved =
    case "unresolved" (attempts *** req "error" string) (fun (attempts, error) ->
        Unresolved { attempts; error })
  in
  variant ~what:"outcome status"
    [ branch converged; branch recovered; branch unresolved ]
    (function
      | Converged -> tagged converged ()
      | Recovered { attempts } -> tagged recovered attempts
      | Unresolved { attempts; error } -> tagged unresolved (attempts, error))
  |> obj

let outcome =
  record (fun fault_class signature status ->
      { Macro.Evaluate.fault_class; signature; status })
  |> field (req "fault_class" fault_class) (fun o -> o.Macro.Evaluate.fault_class)
  |> field (req "signature" signature) (fun o -> o.Macro.Evaluate.signature)
  |> field (req "status" status) (fun o -> o.Macro.Evaluate.status)
  |> obj

(* --- good-signature space ----------------------------------------------- *)

let good_space =
  let window =
    record (fun name low high -> name, { Util.Stats.low; high })
    |> field (req "name" string) fst
    |> field (req "low" float) (fun (_, w) -> w.Util.Stats.low)
    |> field (req "high" float) (fun (_, w) -> w.Util.Stats.high)
    |> obj
  in
  conv Macro.Good_space.windows Macro.Good_space.of_windows (list window)

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

let analysis =
  record
    (fun sprinkled effective good classes_catastrophic classes_non_catastrophic
         outcomes_catastrophic outcomes_non_catastrophic ->
      { sprinkled; effective; good; classes_catastrophic; classes_non_catastrophic;
        outcomes_catastrophic; outcomes_non_catastrophic })
  |> field (req "sprinkled" int) (fun a -> a.sprinkled)
  |> field (req "effective" int) (fun a -> a.effective)
  |> field (req "good" good_space) (fun a -> a.good)
  |> field (req "classes_catastrophic" (list fault_class)) (fun a ->
         a.classes_catastrophic)
  |> field (req "classes_non_catastrophic" (list fault_class)) (fun a ->
         a.classes_non_catastrophic)
  |> field (req "outcomes_catastrophic" (list outcome)) (fun a ->
         a.outcomes_catastrophic)
  |> field (req "outcomes_non_catastrophic" (list outcome)) (fun a ->
         a.outcomes_non_catastrophic)
  |> obj

let analysis_to_json = analysis.enc
let analysis_of_json = analysis.dec

(* --- checkpoint partial payloads ---------------------------------------- *)

type partial_outcome = {
  section : string;
  index : int;
  outcome : Macro.Evaluate.outcome;
}

let partial_outcomes =
  record (fun section index outcome -> { section; index; outcome })
  |> field (req "section" string) (fun p -> p.section)
  |> field (req "index" int) (fun p -> p.index)
  |> field (req "outcome" outcome) (fun p -> p.outcome)
  |> obj |> list

let partial_outcomes_to_json = partial_outcomes.enc
let partial_outcomes_of_json = partial_outcomes.dec

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
             (J.to_string (mechanism.enc e.Process.Defect_stats.mechanism))
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

(* --- the request/response wire format ------------------------------------ *)

(* Version of the wire protocol, independent of the cache codec version:
   a daemon and its clients negotiate on this stamp alone, while cache
   entries keep their own lifecycle. *)
let api_version = "dotest-api/1"

(* Every wire line leads with the "api" stamp, checked before any other
   member is read. *)
let stamped m =
  let api = req "api" string in
  obj
    {
      put = (fun v rest -> api.put api_version (m.put v rest));
      get =
        (fun json ->
          let* stamp = api.get json in
          if stamp <> api_version then
            Error
              (Printf.sprintf "unsupported api version %S (this is %s)" stamp
                 api_version)
          else m.get json);
    }

let limits =
  record (fun wall_seconds max_iterations ->
      { Util.Watchdog.wall_seconds; max_iterations })
  |> field (dft "wall_seconds" (nullable float) None) (fun l ->
         l.Util.Watchdog.wall_seconds)
  |> field (req "max_iterations" (nullable int)) (fun l ->
         l.Util.Watchdog.max_iterations)
  |> obj

(* "rank1" named a third backend, the reuse policy without the banded
   kernel, until the two merged into [Auto]. Requests that still send it
   decode as [Auto]; nothing emits it, so [api_version] does not move. *)
let solver =
  let named =
    enum ~what:"solver backend" ~name_of:Circuit.Engine.solver_name
      Circuit.Engine.all_solvers
  in
  {
    named with
    dec =
      (function J.String "rank1" -> Ok Circuit.Engine.Auto | json -> named.dec json);
  }

let format = enum ~what:"format" ~name_of:Request.format_name Request.all_formats

(* The target's name and its DfT flag travel as two members; the name is
   checked once both are read. *)
let target =
  let m = req "target" string *** dft "dft" bool false in
  {
    put =
      (fun t rest ->
        let (Request.Comparator { dft } | Request.Global { dft }) = t in
        m.put (Request.target_name t, dft) rest);
    get =
      (fun json ->
        let* name, dft = m.get json in
        Request.target_of_name ~name ~dft);
  }

(* Every member except "api" and "target" is optional and defaults to
   {!Request.default}'s value, so a minimal request is
   [{"api":"dotest-api/1","target":"global"}]. *)
let request =
  let d = Request.default in
  let c =
    record
      (fun id target defects good_space_dies sigma seed max_retries strict
           inject_failures deadline solver format ->
        { Request.id; target; defects; good_space_dies; sigma; seed; max_retries;
          strict; inject_failures; deadline; solver; format })
    |> field (opt "id" string) (fun r -> r.Request.id)
    |> field target (fun r -> r.Request.target)
    |> field (dft "defects" int d.Request.defects) (fun r -> r.Request.defects)
    |> field (dft "good_space_dies" int d.Request.good_space_dies) (fun r ->
           r.Request.good_space_dies)
    |> field (dft "sigma" float d.Request.sigma) (fun r -> r.Request.sigma)
    |> field (dft "seed" int d.Request.seed) (fun r -> r.Request.seed)
    |> field (dft "max_retries" int d.Request.max_retries) (fun r ->
           r.Request.max_retries)
    |> field (dft "strict" bool d.Request.strict) (fun r -> r.Request.strict)
    |> field (dft "inject_failures" (nullable float) None) (fun r ->
           r.Request.inject_failures)
    |> field (dft "deadline" (nullable limits) None) (fun r -> r.Request.deadline)
    |> field (dft "solver" solver d.Request.solver) (fun r -> r.Request.solver)
    |> field (dft "format" format d.Request.format) (fun r -> r.Request.format)
    |> stamped
  in
  let valid r =
    if r.Request.defects < 0 then Error "defects must be non-negative"
    else if r.Request.good_space_dies < 1 then
      Error "good_space_dies must be positive"
    else Ok r
  in
  { c with dec = (fun json -> Result.bind (c.dec json) valid) }

let request_to_json = request.enc
let request_of_json = request.dec

let table =
  record (fun title body -> { Request.title; body })
  |> field (req "title" string) (fun t -> t.Request.title)
  |> field (req "body" string) (fun t -> t.Request.body)
  |> obj

let error_code =
  enum ~what:"error code" ~name_of:Request.error_code_name Request.all_error_codes

let response =
  let id = opt "id" string in
  let ok =
    case "ok"
      (record
         (fun reply_id tables cache_hits cache_misses coalesced queue_seconds
              evaluate_seconds ->
           { Request.reply_id; tables; cache_hits; cache_misses; coalesced;
             queue_seconds; evaluate_seconds })
      |> field id (fun r -> r.Request.reply_id)
      |> field (req "tables" (list table)) (fun r -> r.Request.tables)
      |> field (req "cache_hits" int) (fun r -> r.Request.cache_hits)
      |> field (req "cache_misses" int) (fun r -> r.Request.cache_misses)
      |> field (req "coalesced" bool) (fun r -> r.Request.coalesced)
      |> field (req "queue_s" float) (fun r -> r.Request.queue_seconds)
      |> field (req "evaluate_s" float) (fun r -> r.Request.evaluate_seconds))
      Result.ok
  and error =
    case "error"
      (record (fun error_id code message retry_after ->
           { Request.error_id; code; message; retry_after })
      |> field id (fun e -> e.Request.error_id)
      |> field (req "code" error_code) (fun e -> e.Request.code)
      |> field (req "message" string) (fun e -> e.Request.message)
      |> field (dft "retry_after" (nullable float) None) (fun e ->
             e.Request.retry_after))
      Result.error
  in
  variant ~key:"status" ~what:"response status" [ branch ok; branch error ]
    (function Ok reply -> tagged ok reply | Error e -> tagged error e)
  |> stamped

let response_to_json = response.enc
let response_of_json = response.dec
