let require_node netlist net =
  if net = "0" then Circuit.Netlist.ground
  else
    match Circuit.Netlist.find_node netlist net with
    | Some n -> n
    | None ->
      invalid_arg (Printf.sprintf "Fault.Inject: unknown net %S" net)

let pin_node_opt netlist device role =
  try Some (Circuit.Netlist.pin_node netlist { Circuit.Netlist.device; role })
  with Not_found -> None

let require_pin netlist device role =
  match pin_node_opt netlist device role with
  | Some n -> n
  | None ->
    invalid_arg (Printf.sprintf "Fault.Inject: unknown pin %s.%s" device role)

let minimum_parasitic_spec =
  {
    Circuit.Netlist.polarity = Circuit.Mos_model.Nmos;
    params = Circuit.Mos_model.default_nmos;
    w = 2e-6;
    l = 1e-6;
  }

let inject netlist fault =
  let nl = Circuit.Netlist.copy netlist in
  (match (fault : Types.fault) with
  | Types.Bridge { net_a; net_b; resistance; capacitance; origin = _ } ->
    let a = require_node nl net_a and b = require_node nl net_b in
    if not (Circuit.Netlist.node_equal a b) then begin
      Circuit.Netlist.add_resistor nl ~name:"FLT_Rbridge" a b resistance;
      match capacitance with
      | Some c -> Circuit.Netlist.add_capacitor nl ~name:"FLT_Cbridge" a b c
      | None -> ()
    end
  | Types.Bridge_cluster { nets; resistance; capacitance; origin = _ } ->
    let sorted = List.sort_uniq compare nets in
    let rec chain index = function
      | a :: (b :: _ as rest) ->
        let na = require_node nl a and nb = require_node nl b in
        if not (Circuit.Netlist.node_equal na nb) then begin
          Circuit.Netlist.add_resistor nl
            ~name:(Printf.sprintf "FLT_Rcluster%d" index)
            na nb resistance;
          match capacitance with
          | Some c ->
            Circuit.Netlist.add_capacitor nl
              ~name:(Printf.sprintf "FLT_Ccluster%d" index)
              na nb c
          | None -> ()
        end;
        chain (index + 1) rest
      | [ _ ] | [] -> ()
    in
    chain 0 sorted
  | Types.Node_split { net; far_pins } ->
    let _ = require_node nl net in
    let fresh = Circuit.Netlist.fresh_node nl ("FLT_open_" ^ net) in
    List.iter
      (fun (device, role) ->
        match pin_node_opt nl device role with
        | Some _ ->
          Circuit.Netlist.reconnect nl { Circuit.Netlist.device; role } fresh
        | None -> ())
      far_pins
  | Types.Gate_pinhole { device; site; resistance } ->
    let gate = require_pin nl device "g" in
    (match site with
    | Types.To_source ->
      Circuit.Netlist.add_resistor nl ~name:"FLT_Rgox" gate
        (require_pin nl device "s") resistance
    | Types.To_drain ->
      Circuit.Netlist.add_resistor nl ~name:"FLT_Rgox" gate
        (require_pin nl device "d") resistance
    | Types.To_channel ->
      (* The channel leak reaches both junctions: two 2R halves. *)
      Circuit.Netlist.add_resistor nl ~name:"FLT_Rgox_s" gate
        (require_pin nl device "s") (2. *. resistance);
      Circuit.Netlist.add_resistor nl ~name:"FLT_Rgox_d" gate
        (require_pin nl device "d") (2. *. resistance))
  | Types.Junction_leak { net; bulk_net; resistance } ->
    Circuit.Netlist.add_resistor nl ~name:"FLT_Rjcn" (require_node nl net)
      (require_node nl bulk_net) resistance
  | Types.Device_ds_short { device; resistance } ->
    Circuit.Netlist.add_resistor nl ~name:"FLT_Rds"
      (require_pin nl device "d") (require_pin nl device "s") resistance
  | Types.Parasitic_mos { gate_net; net_a; net_b } ->
    Circuit.Netlist.add_mosfet nl ~name:"FLT_Mnew"
      ~drain:(require_node nl net_a) ~gate:(require_node nl gate_net)
      ~source:(require_node nl net_b) ~bulk:Circuit.Netlist.ground
      minimum_parasitic_spec);
  nl

let inject_instance netlist (instance : Types.instance) =
  inject netlist instance.fault

let fault_prefix = "FLT_"

let is_fault_device name = String.starts_with ~prefix:fault_prefix name
