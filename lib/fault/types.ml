type fault_type =
  | Short
  | Extra_contact
  | Gate_oxide_pinhole
  | Junction_pinhole
  | Thick_oxide_pinhole
  | Open
  | New_device
  | Shorted_device

let fault_type_name = function
  | Short -> "short"
  | Extra_contact -> "extra contact"
  | Gate_oxide_pinhole -> "gate oxide pinhole"
  | Junction_pinhole -> "junction pinhole"
  | Thick_oxide_pinhole -> "thick oxide pinhole"
  | Open -> "open"
  | New_device -> "new device"
  | Shorted_device -> "shorted device"

let all_fault_types =
  [
    Short; Extra_contact; Gate_oxide_pinhole; Junction_pinhole;
    Thick_oxide_pinhole; Open; New_device; Shorted_device;
  ]

type pinhole_site = To_source | To_drain | To_channel

type fault =
  | Bridge of {
      net_a : string;
      net_b : string;
      resistance : float;
      capacitance : float option;
      origin : fault_type;
    }
  | Bridge_cluster of {
      nets : string list;
      resistance : float;
      capacitance : float option;
      origin : fault_type;
    }
  | Node_split of { net : string; far_pins : (string * string) list }
  | Gate_pinhole of { device : string; site : pinhole_site; resistance : float }
  | Junction_leak of { net : string; bulk_net : string; resistance : float }
  | Device_ds_short of { device : string; resistance : float }
  | Parasitic_mos of { gate_net : string; net_a : string; net_b : string }

let type_of_fault = function
  | Bridge { origin; _ } | Bridge_cluster { origin; _ } -> origin
  | Node_split _ -> Open
  | Gate_pinhole _ -> Gate_oxide_pinhole
  | Junction_leak _ -> Junction_pinhole
  | Device_ds_short _ -> Shorted_device
  | Parasitic_mos _ -> New_device

type severity = Catastrophic | Non_catastrophic

type instance = {
  fault : fault;
  severity : severity;
  mechanism : Process.Defect_stats.mechanism;
}

let site_name = function
  | To_source -> "src"
  | To_drain -> "drn"
  | To_channel -> "chan"

let canonical_key = function
  | Bridge { net_a; net_b; resistance; capacitance; origin } ->
    let a, b = if net_a <= net_b then net_a, net_b else net_b, net_a in
    Printf.sprintf "bridge:%s:%s:%s:%g:%b" (fault_type_name origin) a b
      resistance (capacitance <> None)
  | Bridge_cluster { nets; resistance; capacitance; origin } ->
    Printf.sprintf "cluster:%s:[%s]:%g:%b" (fault_type_name origin)
      (String.concat "," (List.sort compare nets))
      resistance (capacitance <> None)
  | Node_split { net; far_pins } ->
    let pins =
      List.sort compare far_pins
      |> List.map (fun (d, t) -> d ^ "." ^ t)
      |> String.concat ","
    in
    Printf.sprintf "open:%s:[%s]" net pins
  | Gate_pinhole { device; site; resistance } ->
    Printf.sprintf "gox:%s:%s:%g" device (site_name site) resistance
  | Junction_leak { net; bulk_net; resistance } ->
    Printf.sprintf "jcn:%s:%s:%g" net bulk_net resistance
  | Device_ds_short { device; resistance } ->
    Printf.sprintf "dshort:%s:%g" device resistance
  | Parasitic_mos { gate_net; net_a; net_b } ->
    let a, b = if net_a <= net_b then net_a, net_b else net_b, net_a in
    Printf.sprintf "newdev:%s:%s:%s" gate_net a b

let pp_fault ppf = function
  | Bridge { net_a; net_b; resistance; capacitance; origin } ->
    Format.fprintf ppf "%s %s-%s (%g ohm%s)" (fault_type_name origin) net_a
      net_b resistance
      (match capacitance with None -> "" | Some c -> Format.asprintf " || %gF" c)
  | Bridge_cluster { nets; resistance; origin; capacitance = _ } ->
    Format.fprintf ppf "%s cluster %s (%g ohm)" (fault_type_name origin)
      (String.concat "-" nets) resistance
  | Node_split { net; far_pins } ->
    Format.fprintf ppf "open on %s cutting %d pin(s)" net (List.length far_pins)
  | Gate_pinhole { device; site; resistance } ->
    Format.fprintf ppf "gate-oxide pinhole %s->%s (%g ohm)" device
      (site_name site) resistance
  | Junction_leak { net; bulk_net; resistance } ->
    Format.fprintf ppf "junction pinhole %s->%s (%g ohm)" net bulk_net resistance
  | Device_ds_short { device; resistance } ->
    Format.fprintf ppf "shorted device %s (%g ohm)" device resistance
  | Parasitic_mos { gate_net; net_a; net_b } ->
    Format.fprintf ppf "new device gate=%s %s-%s" gate_net net_a net_b
