type node = int

let ground = 0

type mosfet_spec = {
  polarity : Mos_model.polarity;
  params : Mos_model.params;
  w : float;
  l : float;
}

type device_kind =
  | Resistor of float
  | Capacitor of float
  | Vsource of Waveform.t
  | Isource of Waveform.t
  | Mosfet of mosfet_spec

(* A device record is never mutated once it is in a netlist: [reconnect]
   puts a new record in its place. Copies therefore share every device
   neither of them changes. *)
type device = {
  name : string;
  kind : device_kind;
  roles : string array;
  pins : node array;  (* parallel to roles *)
}

(* Tables shared with a copy are never written: a netlist whose node
   tables are shared copies them before adding a node, and one whose
   device table is shared keeps its device changes in [changes] (newest
   first) on top of it until there are [max_changes] of them. Node ids
   are handed out in creation order, so [node_names.(id)] is node [id]'s
   name for every [id] below [next_node]; the slots above are spare. *)
type t = {
  mutable node_ids : (string, node) Hashtbl.t;
  mutable node_names : string array;
  mutable nodes_shared : bool;
  mutable next_node : int;
  mutable table : (string, device) Hashtbl.t;
  mutable table_shared : bool;
  mutable changes : (string * device option) list;
  mutable n_changes : int;
  mutable order : device list;  (* reverse insertion order *)
  mutable n_devices : int;
  mutable fresh_counter : int;
}

let create () =
  let node_ids = Hashtbl.create 64 in
  Hashtbl.replace node_ids "0" ground;
  {
    node_ids;
    node_names = Array.make 64 "0";
    nodes_shared = false;
    next_node = 1;
    table = Hashtbl.create 64;
    table_shared = false;
    changes = [];
    n_changes = 0;
    order = [];
    n_devices = 0;
    fresh_counter = 0;
  }

let node t name =
  if name = "0" then invalid_arg "Netlist.node: \"0\" is reserved for ground";
  match Hashtbl.find_opt t.node_ids name with
  | Some id -> id
  | None ->
    let id = t.next_node in
    let room = Array.length t.node_names in
    if t.nodes_shared || id = room then begin
      let names = Array.make (if id = room then 2 * room else room) "0" in
      Array.blit t.node_names 0 names 0 id;
      t.node_names <- names
    end;
    if t.nodes_shared then begin
      t.node_ids <- Hashtbl.copy t.node_ids;
      t.nodes_shared <- false
    end;
    t.next_node <- id + 1;
    Hashtbl.replace t.node_ids name id;
    t.node_names.(id) <- name;
    id

let fresh_node t prefix =
  let rec pick () =
    t.fresh_counter <- t.fresh_counter + 1;
    let name = Printf.sprintf "%s~%d" prefix t.fresh_counter in
    if Hashtbl.mem t.node_ids name then pick () else name
  in
  node t (pick ())

let find_node t name = Hashtbl.find_opt t.node_ids name

let node_name t id =
  if id < 0 || id >= t.next_node then invalid_arg "Netlist.node_name: unknown node"
  else t.node_names.(id)

let nodes t = List.init (t.next_node - 1) succ
let node_count t = t.next_node - 1
let node_equal (a : node) b = a = b

(* --- the device table ---------------------------------------------------- *)

let max_changes = 32

let find_device t name =
  let rec scan = function
    | [] -> Hashtbl.find_opt t.table name
    | (n, d) :: rest -> if String.equal n name then d else scan rest
  in
  scan t.changes

let set_device t name d =
  if t.table_shared then begin
    t.changes <- (name, d) :: t.changes;
    t.n_changes <- t.n_changes + 1;
    if t.n_changes > max_changes then begin
      let table = Hashtbl.copy t.table in
      List.iter
        (fun (n, d) ->
          match d with
          | Some d -> Hashtbl.replace table n d
          | None -> Hashtbl.remove table n)
        (List.rev t.changes);
      t.table <- table;
      t.table_shared <- false;
      t.changes <- [];
      t.n_changes <- 0
    end
  end
  else
    match d with
    | Some d -> Hashtbl.replace t.table name d
    | None -> Hashtbl.remove t.table name

(* [order] with [d] replaced by [by] (or dropped): the cells after [d]
   are shared. *)
let rec swap d by = function
  | [] -> []
  | d' :: rest when d' == d -> (match by with Some b -> b :: rest | None -> rest)
  | d' :: rest -> d' :: swap d by rest

let add_device t name kind roles pins =
  if Option.is_some (find_device t name) then
    invalid_arg (Printf.sprintf "Netlist: duplicate device %S" name);
  let d = { name; kind; roles; pins } in
  set_device t name (Some d);
  t.order <- d :: t.order;
  t.n_devices <- t.n_devices + 1

let check_positive what v =
  if v <= 0. || not (Float.is_finite v) then
    invalid_arg (Printf.sprintf "Netlist: %s must be positive and finite" what)

let add_resistor t ~name n1 n2 r =
  check_positive "resistance" r;
  add_device t name (Resistor r) [| "+"; "-" |] [| n1; n2 |]

let add_capacitor t ~name n1 n2 c =
  check_positive "capacitance" c;
  add_device t name (Capacitor c) [| "+"; "-" |] [| n1; n2 |]

let add_vsource t ~name ~pos ~neg wave =
  add_device t name (Vsource wave) [| "+"; "-" |] [| pos; neg |]

let add_isource t ~name ~pos ~neg wave =
  add_device t name (Isource wave) [| "+"; "-" |] [| pos; neg |]

let add_mosfet t ~name ~drain ~gate ~source ~bulk spec =
  check_positive "width" spec.w;
  check_positive "length" spec.l;
  add_device t name (Mosfet spec) [| "d"; "g"; "s"; "b" |]
    [| drain; gate; source; bulk |]

type pin = { device : string; role : string }

let device_names t = List.rev_map (fun d -> d.name) t.order
let has_device t name = Option.is_some (find_device t name)
let device_count t = t.n_devices

let pins_of_node t n =
  List.rev t.order
  |> List.concat_map (fun d ->
         Array.to_list
           (Array.mapi
              (fun i role ->
                if d.pins.(i) = n then Some { device = d.name; role } else None)
              d.roles)
         |> List.filter_map Fun.id)

let role_index d role =
  let rec scan i =
    if i >= Array.length d.roles then raise Not_found
    else if d.roles.(i) = role then i
    else scan (i + 1)
  in
  scan 0

let pin_node t pin =
  match find_device t pin.device with
  | None -> raise Not_found
  | Some d -> d.pins.(role_index d pin.role)

let reconnect t pin n =
  match find_device t pin.device with
  | None -> raise Not_found
  | Some d ->
    let pins = Array.copy d.pins in
    pins.(role_index d pin.role) <- n;
    let d' = { d with pins } in
    set_device t d.name (Some d');
    t.order <- swap d (Some d') t.order

let remove_device t name =
  match find_device t name with
  | None -> raise Not_found
  | Some d ->
    set_device t name None;
    t.order <- swap d None t.order;
    t.n_devices <- t.n_devices - 1

(* Both netlists now share the tables, so both mark them shared; the
   new record's mutable fields are its own. *)
let copy t =
  t.nodes_shared <- true;
  t.table_shared <- true;
  { t with order = t.order }

type device_view = {
  dev_name : string;
  kind : device_kind;
  pin_nodes : (string * node) list;
}

let devices t =
  List.rev_map
    (fun d ->
      {
        dev_name = d.name;
        kind = d.kind;
        pin_nodes =
          Array.to_list (Array.mapi (fun i role -> role, d.pins.(i)) d.roles);
      })
    t.order

let index_of_node n = n

let newest_first t = t.order
let device_name (d : device) = d.name
let device_kind (d : device) = d.kind
let terminal (d : device) i = d.pins.(i)

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same_kind a b =
  match a, b with
  | Resistor x, Resistor y | Capacitor x, Capacitor y -> same_float x y
  | Vsource w, Vsource v | Isource w, Isource v -> Waveform.equal w v
  | Mosfet s, Mosfet u ->
    s.polarity = u.polarity
    && same_float s.params.Mos_model.vth u.params.Mos_model.vth
    && same_float s.params.Mos_model.kp u.params.Mos_model.kp
    && same_float s.params.Mos_model.lambda u.params.Mos_model.lambda
    && same_float s.w u.w && same_float s.l u.l
  | (Resistor _ | Capacitor _ | Vsource _ | Isource _ | Mosfet _), _ -> false

(* The kind fixes the roles, so names, kinds and pins say it all. *)
let same_device (a : device) (b : device) =
  a == b
  || String.equal a.name b.name
     && same_kind a.kind b.kind
     && Array.length a.pins = Array.length b.pins
     && Array.for_all2 Int.equal a.pins b.pins

let pp ppf t =
  Format.fprintf ppf "netlist: %d nodes, %d devices@." (node_count t)
    (device_count t);
  List.iter
    (fun dv ->
      let pins =
        String.concat " "
          (List.map (fun (r, n) -> Printf.sprintf "%s=%d" r n) dv.pin_nodes)
      in
      let kind =
        match dv.kind with
        | Resistor r -> Printf.sprintf "R %g" r
        | Capacitor c -> Printf.sprintf "C %g" c
        | Vsource _ -> "V"
        | Isource _ -> "I"
        | Mosfet spec ->
          (match spec.polarity with Mos_model.Nmos -> "NMOS" | Mos_model.Pmos -> "PMOS")
      in
      Format.fprintf ppf "  %-12s %-6s %s@." dv.dev_name kind pins)
    (devices t)
