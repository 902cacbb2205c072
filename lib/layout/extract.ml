type net = int

type t = {
  cell : Cell.t;
  net_of : int array;  (* net per shape, -1 for none *)
  members : int list array;  (* ascending member ids, indexed by net *)
  names : (net, string) Hashtbl.t;
  name_conflicts : (net * string list) list;
}

(* A shape participates in extraction when it is a static conductor or a
   cut. Channels and wells do not. *)
let participates (s : Cell.shape) =
  match s.owner with
  | Cell.Channel _ -> false
  | Cell.Wire _ | Cell.Device_terminal _ | Cell.Gate _ | Cell.Cut _ ->
    Process.Layer.is_conducting s.layer || Process.Layer.is_cut s.layer

(* Layers a cut lands on. Contacts join poly or active to metal1; vias
   join the metals. *)
let landings layer =
  match (layer : Process.Layer.t) with
  | Process.Layer.Contact -> [ Process.Layer.Poly; Process.Layer.Active; Process.Layer.Metal1 ]
  | Process.Layer.Via -> [ Process.Layer.Metal1; Process.Layer.Metal2 ]
  | Process.Layer.Nwell | Process.Layer.Active | Process.Layer.Poly
  | Process.Layer.Metal1 | Process.Layer.Metal2 -> []

(* The bond table: two participating shapes that touch are on one net
   when they lie on the same conducting layer, or when one is a cut and
   the other lies on a layer it lands on. Two cuts never bond. [extract]
   reads it through [bond_masks], [split] directly. *)
let bonds a b =
  if Process.Layer.is_cut a then List.mem b (landings a)
  else if Process.Layer.is_cut b then List.mem a (landings b)
  else Process.Layer.equal a b && Process.Layer.is_conducting a

(* A shape's bond class is a code for its layer when it participates,
   and -1 for channels and wells; bit [c'] of [bond_masks.(c)] says class
   [c] bonds with class [c']. *)
let class_of_layer = function
  | Process.Layer.Nwell -> 0
  | Process.Layer.Active -> 1
  | Process.Layer.Poly -> 2
  | Process.Layer.Contact -> 3
  | Process.Layer.Metal1 -> 4
  | Process.Layer.Via -> 5
  | Process.Layer.Metal2 -> 6

let bond_class (s : Cell.shape) = if participates s then class_of_layer s.layer else -1

let bond_masks =
  let mask a =
    List.fold_left
      (fun m b -> if bonds a b then m lor (1 lsl class_of_layer b) else m)
      0 Process.Layer.all
  in
  let masks = Array.make (List.length Process.Layer.all) 0 in
  List.iter (fun a -> masks.(class_of_layer a) <- mask a) Process.Layer.all;
  masks

(* One pass over the index's touching pairs finds every bond; the
   partition union-find ends with does not depend on the order the bonds
   arrive in. [net_of] holds each shape's bond class while the pass reads
   it, then its net: -1 for channels and wells either way. *)
let extract cell =
  let shapes = Cell.shapes cell in
  let n = Array.length shapes in
  let net_of = Array.map bond_class shapes in
  let uf = Util.Union_find.create n in
  Geometry.Spatial_index.iter_touching_pairs (Cell.index cell) ~kind:net_of
    ~bonds:bond_masks (fun a b -> ignore (Util.Union_find.union uf a b));
  (* A net is named by its lowest member id: shapes ascend, so the first
     one met with a given root names that root's net. *)
  let net_of_root = Array.make n (-1) in
  for id = 0 to n - 1 do
    if net_of.(id) >= 0 then begin
      let root = Util.Union_find.find uf id in
      if net_of_root.(root) < 0 then net_of_root.(root) <- id;
      net_of.(id) <- net_of_root.(root)
    end
  done;
  let members = Array.make n [] in
  for id = n - 1 downto 0 do
    let g = net_of.(id) in
    if g >= 0 then members.(g) <- id :: members.(g)
  done;
  (* Net names from wire labels; detect conflicts. *)
  let names = Hashtbl.create 16 in
  let conflicts = Hashtbl.create 4 in
  Array.iter
    (fun (s : Cell.shape) ->
      match s.owner with
      | Cell.Wire net_name when net_of.(s.id) >= 0 ->
        let g = net_of.(s.id) in
        (match Hashtbl.find_opt names g with
        | None -> Hashtbl.replace names g net_name
        | Some existing when existing = net_name -> ()
        | Some existing ->
          let clash = try Hashtbl.find conflicts g with Not_found -> [ existing ] in
          if not (List.mem net_name clash) then
            Hashtbl.replace conflicts g (net_name :: clash);
          (* Keep the lexicographically first name deterministically. *)
          if net_name < existing then Hashtbl.replace names g net_name)
      | Cell.Wire _ | Cell.Device_terminal _ | Cell.Gate _ | Cell.Channel _ | Cell.Cut _ -> ())
    shapes;
  let name_conflicts =
    Hashtbl.fold (fun g clash acc -> (g, List.sort compare clash) :: acc) conflicts []
  in
  { cell; net_of; members; names; name_conflicts }

let net_of_shape t id =
  if id < 0 || id >= Array.length t.net_of || t.net_of.(id) < 0 then None
  else Some t.net_of.(id)

let nets t =
  List.filter (fun id -> t.net_of.(id) = id) (List.init (Array.length t.net_of) Fun.id)

let shapes_of_net t net =
  if net < 0 || net >= Array.length t.members then [] else t.members.(net)

(* Removing shapes can split a net but never join two, so every surviving
   shape bonded to a member of a cut net is itself a member: re-connecting
   the survivors of those nets alone, skipping index hits on any other
   shape, reproduces a full extraction of the damaged cell there. Members
   all participate, so the bond table alone decides which touching
   survivors join. *)
let split t ~removed =
  List.filter_map (net_of_shape t) removed
  |> List.sort_uniq compare
  |> List.map (fun net ->
         let survivors =
           List.filter (fun id -> not (List.mem id removed)) t.members.(net)
           |> Array.of_list
         in
         let local = Hashtbl.create (Array.length survivors) in
         Array.iteri (fun i id -> Hashtbl.replace local id i) survivors;
         let uf = Util.Union_find.create (Array.length survivors) in
         Array.iteri
           (fun i id ->
             let s = Cell.shape t.cell id in
             Geometry.Spatial_index.query_rect (Cell.index t.cell) s.rect
               (fun _ other ->
                 match Hashtbl.find_opt local other with
                 | Some j when bonds s.layer (Cell.shape t.cell other).layer ->
                   ignore (Util.Union_find.union uf i j)
                 | Some _ | None -> ()))
           survivors;
         net, List.map (List.map (Array.get survivors)) (Util.Union_find.groups uf))

let net_name t net = Hashtbl.find_opt t.names net

let net_of_name t name =
  Hashtbl.fold
    (fun g n acc -> if n = name && acc = None then Some g else acc)
    t.names None

let check_against t netlist =
  let violations = ref [] in
  let report fmt = Format.kasprintf (fun s -> violations := s :: !violations) fmt in
  List.iter
    (fun (g, clash) ->
      report "net %d shorts distinct labels: %s" g (String.concat ", " clash))
    t.name_conflicts;
  (* Every device pin with a shape must land on the net the netlist names. *)
  Array.iter
    (fun (s : Cell.shape) ->
      let pin =
        match s.owner with
        | Cell.Device_terminal { device; terminal } -> Some (device, terminal)
        | Cell.Gate { device } -> Some (device, "g")
        | Cell.Wire _ | Cell.Channel _ | Cell.Cut _ -> None
      in
      match pin with
      | None -> ()
      | Some (device, terminal) ->
        (match net_of_shape t s.id with
        | None -> report "pin %s.%s has a non-conducting shape" device terminal
        | Some g ->
          let expected =
            try
              let node =
                Circuit.Netlist.pin_node netlist
                  { Circuit.Netlist.device; role = terminal }
              in
              Some (Circuit.Netlist.node_name netlist node)
            with Not_found -> None
          in
          (match expected, net_name t g with
          | None, _ -> report "pin %s.%s not present in netlist" device terminal
          | Some want, Some got when want <> got ->
            report "pin %s.%s extracted on net %S, netlist says %S" device
              terminal got want
          | Some want, None ->
            (* Unlabelled net: acceptable only for internal nets; a named
               node in the netlist must have a labelled wire. *)
            if String.length want > 0 && want.[0] <> '_' then
              report "pin %s.%s on unlabelled net, netlist says %S" device
                terminal want
          | Some _, Some _ -> ())))
    (Cell.shapes t.cell);
  (* All pins of one netlist node must extract into a single group — two
     disjoint groups sharing a label would otherwise pass silently. *)
  let group_of_node = Hashtbl.create 16 in
  Array.iter
    (fun (s : Cell.shape) ->
      let pin =
        match s.owner with
        | Cell.Device_terminal { device; terminal } -> Some (device, terminal)
        | Cell.Gate { device } -> Some (device, "g")
        | Cell.Wire _ | Cell.Channel _ | Cell.Cut _ -> None
      in
      match pin, net_of_shape t s.id with
      | Some (device, terminal), Some g ->
        (try
           let node =
             Circuit.Netlist.pin_node netlist
               { Circuit.Netlist.device; role = terminal }
           in
           let node_key = Circuit.Netlist.index_of_node node in
           match Hashtbl.find_opt group_of_node node_key with
           | None -> Hashtbl.replace group_of_node node_key g
           | Some g0 when g0 = g -> ()
           | Some _ ->
             report "pin %s.%s is disconnected from other pins of node %s"
               device terminal
               (Circuit.Netlist.node_name netlist node)
         with Not_found -> ())
      | (Some _ | None), _ -> ())
    (Cell.shapes t.cell);
  List.rev !violations
