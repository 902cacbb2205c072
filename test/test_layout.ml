(* Tests for the dotest.layout library: cells, extraction, synthesis. *)

open Layout

let rect = Geometry.Rect.of_size

(* ------------------------------------------------------------------ *)
(* Cell                                                                *)
(* ------------------------------------------------------------------ *)

let test_cell_builder () =
  let b = Cell.builder "c" in
  let id0 =
    Cell.add_shape b ~layer:Process.Layer.Metal1 ~rect:(rect ~x:0 ~y:0 ~w:10 ~h:10)
      ~owner:(Cell.Wire "a")
  in
  let id1 =
    Cell.add_shape b ~layer:Process.Layer.Poly ~rect:(rect ~x:20 ~y:0 ~w:10 ~h:10)
      ~owner:(Cell.Wire "b")
  in
  let cell = Cell.finish b in
  Alcotest.(check int) "ids sequential" 0 id0;
  Alcotest.(check int) "ids sequential" 1 id1;
  Alcotest.(check int) "shape count" 2 (Array.length (Cell.shapes cell));
  Alcotest.(check int) "metal1 area" 100 (Cell.layer_area cell Process.Layer.Metal1);
  Alcotest.(check int) "bbox area" 300 (Cell.area cell)

let test_cell_bounds () =
  let b = Cell.builder "b" in
  List.iter
    (fun rect ->
      ignore (Cell.add_shape b ~layer:Process.Layer.Metal1 ~rect ~owner:(Cell.Wire "a")))
    [
      rect ~x:0 ~y:0 ~w:1 ~h:1;
      Geometry.Rect.create ~x0:5 ~y0:(-2) ~x1:7 ~y1:3;
      rect ~x:2 ~y:1 ~w:1 ~h:1;
    ];
  Alcotest.(check bool) "bounds" true
    (Geometry.Rect.equal (Cell.bounds (Cell.finish b))
       (Geometry.Rect.create ~x0:0 ~y0:(-2) ~x1:7 ~y1:3))

let test_cell_empty_rejected () =
  Alcotest.check_raises "empty" (Invalid_argument "Cell.finish: empty cell")
    (fun () -> ignore (Cell.finish (Cell.builder "e")))

(* ------------------------------------------------------------------ *)
(* Extract: hand-drawn scenarios                                       *)
(* ------------------------------------------------------------------ *)

(* Two metal1 wires joined by an abutting third. *)
let test_extract_same_layer_merge () =
  let b = Cell.builder "m" in
  let s0 =
    Cell.add_shape b ~layer:Process.Layer.Metal1 ~rect:(rect ~x:0 ~y:0 ~w:100 ~h:10)
      ~owner:(Cell.Wire "n1")
  in
  let s1 =
    Cell.add_shape b ~layer:Process.Layer.Metal1
      ~rect:(rect ~x:100 ~y:0 ~w:100 ~h:10) ~owner:(Cell.Wire "n1")
  in
  let s2 =
    Cell.add_shape b ~layer:Process.Layer.Metal1
      ~rect:(rect ~x:0 ~y:50 ~w:100 ~h:10) ~owner:(Cell.Wire "n2")
  in
  let ex = Extract.extract (Cell.finish b) in
  Alcotest.(check bool) "abutting merge" true
    (Extract.net_of_shape ex s0 = Extract.net_of_shape ex s1);
  Alcotest.(check bool) "separate nets" true
    (Extract.net_of_shape ex s0 <> Extract.net_of_shape ex s2);
  Alcotest.(check int) "two nets" 2 (List.length (Extract.nets ex))

(* Poly under metal1: connected only when a contact is present. *)
let test_extract_cut_connects () =
  let build with_contact =
    let b = Cell.builder "c" in
    let poly =
      Cell.add_shape b ~layer:Process.Layer.Poly ~rect:(rect ~x:0 ~y:0 ~w:100 ~h:20)
        ~owner:(Cell.Wire "p")
    in
    let metal =
      Cell.add_shape b ~layer:Process.Layer.Metal1
        ~rect:(rect ~x:0 ~y:0 ~w:100 ~h:20) ~owner:(Cell.Wire "m")
    in
    if with_contact then
      ignore
        (Cell.add_shape b ~layer:Process.Layer.Contact
           ~rect:(rect ~x:40 ~y:5 ~w:10 ~h:10)
           ~owner:(Cell.Cut { connects_up = true }));
    let ex = Extract.extract (Cell.finish b) in
    Extract.net_of_shape ex poly = Extract.net_of_shape ex metal
  in
  Alcotest.(check bool) "no contact, no connection" false (build false);
  Alcotest.(check bool) "contact connects" true (build true)

(* The channel does not conduct: S and D of a transistor stay separate. *)
let test_extract_channel_isolates () =
  let b = Cell.builder "t" in
  let s =
    Cell.add_shape b ~layer:Process.Layer.Active ~rect:(rect ~x:0 ~y:0 ~w:30 ~h:100)
      ~owner:(Cell.Device_terminal { device = "M1"; terminal = "s" })
  in
  ignore
    (Cell.add_shape b ~layer:Process.Layer.Active
       ~rect:(rect ~x:30 ~y:0 ~w:10 ~h:100)
       ~owner:(Cell.Channel { device = "M1" }));
  let d =
    Cell.add_shape b ~layer:Process.Layer.Active
      ~rect:(rect ~x:40 ~y:0 ~w:30 ~h:100)
      ~owner:(Cell.Device_terminal { device = "M1"; terminal = "d" })
  in
  let ex = Extract.extract (Cell.finish b) in
  Alcotest.(check bool) "s and d separate" true
    (Extract.net_of_shape ex s <> Extract.net_of_shape ex d);
  Alcotest.(check bool) "channel has no net" true
    (Extract.net_of_shape ex 1 = None)

let test_split_removal_splits () =
  (* Removing the middle of three collinear wires splits the net. *)
  let b = Cell.builder "w" in
  let s0 =
    Cell.add_shape b ~layer:Process.Layer.Metal1 ~rect:(rect ~x:0 ~y:0 ~w:100 ~h:10)
      ~owner:(Cell.Wire "n")
  in
  let s1 =
    Cell.add_shape b ~layer:Process.Layer.Metal1
      ~rect:(rect ~x:100 ~y:0 ~w:100 ~h:10) ~owner:(Cell.Wire "n")
  in
  let s2 =
    Cell.add_shape b ~layer:Process.Layer.Metal1
      ~rect:(rect ~x:200 ~y:0 ~w:100 ~h:10) ~owner:(Cell.Wire "n")
  in
  let cell = Cell.finish b in
  let whole = Extract.extract cell in
  Alcotest.(check bool) "whole: one net" true
    (Extract.net_of_shape whole s0 = Extract.net_of_shape whole s2);
  Alcotest.(check (list (pair int (list (list int)))))
    "cut: the net splits, the removed shape in neither part"
    [ s0, [ [ s0 ]; [ s2 ] ] ]
    (Extract.split whole ~removed:[ s1 ])

let test_extract_net_names () =
  let b = Cell.builder "n" in
  ignore
    (Cell.add_shape b ~layer:Process.Layer.Metal1 ~rect:(rect ~x:0 ~y:0 ~w:10 ~h:10)
       ~owner:(Cell.Wire "vdd"));
  let ex = Extract.extract (Cell.finish b) in
  match Extract.net_of_name ex "vdd" with
  | Some net ->
    Alcotest.(check (option string)) "name" (Some "vdd") (Extract.net_name ex net)
  | None -> Alcotest.fail "net not found by name"

(* The bits-8 scaled core's extraction, recorded before extraction moved
   to one pass over the index's touching pairs: its net count, and a
   digest of every net's id, name and members. *)
let test_extract_scaled_core_pinned () =
  let m = Adc.Scaled.macro ~bits:8 () in
  let ex = Extract.extract (Lazy.force m.Macro.Macro_cell.cell) in
  let nets = Extract.nets ex in
  let line net =
    Printf.sprintf "%d %s %s" net
      (Option.value ~default:"-" (Extract.net_name ex net))
      (String.concat "," (List.map string_of_int (Extract.shapes_of_net ex net)))
  in
  Alcotest.(check int) "nets" 258 (List.length nets);
  Alcotest.(check string) "members and names" "d5d70421b097f8223d17e9d20688196d"
    (Digest.to_hex (Digest.string (String.concat "\n" (List.map line nets))))

(* ------------------------------------------------------------------ *)
(* Synthesis + LVS                                                     *)
(* ------------------------------------------------------------------ *)

let nmos_spec =
  {
    Circuit.Netlist.polarity = Circuit.Mos_model.Nmos;
    params = Circuit.Mos_model.default_nmos;
    w = 10e-6;
    l = 1e-6;
  }

let pmos_spec =
  {
    Circuit.Netlist.polarity = Circuit.Mos_model.Pmos;
    params = Circuit.Mos_model.default_pmos;
    w = 20e-6;
    l = 1e-6;
  }

let build_test_netlist () =
  let nl = Circuit.Netlist.create () in
  let vdd = Circuit.Netlist.node nl "vdd" in
  let vin = Circuit.Netlist.node nl "in" in
  let out = Circuit.Netlist.node nl "out" in
  let mid = Circuit.Netlist.node nl "mid" in
  Circuit.Netlist.add_vsource nl ~name:"VDD" ~pos:vdd ~neg:Circuit.Netlist.ground
    (Circuit.Waveform.dc 5.0);
  Circuit.Netlist.add_mosfet nl ~name:"MN" ~drain:out ~gate:vin
    ~source:Circuit.Netlist.ground ~bulk:Circuit.Netlist.ground nmos_spec;
  Circuit.Netlist.add_mosfet nl ~name:"MP" ~drain:out ~gate:vin ~source:vdd
    ~bulk:vdd pmos_spec;
  Circuit.Netlist.add_resistor nl ~name:"R1" out mid 5_000.0;
  Circuit.Netlist.add_capacitor nl ~name:"C1" mid Circuit.Netlist.ground 1e-12;
  nl

let test_synthesize_passes_lvs () =
  let nl = build_test_netlist () in
  let cell = Synthesize.synthesize nl ~name:"inv_rc" in
  let ex = Extract.extract cell in
  Alcotest.(check (list string)) "LVS clean" [] (Extract.check_against ex nl)

let test_synthesize_metal_dominates () =
  (* The substitution argument requires metallization to dominate the
     conducting critical area. *)
  let nl = build_test_netlist () in
  let cell = Synthesize.synthesize nl ~name:"inv_rc" in
  let metal =
    Cell.layer_area cell Process.Layer.Metal1 + Cell.layer_area cell Process.Layer.Metal2
  in
  let other =
    Cell.layer_area cell Process.Layer.Poly + Cell.layer_area cell Process.Layer.Active
  in
  Alcotest.(check bool) "metal > poly+active" true (metal > other)

let test_synthesize_track_order_respected () =
  let nl = build_test_netlist () in
  let options =
    { Synthesize.default_options with track_order = [ "out"; "in" ] }
  in
  let cell = Synthesize.synthesize ~options nl ~name:"ordered" in
  (* Tracks are horizontal rows of wide metal1 segments; identify each
     row by its y and report nets in bottom-up order. *)
  let tracks =
    Array.to_list (Cell.shapes cell)
    |> List.filter_map (fun s ->
           match s.Cell.owner with
           | Cell.Wire net
             when Process.Layer.equal s.Cell.layer Process.Layer.Metal1
                  && Geometry.Rect.width s.Cell.rect
                     > Geometry.Rect.height s.Cell.rect * 3 ->
             Some (snd (Geometry.Rect.center s.Cell.rect), net)
           | Cell.Wire _ | Cell.Device_terminal _ | Cell.Gate _ | Cell.Channel _
           | Cell.Cut _ -> None)
    |> List.sort_uniq compare
    |> List.map snd
  in
  match tracks with
  | first :: second :: _ ->
    Alcotest.(check string) "first track" "out" first;
    Alcotest.(check string) "second track" "in" second
  | _ -> Alcotest.fail "expected at least two tracks"

let test_synthesize_no_drawable () =
  let nl = Circuit.Netlist.create () in
  let a = Circuit.Netlist.node nl "a" in
  Circuit.Netlist.add_vsource nl ~name:"V1" ~pos:a ~neg:Circuit.Netlist.ground
    (Circuit.Waveform.dc 1.0);
  Alcotest.check_raises "nothing to draw"
    (Invalid_argument "Synthesize: no drawable device") (fun () ->
      ignore (Synthesize.synthesize nl ~name:"x"))

let test_synthesize_deterministic () =
  let nl = build_test_netlist () in
  let c1 = Synthesize.synthesize nl ~name:"a" in
  let c2 = Synthesize.synthesize nl ~name:"a" in
  Alcotest.(check int) "same shape count"
    (Array.length (Cell.shapes c1))
    (Array.length (Cell.shapes c2));
  Alcotest.(check int) "same area" (Cell.area c1) (Cell.area c2)


(* ------------------------------------------------------------------ *)
(* DRC                                                                 *)
(* ------------------------------------------------------------------ *)

let test_drc_width_violation () =
  let b = Cell.builder "narrow" in
  ignore
    (Cell.add_shape b ~layer:Process.Layer.Metal1
       ~rect:(rect ~x:0 ~y:0 ~w:400 ~h:5_000) ~owner:(Cell.Wire "a"));
  let violations = Drc.check (Cell.finish b) in
  Alcotest.(check bool) "width flagged" true
    (List.exists (fun v -> v.Drc.rule = "width") violations)

let test_drc_spacing_violation () =
  let b = Cell.builder "close" in
  ignore
    (Cell.add_shape b ~layer:Process.Layer.Metal1
       ~rect:(rect ~x:0 ~y:0 ~w:2_000 ~h:2_000) ~owner:(Cell.Wire "a"));
  ignore
    (Cell.add_shape b ~layer:Process.Layer.Metal1
       ~rect:(rect ~x:2_500 ~y:0 ~w:2_000 ~h:2_000) ~owner:(Cell.Wire "b"));
  let violations = Drc.check (Cell.finish b) in
  Alcotest.(check bool) "spacing flagged" true
    (List.exists (fun v -> v.Drc.rule = "spacing") violations)

let test_drc_same_net_abutting_ok () =
  let b = Cell.builder "abut" in
  ignore
    (Cell.add_shape b ~layer:Process.Layer.Metal1
       ~rect:(rect ~x:0 ~y:0 ~w:2_000 ~h:2_000) ~owner:(Cell.Wire "a"));
  ignore
    (Cell.add_shape b ~layer:Process.Layer.Metal1
       ~rect:(rect ~x:2_000 ~y:0 ~w:2_000 ~h:2_000) ~owner:(Cell.Wire "a"));
  Alcotest.(check (list string)) "clean" []
    (List.map (fun v -> v.Drc.rule) (Drc.check (Cell.finish b)))

let test_drc_channel_bridges_spacing () =
  (* Two device terminals separated by the device's channel: one piece of
     material, not a spacing violation. *)
  let b = Cell.builder "device" in
  ignore
    (Cell.add_shape b ~layer:Process.Layer.Active
       ~rect:(rect ~x:0 ~y:0 ~w:2_800 ~h:5_000)
       ~owner:(Cell.Device_terminal { device = "M1"; terminal = "s" }));
  ignore
    (Cell.add_shape b ~layer:Process.Layer.Active
       ~rect:(rect ~x:2_800 ~y:0 ~w:1_000 ~h:5_000)
       ~owner:(Cell.Channel { device = "M1" }));
  ignore
    (Cell.add_shape b ~layer:Process.Layer.Active
       ~rect:(rect ~x:3_800 ~y:0 ~w:2_800 ~h:5_000)
       ~owner:(Cell.Device_terminal { device = "M1"; terminal = "d" }));
  let spacing =
    List.filter (fun v -> v.Drc.rule = "spacing") (Drc.check (Cell.finish b))
  in
  Alcotest.(check int) "no spacing violation across channel" 0
    (List.length spacing)

let test_drc_enclosure_violation () =
  let b = Cell.builder "bare-cut" in
  ignore
    (Cell.add_shape b ~layer:Process.Layer.Contact
       ~rect:(rect ~x:0 ~y:0 ~w:1_000 ~h:1_000)
       ~owner:(Cell.Cut { connects_up = true }));
  let violations = Drc.check (Cell.finish b) in
  Alcotest.(check bool) "enclosure flagged" true
    (List.exists (fun v -> v.Drc.rule = "enclosure") violations)

let test_drc_enclosure_union_coverage () =
  (* A via straddling two abutting metal1 segments is properly enclosed
     by their union. *)
  let b = Cell.builder "union" in
  ignore
    (Cell.add_shape b ~layer:Process.Layer.Metal1
       ~rect:(rect ~x:0 ~y:0 ~w:2_000 ~h:2_000) ~owner:(Cell.Wire "a"));
  ignore
    (Cell.add_shape b ~layer:Process.Layer.Metal1
       ~rect:(rect ~x:2_000 ~y:0 ~w:2_000 ~h:2_000) ~owner:(Cell.Wire "a"));
  ignore
    (Cell.add_shape b ~layer:Process.Layer.Metal2
       ~rect:(rect ~x:0 ~y:0 ~w:4_000 ~h:2_000) ~owner:(Cell.Wire "a"));
  ignore
    (Cell.add_shape b ~layer:Process.Layer.Via
       ~rect:(rect ~x:1_500 ~y:500 ~w:1_000 ~h:1_000)
       ~owner:(Cell.Cut { connects_up = true }));
  let enclosure =
    List.filter (fun v -> v.Drc.rule = "enclosure") (Drc.check (Cell.finish b))
  in
  Alcotest.(check int) "union covers" 0 (List.length enclosure)

let test_drc_synthesized_cells_clean () =
  let nl = build_test_netlist () in
  let cell = Synthesize.synthesize nl ~name:"drc_target" in
  Alcotest.(check int) "synthesizer output is DRC-clean" 0
    (List.length (Drc.check cell))

let test_drc_summary () =
  let b = Cell.builder "two" in
  ignore
    (Cell.add_shape b ~layer:Process.Layer.Metal1
       ~rect:(rect ~x:0 ~y:0 ~w:400 ~h:400) ~owner:(Cell.Wire "a"));
  let violations = Drc.check (Cell.finish b) in
  match Drc.summary violations with
  | (rule, count) :: _ ->
    Alcotest.(check string) "width tops" "width" rule;
    Alcotest.(check bool) "count positive" true (count > 0)
  | [] -> Alcotest.fail "expected violations"

(* ------------------------------------------------------------------ *)
(* QCheck: the split against an independent oracle                    *)
(* ------------------------------------------------------------------ *)

(* Synthesized cells the split is checked on: the comparator and the
   scaled core at bits 4 and 5. *)
let oracle_cells =
  lazy
    (Array.map
       (fun (m : Macro.Macro_cell.t) -> Lazy.force m.Macro.Macro_cell.cell)
       [|
         Adc.Comparator.macro Adc.Comparator.default_options;
         Adc.Scaled.macro ~bits:4 ();
         Adc.Scaled.macro ~bits:5 ();
       |])

(* The oracle for [Extract.split cell ~removed]: the surviving shapes,
   copied in id order into a fresh cell, extracted whole. Returns, per
   surviving shape id, the set of surviving ids on its net. *)
let reference_nets cell ~removed =
  let survivors =
    Array.to_list (Cell.shapes cell)
    |> List.filter (fun (s : Cell.shape) -> not (List.mem s.id removed))
    |> Array.of_list
  in
  let b = Cell.builder "reference" in
  Array.iter
    (fun (s : Cell.shape) ->
      ignore (Cell.add_shape b ~layer:s.layer ~rect:s.rect ~owner:s.owner))
    survivors;
  let ex = Extract.extract (Cell.finish b) in
  let old_id i = survivors.(i).Cell.id in
  let net_members = Hashtbl.create 64 in
  Array.iteri
    (fun i (s : Cell.shape) ->
      match Extract.net_of_shape ex i with
      | Some net ->
        Hashtbl.replace net_members s.id
          (List.map old_id (Extract.shapes_of_net ex net))
      | None -> ())
    survivors;
  net_members

let split_matches_reference (which, picks) =
  let cell = (Lazy.force oracle_cells).(which) in
  let candidates =
    Array.to_list (Cell.shapes cell)
    |> List.filter (fun (s : Cell.shape) ->
           match s.owner with
           | Cell.Wire _ | Cell.Cut _ -> true
           | Cell.Device_terminal _ | Cell.Gate _ | Cell.Channel _ -> false)
    |> Array.of_list
  in
  let removed =
    List.sort_uniq compare
      (List.map (fun k -> candidates.(k mod Array.length candidates).Cell.id) picks)
  in
  let clean = Extract.extract cell in
  let reference = reference_nets cell ~removed in
  let split = Extract.split clean ~removed in
  let affected =
    List.filter_map (Extract.net_of_shape clean) removed |> List.sort_uniq compare
  in
  (* Every affected net's survivors, grouped as the split says, and each
     group exactly one net of the fresh extraction. *)
  List.map fst split = affected
  && List.for_all
       (fun (net, groups) ->
         List.sort compare (List.concat groups)
         = List.filter
             (fun id -> not (List.mem id removed))
             (Extract.shapes_of_net clean net)
         && List.for_all
              (fun group ->
                List.for_all
                  (fun id ->
                    match Hashtbl.find_opt reference id with
                    | Some members -> List.sort compare members = group
                    | None -> false)
                  group)
              groups)
       split

(* ------------------------------------------------------------------ *)
(* QCheck: extraction against an all-pairs oracle                      *)
(* ------------------------------------------------------------------ *)

(* Random small cells: up to 40 shapes on every layer, on a 10 nm lattice
   over 200 nm so that shapes often share an edge or a corner, with every
   kind of owner and three wire labels, so that some nets carry two. *)
let random_cell_gen =
  QCheck.Gen.(
    let shape =
      let* layer = oneofl Process.Layer.all in
      let* x = int_range 0 20 and* y = int_range 0 20 in
      let* w = int_range 1 8 and* h = int_range 1 8 in
      let* owner =
        oneofl
          [
            Cell.Wire "a";
            Cell.Wire "b";
            Cell.Wire "c";
            Cell.Device_terminal { device = "M"; terminal = "s" };
            Cell.Gate { device = "M" };
            Cell.Channel { device = "M" };
            Cell.Cut { connects_up = true };
          ]
      in
      return (layer, Geometry.Rect.of_size ~x:(10 * x) ~y:(10 * y) ~w:(10 * w) ~h:(10 * h), owner)
    in
    list_size (int_range 1 40) shape)

let print_shapes =
  QCheck.Print.list (fun (layer, r, owner) ->
      Format.asprintf "%s %a %s" (Process.Layer.name layer) Geometry.Rect.pp r
        (match owner with
        | Cell.Wire n -> "wire " ^ n
        | Cell.Device_terminal _ -> "pin"
        | Cell.Gate _ -> "gate"
        | Cell.Channel _ -> "channel"
        | Cell.Cut _ -> "cut"))

(* The connectivity rules, restated: channels and wells carry no net;
   touching shapes bond on one conducting layer, a contact with poly,
   active or metal1, a via with metal1 or metal2, and two cuts never. *)
let oracle_conducts layer owner =
  match owner, layer with
  | Cell.Channel _, _ | _, Process.Layer.Nwell -> false
  | _, _ -> true

let oracle_bonds a b =
  let open Process.Layer in
  match a, b with
  | (Contact | Via), (Contact | Via) -> false
  | Contact, (Active | Poly | Metal1) | (Active | Poly | Metal1), Contact -> true
  | Via, (Metal1 | Metal2) | (Metal1 | Metal2), Via -> true
  | _, _ -> equal a b

(* Extracts [shapes] both ways and compares every shape's net, the net
   list, each net's members and name, and the label conflicts. The
   oracle joins shapes over all pairs, with neither the index nor
   [Extract.split]. *)
let extract_matches_oracle shapes =
  let shapes = Array.of_list shapes in
  let n = Array.length shapes in
  let b = Cell.builder "random" in
  Array.iter (fun (layer, rect, owner) -> ignore (Cell.add_shape b ~layer ~rect ~owner)) shapes;
  let ex = Extract.extract (Cell.finish b) in
  let conducts i = let layer, _, owner = shapes.(i) in oracle_conducts layer owner in
  (* [net.(i)] ends as the lowest id joined to [i]: relax until stable. *)
  let net = Array.init n (fun i -> if conducts i then i else -1) in
  let changed = ref true in
  while !changed do
    changed := false;
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        let li, ri, _ = shapes.(i) and lj, rj, _ = shapes.(j) in
        if
          conducts i && conducts j && net.(j) < net.(i)
          && oracle_bonds li lj
          && Geometry.Rect.touches_or_overlaps ri rj
        then begin
          net.(i) <- net.(j);
          changed := true
        end
      done
    done
  done;
  let nets = List.sort_uniq compare (List.filter (fun g -> g >= 0) (Array.to_list net)) in
  let members g = List.filter (fun i -> net.(i) = g) (List.init n Fun.id) in
  let labels g =
    List.sort_uniq compare
      (List.filter_map
         (fun i ->
           match shapes.(i) with
           | _, _, Cell.Wire label when net.(i) = g -> Some label
           | _, _, _ -> None)
         (List.init n Fun.id))
  in
  let conflicts =
    List.filter_map
      (fun g ->
        match labels g with
        | _ :: _ :: _ as clash ->
          Some (Printf.sprintf "net %d shorts distinct labels: %s" g (String.concat ", " clash))
        | [] | [ _ ] -> None)
      nets
  in
  let reported_conflicts =
    List.filter
      (fun v -> String.length v > 4 && String.sub v 0 4 = "net ")
      (Extract.check_against ex (Circuit.Netlist.create ()))
  in
  List.for_all
    (fun i -> Extract.net_of_shape ex i = if net.(i) < 0 then None else Some net.(i))
    (List.init n Fun.id)
  && Extract.nets ex = nets
  && List.for_all
       (fun g ->
         Extract.shapes_of_net ex g = members g
         && Extract.net_name ex g
            = match labels g with [] -> None | first :: _ -> Some first)
       nets
  && List.sort compare reported_conflicts = List.sort compare conflicts

(* ------------------------------------------------------------------ *)
(* QCheck: random RC ladders always synthesize clean                   *)
(* ------------------------------------------------------------------ *)

let qcheck_props =
  let open QCheck in
  [
    Test.make ~count:300 ~name:"extract: equals an all-pairs oracle on random cells"
      (make ~print:print_shapes random_cell_gen)
      extract_matches_oracle;
    Test.make ~count:60
      ~name:"split: partitions each cut net as a fresh extraction does"
      (pair (int_range 0 2) (list_of_size (Gen.int_range 1 3) (int_bound 1_000_000)))
      split_matches_reference;
    Test.make ~count:30 ~name:"synthesize+extract: random R ladders pass LVS"
      (int_range 1 12)
      (fun n ->
        let nl = Circuit.Netlist.create () in
        let top = Circuit.Netlist.node nl "top" in
        Circuit.Netlist.add_vsource nl ~name:"V" ~pos:top
          ~neg:Circuit.Netlist.ground (Circuit.Waveform.dc 5.0);
        let rec chain i prev =
          if i = n then
            Circuit.Netlist.add_resistor nl ~name:(Printf.sprintf "R%d" i) prev
              Circuit.Netlist.ground 1_000.0
          else begin
            let next = Circuit.Netlist.node nl (Printf.sprintf "n%d" i) in
            Circuit.Netlist.add_resistor nl ~name:(Printf.sprintf "R%d" i) prev
              next 1_000.0;
            chain (i + 1) next
          end
        in
        chain 1 top;
        let cell = Synthesize.synthesize nl ~name:"ladder" in
        Extract.check_against (Extract.extract cell) nl = []);
  ]

let suites =
  [
    ( "layout.cell",
      [
        Alcotest.test_case "builder" `Quick test_cell_builder;
        Alcotest.test_case "empty rejected" `Quick test_cell_empty_rejected;
        Alcotest.test_case "bounds" `Quick test_cell_bounds;
      ] );
    ( "layout.extract",
      [
        Alcotest.test_case "same-layer merge" `Quick test_extract_same_layer_merge;
        Alcotest.test_case "cut connects" `Quick test_extract_cut_connects;
        Alcotest.test_case "channel isolates" `Quick test_extract_channel_isolates;
        Alcotest.test_case "removal splits net" `Quick test_split_removal_splits;
        Alcotest.test_case "net names" `Quick test_extract_net_names;
        Alcotest.test_case "scaled bits-8 nets pinned" `Quick
          test_extract_scaled_core_pinned;
      ] );
    ( "layout.synthesize",
      [
        Alcotest.test_case "passes LVS" `Quick test_synthesize_passes_lvs;
        Alcotest.test_case "metal dominates" `Quick test_synthesize_metal_dominates;
        Alcotest.test_case "track order" `Quick test_synthesize_track_order_respected;
        Alcotest.test_case "no drawable device" `Quick test_synthesize_no_drawable;
        Alcotest.test_case "deterministic" `Quick test_synthesize_deterministic;
      ] );
    ( "layout.drc",
      [
        Alcotest.test_case "width violation" `Quick test_drc_width_violation;
        Alcotest.test_case "spacing violation" `Quick test_drc_spacing_violation;
        Alcotest.test_case "same-net abutting ok" `Quick test_drc_same_net_abutting_ok;
        Alcotest.test_case "channel bridges spacing" `Quick test_drc_channel_bridges_spacing;
        Alcotest.test_case "enclosure violation" `Quick test_drc_enclosure_violation;
        Alcotest.test_case "enclosure union coverage" `Quick test_drc_enclosure_union_coverage;
        Alcotest.test_case "synthesized cells clean" `Quick test_drc_synthesized_cells_clean;
        Alcotest.test_case "summary" `Quick test_drc_summary;
      ] );
    "layout.properties", List.map QCheck_alcotest.to_alcotest qcheck_props;
  ]
