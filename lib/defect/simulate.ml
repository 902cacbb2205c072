type result = {
  sprinkled : int;
  effective : int;
  instances : Fault.Types.instance list;
}

let src = Logs.Src.create "dotest.defect" ~doc:"spot-defect simulator"

module Log = (val Logs.src_log src : Logs.LOG)

(* Shapes of the cell hit by the disc, as (shape, net option) pairs in
   ascending shape id. The order the index visits shapes in follows its
   grid; the analyzers must not see it, since [vertical_bridges] takes
   each pair's orientation from the list order. *)
let hits ~cell ~extraction circle =
  let acc = ref [] in
  Geometry.Spatial_index.query_circle (Layout.Cell.index cell) circle
    (fun _ id ->
      let s = Layout.Cell.shape cell id in
      acc := (s, Layout.Extract.net_of_shape extraction id) :: !acc);
  List.sort
    (fun ((a : Layout.Cell.shape), _) ((b : Layout.Cell.shape), _) -> compare a.id b.id)
    !acc

let net_label extraction net = Layout.Extract.net_name extraction net

(* Distinct named nets among hits filtered by [keep]. *)
let named_nets ~extraction hits keep =
  List.filter_map
    (fun ((s : Layout.Cell.shape), net) ->
      match net with
      | Some g when keep s -> net_label extraction g
      | Some _ | None -> None)
    hits
  |> List.sort_uniq compare

let rec pairs = function
  | [] -> []
  | x :: rest -> List.map (fun y -> x, y) rest @ pairs rest

(* --- extra material --------------------------------------------------- *)

let analyze_extra_material ~tech ~netlist ~extraction layer hits_all mechanism =
  let on_layer (s : Layout.Cell.shape) = Process.Layer.equal s.layer layer in
  let instance fault =
    { Fault.Types.fault; severity = Fault.Types.Catastrophic; mechanism }
  in
  (* Drain-source short: an active spot touching both junctions of one
     device. *)
  let ds_shorted_devices =
    if not (Process.Layer.equal layer Process.Layer.Active) then []
    else begin
      let touched = Hashtbl.create 4 in
      List.iter
        (fun ((s : Layout.Cell.shape), _) ->
          match s.owner with
          | Layout.Cell.Device_terminal { device; terminal = ("s" | "d") as t }
            when on_layer s ->
            let seen = try Hashtbl.find touched device with Not_found -> [] in
            if not (List.mem t seen) then Hashtbl.replace touched device (t :: seen)
          | Layout.Cell.Device_terminal _ | Layout.Cell.Wire _
          | Layout.Cell.Gate _ | Layout.Cell.Channel _ | Layout.Cell.Cut _ -> ())
        hits_all;
      Hashtbl.fold
        (fun device seen acc -> if List.length seen = 2 then device :: acc else acc)
        touched []
      |> List.sort compare
    end
  in
  match ds_shorted_devices with
  | _ :: _ ->
    List.map
      (fun device ->
        instance
          (Fault.Types.Device_ds_short
             { device; resistance = tech.Process.Tech.shorted_device_resistance }))
      ds_shorted_devices
  | [] ->
    let nets = named_nets ~extraction hits_all on_layer in
    (match nets with
    | [ net_a; net_b ] ->
      let resistance = tech.Process.Tech.short_resistance layer in
      [
        instance
          (Fault.Types.Bridge
             { net_a; net_b; resistance; capacitance = None;
               origin = Fault.Types.Short });
      ]
    | _ :: _ :: _ ->
      (* One spot merging three or more nets is a single compound fault:
         splitting it into independent pairs would let an undetectable
         pair hide the detectable whole. *)
      let resistance = tech.Process.Tech.short_resistance layer in
      [
        instance
          (Fault.Types.Bridge_cluster
             { nets; resistance; capacitance = None;
               origin = Fault.Types.Short });
      ]
    | nets_hit ->
      (* Parasitic device: an extra poly spot over a channel, reaching a
         poly net other than the device's own gate. *)
      if not (Process.Layer.equal layer Process.Layer.Poly) then []
      else begin
        let channels =
          List.filter_map
            (fun ((s : Layout.Cell.shape), _) ->
              match s.owner with
              | Layout.Cell.Channel { device } -> Some device
              | Layout.Cell.Device_terminal _ | Layout.Cell.Wire _
              | Layout.Cell.Gate _ | Layout.Cell.Cut _ -> None)
            hits_all
          |> List.sort_uniq compare
        in
        List.concat_map
          (fun device ->
            let own_gate_net =
              try
                Some
                  (Circuit.Netlist.node_name netlist
                     (Circuit.Netlist.pin_node netlist
                        { Circuit.Netlist.device; role = "g" }))
              with Not_found -> None
            in
            let foreign =
              List.filter (fun n -> Some n <> own_gate_net) nets_hit
            in
            match foreign with
            | gate_net :: _ ->
              (try
                 let net_of role =
                   Circuit.Netlist.node_name netlist
                     (Circuit.Netlist.pin_node netlist
                        { Circuit.Netlist.device; role })
                 in
                 [
                   instance
                     (Fault.Types.Parasitic_mos
                        { gate_net; net_a = net_of "d"; net_b = net_of "s" });
                 ]
               with Not_found -> [])
            | [] -> [])
          channels
      end)

(* --- missing material / missing contact ------------------------------- *)

(* Pins carried by a shape. *)
let pins_of_shape (s : Layout.Cell.shape) =
  match s.owner with
  | Layout.Cell.Device_terminal { device; terminal } -> [ device, terminal ]
  | Layout.Cell.Gate { device } -> [ device, "g" ]
  | Layout.Cell.Wire _ | Layout.Cell.Channel _ | Layout.Cell.Cut _ -> []

(* Classify the net splits caused by removing [removed] shape ids. *)
let open_faults ~cell ~extraction ~removed mechanism =
  match Layout.Extract.split extraction ~removed with
  | [] -> []
  | splits ->
    Util.Telemetry.count "severing_spots";
    List.filter_map
      (fun (net, groups) ->
        let name =
          match net_label extraction net with
          | Some n -> n
          | None -> "?"
        in
        let group_of_shape = Hashtbl.create 64 in
        List.iteri
          (fun g ids -> List.iter (fun id -> Hashtbl.replace group_of_shape id g) ids)
          groups;
        (* Pins of the original net, keyed by the group they now belong
           to; pins on removed shapes have no group. *)
        let pin_groups =
          List.concat_map
            (fun id ->
              List.map
                (fun pin -> pin, Hashtbl.find_opt group_of_shape id)
                (pins_of_shape (Layout.Cell.shape cell id)))
            (Layout.Extract.shapes_of_net extraction net)
        in
        if pin_groups = [] then None
        else begin
          (* The anchor group — the side that remains "the net" — is the
             group holding the largest area of the net's labelled wiring
             (ports and external connections live on the routing tracks);
             on equal areas, the group holding the lowest shape id, which
             comes first. All pins outside it are cut off. *)
          let wire_area ids =
            List.fold_left
              (fun acc id ->
                let s = Layout.Cell.shape cell id in
                match s.owner with
                | Layout.Cell.Wire label when label = name ->
                  acc + Geometry.Rect.area s.rect
                | Layout.Cell.Wire _ | Layout.Cell.Device_terminal _
                | Layout.Cell.Gate _ | Layout.Cell.Channel _ | Layout.Cell.Cut _ -> acc)
              0 ids
          in
          let anchor, _ =
            List.fold_left
              (fun (best, best_area) (g, area) ->
                if area > best_area then Some g, area else best, best_area)
              (None, 0)
              (List.mapi (fun g ids -> g, wire_area ids) groups)
          in
          let far_pins =
            List.filter_map
              (fun (pin, group) ->
                match group, anchor with
                | Some g, Some a when g = a -> None
                | (Some _ | None), _ -> Some pin)
              pin_groups
            |> List.sort_uniq compare
          in
          if far_pins = [] then None
          else
            Some
              {
                Fault.Types.fault = Fault.Types.Node_split { net = name; far_pins };
                severity = Fault.Types.Catastrophic;
                mechanism;
              }
        end)
      splits

let analyze_missing_material ~cell ~extraction layer hits_all circle mechanism =
  let severed =
    List.filter_map
      (fun ((s : Layout.Cell.shape), _) ->
        if not (Process.Layer.equal s.layer layer) then None
        else begin
          (* The hole must span the wire's narrow dimension to sever it. *)
          let axis =
            if Geometry.Rect.width s.rect <= Geometry.Rect.height s.rect then `X
            else `Y
          in
          if Geometry.Circle.covers_rect_span circle s.rect ~axis then Some s.id
          else None
        end)
      hits_all
  in
  if severed = [] then [] else open_faults ~cell ~extraction ~removed:severed mechanism

let analyze_missing_contact ~cell ~extraction hits_all circle mechanism =
  let killed =
    List.filter_map
      (fun ((s : Layout.Cell.shape), _) ->
        match s.owner with
        | Layout.Cell.Cut _
          when Geometry.Circle.covers_rect_span circle s.rect ~axis:`X
               || Geometry.Circle.covers_rect_span circle s.rect ~axis:`Y ->
          Some s.id
        | Layout.Cell.Cut _ | Layout.Cell.Wire _ | Layout.Cell.Device_terminal _
        | Layout.Cell.Gate _ | Layout.Cell.Channel _ -> None)
      hits_all
  in
  if killed = [] then [] else open_faults ~cell ~extraction ~removed:killed mechanism

(* --- pinholes ---------------------------------------------------------- *)

let analyze_gate_oxide ~tech hits_all circle mechanism =
  List.filter_map
    (fun ((s : Layout.Cell.shape), _) ->
      match s.owner with
      | Layout.Cell.Channel { device }
        when Process.Layer.equal s.layer Process.Layer.Active ->
        (* The leak lands where the spot sits along the channel: source
           third, drain third, or the middle. *)
        let x0 = (Geometry.Rect.center s.rect |> fst) in
        let w = Geometry.Rect.width s.rect in
        let dx = circle.Geometry.Circle.cx - x0 in
        let site =
          if dx * 3 < -w / 2 then Fault.Types.To_source
          else if dx * 3 > w / 2 then Fault.Types.To_drain
          else Fault.Types.To_channel
        in
        Some
          {
            Fault.Types.fault =
              Fault.Types.Gate_pinhole
                { device; site;
                  resistance = tech.Process.Tech.gate_oxide_pinhole_resistance };
            severity = Fault.Types.Catastrophic;
            mechanism;
          }
      | Layout.Cell.Channel _ | Layout.Cell.Wire _ | Layout.Cell.Device_terminal _
      | Layout.Cell.Gate _ | Layout.Cell.Cut _ -> None)
    hits_all

let analyze_junction ~tech ~netlist ~extraction hits_all mechanism =
  List.filter_map
    (fun ((s : Layout.Cell.shape), net) ->
      match s.owner, net with
      | Layout.Cell.Device_terminal { device; terminal = "s" | "d" }, Some g
        when Process.Layer.equal s.layer Process.Layer.Active ->
        (match net_label extraction g with
        | None -> None
        | Some name ->
          let bulk_net =
            try
              Circuit.Netlist.node_name netlist
                (Circuit.Netlist.pin_node netlist
                   { Circuit.Netlist.device; role = "b" })
            with Not_found -> "0"
          in
          if bulk_net = name then None
          else
            Some
              {
                Fault.Types.fault =
                  Fault.Types.Junction_leak
                    { net = name; bulk_net;
                      resistance = tech.Process.Tech.junction_pinhole_resistance };
                severity = Fault.Types.Catastrophic;
                mechanism;
              })
      | ( ( Layout.Cell.Device_terminal _ | Layout.Cell.Wire _ | Layout.Cell.Gate _
          | Layout.Cell.Channel _ | Layout.Cell.Cut _ ),
          _ ) -> None)
    hits_all
  |> List.sort_uniq compare

(* Vertical bridges: two conducting shapes of distinct nets on different
   layers, both under the spot, that geometrically overlap each other. *)
let vertical_bridges ~extraction hits_all ~adjacent_only =
  let conducting =
    List.filter_map
      (fun ((s : Layout.Cell.shape), net) ->
        match net with
        | Some g when Process.Layer.is_conducting s.layer ->
          (match net_label extraction g with
          | Some name -> Some (s, name)
          | None -> None)
        | Some _ | None -> None)
      hits_all
  in
  let layer_rank = function
    | Process.Layer.Active -> 0
    | Process.Layer.Poly -> 0  (* same level: poly and active both sit under metal1 *)
    | Process.Layer.Metal1 -> 1
    | Process.Layer.Metal2 -> 2
    | Process.Layer.Nwell | Process.Layer.Contact | Process.Layer.Via -> -1
  in
  pairs conducting
  |> List.filter_map (fun ((sa, na), (sb, nb)) ->
         if na = nb then None
         else begin
           let ra = layer_rank sa.Layout.Cell.layer
           and rb = layer_rank sb.Layout.Cell.layer in
           let adjacent = abs (ra - rb) = 1 in
           let crosses =
             Geometry.Rect.overlaps sa.Layout.Cell.rect sb.Layout.Cell.rect
           in
           if ra <> rb && crosses && ((not adjacent_only) || adjacent) then
             Some (na, nb)
           else None
         end)
  (* One bridge per unordered net pair, in the orientation the pair first
     meets the spot in: hits on nets B, A, B would otherwise report both
     B–A and A–B. *)
  |> List.fold_left
       (fun kept (a, b) ->
         if List.mem (a, b) kept || List.mem (b, a) kept then kept
         else (a, b) :: kept)
       []
  |> List.sort compare

let analyze_thick_oxide ~tech ~extraction hits_all mechanism =
  vertical_bridges ~extraction hits_all ~adjacent_only:false
  |> List.map (fun (net_a, net_b) ->
         {
           Fault.Types.fault =
             Fault.Types.Bridge
               { net_a; net_b;
                 resistance = tech.Process.Tech.thick_oxide_pinhole_resistance;
                 capacitance = None;
                 origin = Fault.Types.Thick_oxide_pinhole };
           severity = Fault.Types.Catastrophic;
           mechanism;
         })

let analyze_extra_contact ~tech ~extraction hits_all mechanism =
  vertical_bridges ~extraction hits_all ~adjacent_only:true
  |> List.map (fun (net_a, net_b) ->
         {
           Fault.Types.fault =
             Fault.Types.Bridge
               { net_a; net_b;
                 resistance = tech.Process.Tech.extra_contact_resistance;
                 capacitance = None;
                 origin = Fault.Types.Extra_contact };
           severity = Fault.Types.Catastrophic;
           mechanism;
         })

(* --- entry points ------------------------------------------------------ *)

let analyze ~tech ~cell ~netlist ~extraction mechanism circle =
  let hits_all = hits ~cell ~extraction circle in
  if hits_all = [] then []
  else
    match (mechanism : Process.Defect_stats.mechanism) with
    | Process.Defect_stats.Extra_material layer ->
      analyze_extra_material ~tech ~netlist ~extraction layer hits_all mechanism
    | Process.Defect_stats.Missing_material layer ->
      analyze_missing_material ~cell ~extraction layer hits_all circle mechanism
    | Process.Defect_stats.Gate_oxide_pinhole ->
      analyze_gate_oxide ~tech hits_all circle mechanism
    | Process.Defect_stats.Junction_pinhole ->
      analyze_junction ~tech ~netlist ~extraction hits_all mechanism
    | Process.Defect_stats.Thick_oxide_pinhole ->
      analyze_thick_oxide ~tech ~extraction hits_all mechanism
    | Process.Defect_stats.Extra_contact ->
      analyze_extra_contact ~tech ~extraction hits_all mechanism
    | Process.Defect_stats.Missing_contact ->
      analyze_missing_contact ~cell ~extraction hits_all circle mechanism

(* Draws are partitioned into fixed-size chunks; the partition depends only
   on [n], never on the job count. Each chunk consumes its own split PRNG
   stream and chunk results are merged in chunk order, so the output is
   bit-identical whether the chunks run on one domain or eight. The chunk
   size itself is part of the stream assignment: another size would
   re-partition the draws over split streams and yield a different
   (equally valid) defect sample. *)
let chunk_size = 1_000

let run ~tech ~stats ~cell ~netlist prng ~n =
  if n <= 0 then invalid_arg "Defect.Simulate.run: n must be positive";
  let extraction = Layout.Extract.extract cell in
  let bounds = Layout.Cell.bounds cell in
  let margin = 4_000 in
  let field = Geometry.Rect.inflate bounds margin in
  let x0 = fst (Geometry.Rect.center field) - (Geometry.Rect.width field / 2) in
  let y0 = snd (Geometry.Rect.center field) - (Geometry.Rect.height field / 2) in
  (* Split streams are drawn sequentially from the caller's generator, one
     per chunk, before any worker starts. *)
  let streams =
    Util.Pool.chunk_ranges ~n ~chunk_size
    |> List.map (fun (_, length) -> Util.Prng.split prng, length)
  in
  let sprinkle_chunk (rng, length) =
    let effective = ref 0 in
    let instances = ref [] in
    for _ = 1 to length do
      let mechanism = Process.Defect_stats.sample_mechanism stats rng in
      let diameter = Process.Defect_stats.sample_size stats rng mechanism in
      let cx = x0 + Util.Prng.int rng (Geometry.Rect.width field) in
      let cy = y0 + Util.Prng.int rng (Geometry.Rect.height field) in
      let circle = Geometry.Circle.create ~cx ~cy ~radius:(diameter /. 2.) in
      match analyze ~tech ~cell ~netlist ~extraction mechanism circle with
      | [] -> ()
      | faults ->
        incr effective;
        instances := List.rev_append faults !instances
    done;
    !effective, List.rev !instances
  in
  let per_chunk =
    Util.Pool.parallel_mapi
      (fun chunk stream ->
        Util.Telemetry.with_span
          ~attrs:
            [
              "chunk", Util.Telemetry.Int chunk;
              "draws", Util.Telemetry.Int (snd stream);
            ]
          "sprinkle.chunk"
        @@ fun () ->
        let (effective, instances) as result = sprinkle_chunk stream in
        Util.Telemetry.count ~by:(snd stream) "samples_drawn";
        Util.Telemetry.count ~by:effective "defects_effective";
        Util.Telemetry.count ~by:(List.length instances) "fault_instances";
        Util.Telemetry.add_span_attrs
          [ "effective", Util.Telemetry.Int effective ];
        result)
      streams
  in
  let effective = List.fold_left (fun acc (e, _) -> acc + e) 0 per_chunk in
  let instances = List.concat_map snd per_chunk in
  Log.info (fun m ->
      m "sprinkled %d defects on %s: %d effective" n (Layout.Cell.name cell)
        effective);
  { sprinkled = n; effective; instances }
