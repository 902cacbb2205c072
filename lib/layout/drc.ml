type violation = {
  rule : string;
  layer : Process.Layer.t;
  shape_a : int;
  shape_b : int option;
  detail : string;
}

let cut_enclosure = 100

let checked_layer layer =
  Process.Layer.is_conducting layer || Process.Layer.is_cut layer

let width_violations tech cell =
  Array.to_list (Cell.shapes cell)
  |> List.filter_map (fun (s : Cell.shape) ->
         if not (checked_layer s.layer) then None
         else begin
           let w = min (Geometry.Rect.width s.rect) (Geometry.Rect.height s.rect) in
           let min_w = tech.Process.Tech.min_width s.layer in
           if w < min_w then
             Some
               {
                 rule = "width";
                 layer = s.layer;
                 shape_a = s.id;
                 shape_b = None;
                 detail = Printf.sprintf "%d nm < %d nm minimum" w min_w;
               }
           else None
         end)

let spacing_violations tech cell extraction =
  let index = Cell.index cell in
  (* Device bodies (MOS channels, resistor mid-sections) electrically
     separate their terminals but physically fill the gap between them:
     two shapes joined by a common channel shape are one piece of
     material, not a spacing violation. *)
  let channels =
    Array.to_list (Cell.shapes cell)
    |> List.filter (fun (s : Cell.shape) ->
           match s.owner with
           | Cell.Channel _ -> true
           | Cell.Wire _ | Cell.Device_terminal _ | Cell.Gate _ | Cell.Cut _ ->
             false)
  in
  let bridged (a : Cell.shape) (b : Cell.shape) =
    List.exists
      (fun (chan : Cell.shape) ->
        Process.Layer.equal chan.layer a.layer
        && Geometry.Rect.touches_or_overlaps chan.rect a.rect
        && Geometry.Rect.touches_or_overlaps chan.rect b.rect)
      channels
  in
  let out = ref [] in
  Array.iter
    (fun (s : Cell.shape) ->
      if checked_layer s.layer then begin
        let spacing = tech.Process.Tech.min_spacing s.layer in
        let probe = Geometry.Rect.inflate s.rect spacing in
        Geometry.Spatial_index.query_rect index probe (fun _ other_id ->
            (* Each unordered pair once. *)
            if other_id > s.id then begin
              let other = Cell.shape cell other_id in
              if Process.Layer.equal other.layer s.layer then begin
                let gap = Geometry.Rect.separation s.rect other.rect in
                let same_net =
                  match
                    ( Extract.net_of_shape extraction s.id,
                      Extract.net_of_shape extraction other_id )
                  with
                  | Some a, Some b -> a = b
                  | _, _ -> true
                    (* channels/removed shapes: same-device material *)
                in
                if
                  (not same_net)
                  && gap > 0.0
                  && gap < float_of_int spacing
                  && not (bridged s other)
                then
                  out :=
                    {
                      rule = "spacing";
                      layer = s.layer;
                      shape_a = s.id;
                      shape_b = Some other_id;
                      detail =
                        Printf.sprintf "%.0f nm < %d nm minimum" gap spacing;
                    }
                    :: !out
              end
            end)
      end)
    (Cell.shapes cell);
  !out

(* A cut must be enclosed by material on every layer it connects. The
   contact's lower layer may be either poly or active — one suffices. *)
let enclosure_violations cell =
  let index = Cell.index cell in
  let covered (cut : Cell.shape) layers =
    (* The enclosing material may be a union of abutting shapes (e.g. a
       segmented routing track); sample the nine characteristic points of
       the required region against the union. *)
    let needed = Geometry.Rect.inflate cut.rect cut_enclosure in
    let covering = ref [] in
    Geometry.Spatial_index.query_rect index needed (fun rect other_id ->
        let other = Cell.shape cell other_id in
        if other_id <> cut.id && List.exists (Process.Layer.equal other.layer) layers
        then covering := rect :: !covering);
    let xs = [ needed.Geometry.Rect.x0; (needed.Geometry.Rect.x0 + needed.Geometry.Rect.x1) / 2; needed.Geometry.Rect.x1 ] in
    let ys = [ needed.Geometry.Rect.y0; (needed.Geometry.Rect.y0 + needed.Geometry.Rect.y1) / 2; needed.Geometry.Rect.y1 ] in
    List.for_all
      (fun x ->
        List.for_all
          (fun y ->
            List.exists (fun r -> Geometry.Rect.contains r (x, y)) !covering)
          ys)
      xs
  in
  Array.to_list (Cell.shapes cell)
  |> List.filter_map (fun (s : Cell.shape) ->
         if not (Process.Layer.is_cut s.layer) then None
         else begin
           let requirements =
             match s.layer with
             | Process.Layer.Contact ->
               [ [ Process.Layer.Poly; Process.Layer.Active ];
                 [ Process.Layer.Metal1 ] ]
             | Process.Layer.Via ->
               [ [ Process.Layer.Metal1 ]; [ Process.Layer.Metal2 ] ]
             | Process.Layer.Nwell | Process.Layer.Active | Process.Layer.Poly
             | Process.Layer.Metal1 | Process.Layer.Metal2 -> []
           in
           let missing =
             List.filter (fun layers -> not (covered s layers)) requirements
           in
           match missing with
           | [] -> None
           | layers :: _ ->
             Some
               {
                 rule = "enclosure";
                 layer = s.layer;
                 shape_a = s.id;
                 shape_b = None;
                 detail =
                   Printf.sprintf "cut not enclosed by %s (+%d nm)"
                     (String.concat "/" (List.map Process.Layer.name layers))
                     cut_enclosure;
               }
         end)

let check ?(tech = Process.Tech.cmos1um) cell =
  let extraction = Extract.extract cell in
  width_violations tech cell
  @ spacing_violations tech cell extraction
  @ enclosure_violations cell

let summary violations =
  let table = Hashtbl.create 4 in
  List.iter
    (fun v ->
      let count = try Hashtbl.find table v.rule with Not_found -> 0 in
      Hashtbl.replace table v.rule (count + 1))
    violations;
  Hashtbl.fold (fun rule count acc -> (rule, count) :: acc) table []
  |> List.sort (fun (_, a) (_, b) -> compare b a)
