type owner =
  | Wire of string
  | Device_terminal of { device : string; terminal : string }
  | Gate of { device : string }
  | Channel of { device : string }
  | Cut of { connects_up : bool }

type shape = {
  id : int;
  layer : Process.Layer.t;
  rect : Geometry.Rect.t;
  owner : owner;
}

type t = {
  cell_name : string;
  cell_shapes : shape array;
  cell_bounds : Geometry.Rect.t;
  mutable cached_index : int Geometry.Spatial_index.t option;
  mutable cached_fingerprint : string option;
}

type builder = { b_name : string; mutable rev_shapes : shape list; mutable next : int }

let builder name = { b_name = name; rev_shapes = []; next = 0 }

let add_shape b ~layer ~rect ~owner =
  let id = b.next in
  b.next <- id + 1;
  b.rev_shapes <- { id; layer; rect; owner } :: b.rev_shapes;
  id

(* The box around every shape of a non-empty array, in one pass. *)
let bounds_of shapes =
  let first = shapes.(0).rect in
  let x0 = ref first.Geometry.Rect.x0 and y0 = ref first.Geometry.Rect.y0 in
  let x1 = ref first.Geometry.Rect.x1 and y1 = ref first.Geometry.Rect.y1 in
  for i = 1 to Array.length shapes - 1 do
    let r = shapes.(i).rect in
    x0 := Int.min !x0 r.Geometry.Rect.x0;
    y0 := Int.min !y0 r.Geometry.Rect.y0;
    x1 := Int.max !x1 r.Geometry.Rect.x1;
    y1 := Int.max !y1 r.Geometry.Rect.y1
  done;
  Geometry.Rect.create ~x0:!x0 ~y0:!y0 ~x1:!x1 ~y1:!y1

let finish b =
  if b.rev_shapes = [] then invalid_arg "Cell.finish: empty cell";
  let cell_shapes = Array.of_list (List.rev b.rev_shapes) in
  let cell_bounds = bounds_of cell_shapes in
  {
    cell_name = b.b_name;
    cell_shapes;
    cell_bounds;
    cached_index = None;
    cached_fingerprint = None;
  }

let name t = t.cell_name
let shapes t = t.cell_shapes
let shape t id = t.cell_shapes.(id)
let bounds t = t.cell_bounds

let layer_area t layer =
  Array.fold_left
    (fun acc s ->
      if Process.Layer.equal s.layer layer then acc + Geometry.Rect.area s.rect
      else acc)
    0 t.cell_shapes

let area t = Geometry.Rect.area t.cell_bounds

let index t =
  match t.cached_index with
  | Some idx -> idx
  | None ->
    let idx =
      Geometry.Spatial_index.of_arrays ~bounds:t.cell_bounds
        (Array.map (fun s -> s.rect) t.cell_shapes)
        (Array.map (fun s -> s.id) t.cell_shapes)
    in
    t.cached_index <- Some idx;
    idx

let owner_part = function
  | Wire net -> "wire " ^ net
  | Device_terminal { device; terminal } ->
    Printf.sprintf "pin %s.%s" device terminal
  | Gate { device } -> "gate " ^ device
  | Channel { device } -> "channel " ^ device
  | Cut { connects_up } -> if connects_up then "cut up" else "cut down"

let shape_part s =
  Printf.sprintf "%d %s (%d,%d)-(%d,%d) %s" s.id (Process.Layer.name s.layer)
    s.rect.Geometry.Rect.x0 s.rect.Geometry.Rect.y0 s.rect.Geometry.Rect.x1
    s.rect.Geometry.Rect.y1 (owner_part s.owner)

(* Spelling the shapes out costs milliseconds on a macro of a few
   thousand shapes, and a finished cell's shapes never change, so the
   digest is kept like the index. Racing domains compute equal strings;
   either write is fine. *)
let fingerprint t =
  match t.cached_fingerprint with
  | Some fp -> fp
  | None ->
    let fp =
      Util.Cache.fingerprint
        ("cell" :: t.cell_name
        :: (Array.to_list t.cell_shapes |> List.map shape_part))
    in
    t.cached_fingerprint <- Some fp;
    fp

let pp_summary ppf t =
  Format.fprintf ppf "cell %s: %d shapes, %dx%d nm" t.cell_name
    (Array.length t.cell_shapes)
    (Geometry.Rect.width t.cell_bounds)
    (Geometry.Rect.height t.cell_bounds)
