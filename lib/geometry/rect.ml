type t = { x0 : int; y0 : int; x1 : int; y1 : int }

let create ~x0 ~y0 ~x1 ~y1 =
  let x0, x1 = if x0 <= x1 then x0, x1 else x1, x0 in
  let y0, y1 = if y0 <= y1 then y0, y1 else y1, y0 in
  if x0 = x1 || y0 = y1 then invalid_arg "Rect.create: zero area";
  { x0; y0; x1; y1 }

let of_size ~x ~y ~w ~h =
  if w <= 0 || h <= 0 then invalid_arg "Rect.of_size: non-positive size";
  { x0 = x; y0 = y; x1 = x + w; y1 = y + h }

let width t = t.x1 - t.x0
let height t = t.y1 - t.y0
let area t = width t * height t
let center t = (t.x0 + t.x1) / 2, (t.y0 + t.y1) / 2

let contains t (x, y) = x >= t.x0 && x <= t.x1 && y >= t.y0 && y <= t.y1

let overlaps a b = a.x0 < b.x1 && b.x0 < a.x1 && a.y0 < b.y1 && b.y0 < a.y1

let touches_or_overlaps a b =
  a.x0 <= b.x1 && b.x0 <= a.x1 && a.y0 <= b.y1 && b.y0 <= a.y1

let intersection a b =
  let x0 = max a.x0 b.x0 and x1 = min a.x1 b.x1 in
  let y0 = max a.y0 b.y0 and y1 = min a.y1 b.y1 in
  if x0 < x1 && y0 < y1 then Some { x0; y0; x1; y1 } else None

let inflate t margin =
  let r =
    { x0 = t.x0 - margin; y0 = t.y0 - margin; x1 = t.x1 + margin; y1 = t.y1 + margin }
  in
  if r.x0 >= r.x1 || r.y0 >= r.y1 then invalid_arg "Rect.inflate: collapsed";
  r

let translate t ~dx ~dy =
  { x0 = t.x0 + dx; y0 = t.y0 + dy; x1 = t.x1 + dx; y1 = t.y1 + dy }

let separation a b =
  let gap_x = max 0 (max (a.x0 - b.x1) (b.x0 - a.x1)) in
  let gap_y = max 0 (max (a.y0 - b.y1) (b.y0 - a.y1)) in
  if gap_x = 0 then float_of_int gap_y
  else if gap_y = 0 then float_of_int gap_x
  else Float.hypot (float_of_int gap_x) (float_of_int gap_y)

let equal a b = a.x0 = b.x0 && a.y0 = b.y0 && a.x1 = b.x1 && a.y1 = b.y1

let pp ppf t =
  Format.fprintf ppf "[%d,%d %dx%d]" t.x0 t.y0 (width t) (height t)
