(* A uniform grid of [cols] x [rows] square buckets over [bounds],
   numbered row by row. *)
type grid = { bounds : Rect.t; cell_size : int; cols : int; rows : int }

(* A frozen grid in CSR form: the ids of the entries overlapping bucket
   [b] are [members.(starts.(b))] .. [members.(starts.(b + 1) - 1)],
   ascending. Entry [id]'s rectangle and payload sit at [rects.(id)] and
   [payloads.(id)]. *)
type 'a t = {
  grid : grid;
  starts : int array;
  members : int array;
  rects : Rect.t array;
  payloads : 'a array;
}

(* Deduplication marks: seen.(id) = stamp means entry [id] was already
   visited by the current query. Several domains query one index at once
   (the sprinkle chunks, and the local re-extractions of wire-severing
   spots), so the marks live in domain-local scratch, never in the index.
   Stamps only grow, so one array serves every index its domain queries. *)
type scratch = { mutable stamp : int; mutable seen : int array; mutable busy : bool }

let fresh_scratch () = { stamp = 0; seen = [||]; busy = false }
let scratch_key = Domain.DLS.new_key fresh_scratch

(* About this many entries per bucket. One per bucket gave a long wire so
   many memberships that the grid cost more memory for no speed. *)
let entries_per_bucket = 4

(* The edge of a square bucket covering [bounds] with about
   [entries_per_bucket] entries each, widened when one axis alone would
   need more buckets than that: a thin strip of bounds must not get a
   grid larger than its entry count. *)
let bucket_edge bounds n =
  let buckets = max 1 (n / entries_per_bucket) in
  let w = Rect.width bounds and h = Rect.height bounds in
  let square =
    Float.to_int (Float.ceil (Float.sqrt (float w *. float h /. float buckets)))
  in
  max 1 (max square ((max w h + buckets - 1) / buckets))

let clamp (v : int) lo hi = if v < lo then lo else if v > hi then hi else v
let col_of g x = clamp ((x - g.bounds.Rect.x0) / g.cell_size) 0 (g.cols - 1)
let row_of g y = clamp ((y - g.bounds.Rect.y0) / g.cell_size) 0 (g.rows - 1)

let of_arrays ~bounds rects payloads =
  let n = Array.length rects in
  if Array.length payloads <> n then
    invalid_arg "Spatial_index.of_arrays: rects and payloads differ in length";
  let cell_size = bucket_edge bounds n in
  let cols = max 1 ((Rect.width bounds + cell_size - 1) / cell_size) in
  let rows = max 1 ((Rect.height bounds + cell_size - 1) / cell_size) in
  let grid = { bounds; cell_size; cols; rows } and buckets = cols * rows in
  (* Count each bucket's memberships, turn the counts into start offsets,
     then fill every bucket in ascending entry id. An entry belongs to
     every bucket its rectangle overlaps; parts outside the bounds fall
     in the boundary buckets. *)
  let starts = Array.make (buckets + 1) 0 in
  for id = 0 to n - 1 do
    let r = rects.(id) in
    let c0 = col_of grid r.Rect.x0 and c1 = col_of grid r.Rect.x1 in
    for row = row_of grid r.Rect.y0 to row_of grid r.Rect.y1 do
      for b = (row * cols) + c0 to (row * cols) + c1 do
        starts.(b + 1) <- starts.(b + 1) + 1
      done
    done
  done;
  for b = 1 to buckets do
    starts.(b) <- starts.(b) + starts.(b - 1)
  done;
  let next = Array.sub starts 0 buckets in
  let members = Array.make starts.(buckets) 0 in
  for id = 0 to n - 1 do
    let r = rects.(id) in
    let c0 = col_of grid r.Rect.x0 and c1 = col_of grid r.Rect.x1 in
    for row = row_of grid r.Rect.y0 to row_of grid r.Rect.y1 do
      for b = (row * cols) + c0 to (row * cols) + c1 do
        members.(next.(b)) <- id;
        next.(b) <- next.(b) + 1
      done
    done
  done;
  { grid; starts; members; rects; payloads }

let length t = Array.length t.rects

let visit t region keep f =
  let shared = Domain.DLS.get scratch_key in
  (* A query made from inside another query's callback gets marks of its
     own, so the outer query's survive. *)
  let s = if shared.busy then fresh_scratch () else shared in
  if Array.length s.seen < length t then s.seen <- Array.make (length t) 0;
  s.stamp <- s.stamp + 1;
  let stamp = s.stamp and seen = s.seen in
  let g = t.grid in
  let c0 = col_of g region.Rect.x0 and c1 = col_of g region.Rect.x1 in
  let r0 = row_of g region.Rect.y0 and r1 = row_of g region.Rect.y1 in
  let scan () =
    for row = r0 to r1 do
      for b = (row * g.cols) + c0 to (row * g.cols) + c1 do
        for k = t.starts.(b) to t.starts.(b + 1) - 1 do
          let id = t.members.(k) in
          if seen.(id) <> stamp then begin
            seen.(id) <- stamp;
            let rect = t.rects.(id) in
            if keep rect then f rect t.payloads.(id)
          end
        done
      done
    done
  in
  s.busy <- true;
  match scan () with
  | () -> s.busy <- false
  | exception e ->
    s.busy <- false;
    raise e

let query_rect t rect f = visit t rect (Rect.touches_or_overlaps rect) f

let query_circle t circle f =
  visit t (Circle.bounds circle) (Circle.intersects_rect circle) f

(* Two touching rectangles share the closed intersection, whose
   lower-left corner lies in both; the one bucket holding that corner
   holds both entries, so reporting the pair there alone reports it once.
   The corner's column and row are monotone in its coordinates, clamping
   included, so entries clamped from outside the bounds obey the same
   argument. *)
let iter_touching_pairs t ~kind ~bonds f =
  if Array.length kind <> length t then
    invalid_arg "Spatial_index.iter_touching_pairs: one kind per entry";
  let g = t.grid and starts = t.starts and members = t.members and rects = t.rects in
  for row = 0 to g.rows - 1 do
    for col = 0 to g.cols - 1 do
      let b = (row * g.cols) + col in
      let last = starts.(b + 1) - 1 in
      for k = starts.(b) to last - 1 do
        let i = members.(k) in
        let ki = kind.(i) in
        if ki >= 0 then begin
          let mask = bonds.(ki) in
          for l = k + 1 to last do
            let j = members.(l) in
            let kj = kind.(j) in
            if kj >= 0 && mask land (1 lsl kj) <> 0 then begin
              let a = rects.(i) and c = rects.(j) in
              if
                Rect.touches_or_overlaps a c
                && col_of g (Int.max a.Rect.x0 c.Rect.x0) = col
                && row_of g (Int.max a.Rect.y0 c.Rect.y0) = row
              then f i j
            end
          done
        end
      done
    done
  done
