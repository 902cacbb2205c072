type 'a entry = { id : int; rect : Rect.t; payload : 'a }

type 'a t = {
  bounds : Rect.t;
  cell_size : int;
  cols : int;
  rows : int;
  buckets : 'a entry list array;
  mutable count : int;
}

(* Deduplication marks: seen.(id) = stamp means entry [id] was already
   visited by the current query. Several domains query one index at once
   (the sprinkle chunks, and the re-extractions of wire-severing spots),
   so the marks live in domain-local scratch, never in the index. Stamps
   only grow, so one array serves every index its domain queries. *)
type scratch = { mutable stamp : int; mutable seen : int array; mutable busy : bool }

let fresh_scratch () = { stamp = 0; seen = [||]; busy = false }
let scratch_key = Domain.DLS.new_key fresh_scratch

let create ~bounds ~cell_size =
  if cell_size <= 0 then invalid_arg "Spatial_index.create: cell_size";
  let cols = max 1 ((Rect.width bounds + cell_size - 1) / cell_size) in
  let rows = max 1 ((Rect.height bounds + cell_size - 1) / cell_size) in
  {
    bounds;
    cell_size;
    cols;
    rows;
    buckets = Array.make (cols * rows) [];
    count = 0;
  }

let length t = t.count

let clamp v lo hi = max lo (min hi v)

let bucket_range t (r : Rect.t) =
  let col_of x = clamp ((x - t.bounds.Rect.x0) / t.cell_size) 0 (t.cols - 1) in
  let row_of y = clamp ((y - t.bounds.Rect.y0) / t.cell_size) 0 (t.rows - 1) in
  col_of r.Rect.x0, row_of r.Rect.y0, col_of r.Rect.x1, row_of r.Rect.y1

let insert t rect payload =
  let id = t.count in
  t.count <- t.count + 1;
  let entry = { id; rect; payload } in
  let c0, r0, c1, r1 = bucket_range t rect in
  for row = r0 to r1 do
    for col = c0 to c1 do
      let idx = (row * t.cols) + col in
      t.buckets.(idx) <- entry :: t.buckets.(idx)
    done
  done

let visit t region keep f =
  let shared = Domain.DLS.get scratch_key in
  (* A query made from inside another query's callback gets marks of its
     own, so the outer query's survive. *)
  let s = if shared.busy then fresh_scratch () else shared in
  if Array.length s.seen < t.count then s.seen <- Array.make t.count 0;
  s.stamp <- s.stamp + 1;
  let stamp = s.stamp and seen = s.seen in
  let c0, r0, c1, r1 = bucket_range t region in
  let scan () =
    for row = r0 to r1 do
      for col = c0 to c1 do
        let bucket = t.buckets.((row * t.cols) + col) in
        List.iter
          (fun e ->
            if seen.(e.id) <> stamp then begin
              seen.(e.id) <- stamp;
              if keep e.rect then f e.rect e.payload
            end)
          bucket
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
