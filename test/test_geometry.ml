(* Unit and property tests for the dotest.geometry library. *)

open Geometry

let rect ~x0 ~y0 ~x1 ~y1 = Rect.create ~x0 ~y0 ~x1 ~y1
let check_float = Alcotest.(check (float 1e-6))

(* ------------------------------------------------------------------ *)
(* Rect                                                                *)
(* ------------------------------------------------------------------ *)

let test_rect_normalization () =
  let r = rect ~x0:10 ~y0:20 ~x1:0 ~y1:5 in
  Alcotest.(check int) "width" 10 (Rect.width r);
  Alcotest.(check int) "height" 15 (Rect.height r);
  Alcotest.(check int) "area" 150 (Rect.area r)

let test_rect_zero_area_rejected () =
  Alcotest.check_raises "degenerate" (Invalid_argument "Rect.create: zero area")
    (fun () -> ignore (rect ~x0:0 ~y0:0 ~x1:0 ~y1:10))

let test_rect_of_size () =
  let r = Rect.of_size ~x:5 ~y:6 ~w:10 ~h:20 in
  Alcotest.(check bool) "equal" true
    (Rect.equal r (rect ~x0:5 ~y0:6 ~x1:15 ~y1:26))

let test_rect_contains () =
  let r = rect ~x0:0 ~y0:0 ~x1:10 ~y1:10 in
  Alcotest.(check bool) "inside" true (Rect.contains r (5, 5));
  Alcotest.(check bool) "edge" true (Rect.contains r (10, 0));
  Alcotest.(check bool) "outside" false (Rect.contains r (11, 5))

let test_rect_overlap_semantics () =
  let a = rect ~x0:0 ~y0:0 ~x1:10 ~y1:10 in
  let touching = rect ~x0:10 ~y0:0 ~x1:20 ~y1:10 in
  let overlapping = rect ~x0:9 ~y0:9 ~x1:15 ~y1:15 in
  let apart = rect ~x0:20 ~y0:20 ~x1:30 ~y1:30 in
  Alcotest.(check bool) "touch is not overlap" false (Rect.overlaps a touching);
  Alcotest.(check bool) "touch connects" true (Rect.touches_or_overlaps a touching);
  Alcotest.(check bool) "overlap" true (Rect.overlaps a overlapping);
  Alcotest.(check bool) "disjoint" false (Rect.touches_or_overlaps a apart)

let test_rect_intersection () =
  let a = rect ~x0:0 ~y0:0 ~x1:10 ~y1:10 in
  let b = rect ~x0:5 ~y0:5 ~x1:15 ~y1:15 in
  (match Rect.intersection a b with
  | Some i -> Alcotest.(check bool) "intersection" true (Rect.equal i (rect ~x0:5 ~y0:5 ~x1:10 ~y1:10))
  | None -> Alcotest.fail "expected intersection");
  let c = rect ~x0:10 ~y0:0 ~x1:20 ~y1:10 in
  Alcotest.(check bool) "edge contact has no interior" true
    (Rect.intersection a c = None)

let test_rect_inflate_translate () =
  let r = rect ~x0:5 ~y0:5 ~x1:10 ~y1:10 in
  let big = Rect.inflate r 2 in
  Alcotest.(check bool) "inflated" true (Rect.equal big (rect ~x0:3 ~y0:3 ~x1:12 ~y1:12));
  let moved = Rect.translate r ~dx:(-5) ~dy:10 in
  Alcotest.(check bool) "translated" true (Rect.equal moved (rect ~x0:0 ~y0:15 ~x1:5 ~y1:20));
  Alcotest.check_raises "over-deflate" (Invalid_argument "Rect.inflate: collapsed")
    (fun () -> ignore (Rect.inflate r (-3)))

let test_rect_separation () =
  let a = rect ~x0:0 ~y0:0 ~x1:10 ~y1:10 in
  check_float "overlapping" 0.0 (Rect.separation a a);
  let right = rect ~x0:13 ~y0:0 ~x1:20 ~y1:10 in
  check_float "horizontal gap" 3.0 (Rect.separation a right);
  let diag = rect ~x0:13 ~y0:14 ~x1:20 ~y1:20 in
  check_float "diagonal gap" 5.0 (Rect.separation a diag);
  check_float "symmetric" (Rect.separation a diag) (Rect.separation diag a)

(* ------------------------------------------------------------------ *)
(* Circle                                                              *)
(* ------------------------------------------------------------------ *)

let test_circle_intersects_rect () =
  let r = rect ~x0:0 ~y0:0 ~x1:10 ~y1:10 in
  let inside = Circle.create ~cx:5 ~cy:5 ~radius:1.0 in
  let grazing = Circle.create ~cx:13 ~cy:5 ~radius:3.0 in
  let outside = Circle.create ~cx:20 ~cy:20 ~radius:2.0 in
  Alcotest.(check bool) "inside" true (Circle.intersects_rect inside r);
  Alcotest.(check bool) "grazing" true (Circle.intersects_rect grazing r);
  Alcotest.(check bool) "outside" false (Circle.intersects_rect outside r)

let test_circle_bridges () =
  let a = rect ~x0:0 ~y0:0 ~x1:10 ~y1:100 in
  let b = rect ~x0:20 ~y0:0 ~x1:30 ~y1:100 in
  let big = Circle.create ~cx:15 ~cy:50 ~radius:6.0 in
  let small = Circle.create ~cx:15 ~cy:50 ~radius:4.0 in
  Alcotest.(check bool) "big spans the gap" true (Circle.bridges big a b);
  Alcotest.(check bool) "small does not" false (Circle.bridges small a b)

let test_circle_covers_span () =
  (* A vertical wire 10 wide; a defect of radius 8 centred on it severs it,
     radius 4 does not. *)
  let wire = rect ~x0:0 ~y0:0 ~x1:10 ~y1:100 in
  let sever = Circle.create ~cx:5 ~cy:50 ~radius:8.0 in
  let nick = Circle.create ~cx:5 ~cy:50 ~radius:4.0 in
  Alcotest.(check bool) "severs" true (Circle.covers_rect_span sever wire ~axis:`X);
  Alcotest.(check bool) "nicks only" false (Circle.covers_rect_span nick wire ~axis:`X)

let test_circle_bounds () =
  let c = Circle.create ~cx:10 ~cy:10 ~radius:2.5 in
  let b = Circle.bounds c in
  Alcotest.(check bool) "bounds contain centre" true (Rect.contains b (10, 10));
  Alcotest.(check bool) "bounds wide enough" true (Rect.width b >= 5)

(* ------------------------------------------------------------------ *)
(* Spatial_index                                                       *)
(* ------------------------------------------------------------------ *)

(* An index over [(rect, payload)] entries. *)
let index_of ~bounds entries =
  Spatial_index.of_arrays ~bounds (Array.map fst entries) (Array.map snd entries)

let test_index_query_rect () =
  let bounds = rect ~x0:0 ~y0:0 ~x1:1000 ~y1:1000 in
  let idx =
    index_of ~bounds
      [| rect ~x0:10 ~y0:10 ~x1:20 ~y1:20, "a"; rect ~x0:500 ~y0:500 ~x1:600 ~y1:600, "b" |]
  in
  Alcotest.(check int) "length" 2 (Spatial_index.length idx);
  let hits = ref [] in
  Spatial_index.query_rect idx (rect ~x0:0 ~y0:0 ~x1:50 ~y1:50) (fun _ p ->
      hits := p :: !hits);
  Alcotest.(check (list string)) "only a" [ "a" ] !hits

(* [k] unit squares on a 20 nm pitch, ten to a row, from [(x0, y0)]:
   entries that make the index choose a fine grid. *)
let fillers ~x0 ~y0 k payload =
  Array.init k (fun i ->
      Rect.of_size ~x:(x0 + (20 * (i mod 10))) ~y:(y0 + (20 * (i / 10))) ~w:1 ~h:1, payload)

let test_index_no_duplicates () =
  (* A rectangle spanning many buckets must still be reported once; 400
     fillers make a 10 x 10 grid and it spans every bucket. *)
  let bounds = rect ~x0:0 ~y0:0 ~x1:1000 ~y1:1000 in
  let idx =
    index_of ~bounds
      (Array.append
         [| rect ~x0:0 ~y0:0 ~x1:900 ~y1:900, "wide" |]
         (fillers ~x0:0 ~y0:0 400 "filler"))
  in
  let wide = ref 0 and all = ref 0 in
  Spatial_index.query_rect idx (rect ~x0:0 ~y0:0 ~x1:1000 ~y1:1000) (fun _ p ->
      incr all;
      if p = "wide" then incr wide);
  Alcotest.(check (pair int int)) "each entry once" (1, 401) (!wide, !all)

let test_index_circle_query () =
  let bounds = rect ~x0:0 ~y0:0 ~x1:100 ~y1:100 in
  let idx =
    index_of ~bounds
      [| rect ~x0:0 ~y0:0 ~x1:10 ~y1:10, 1; rect ~x0:50 ~y0:50 ~x1:60 ~y1:60, 2 |]
  in
  let hits = ref [] in
  Spatial_index.query_circle idx (Circle.create ~cx:55 ~cy:55 ~radius:3.0)
    (fun _ p -> hits := p :: !hits);
  Alcotest.(check (list int)) "only payload 2" [ 2 ] !hits

let test_index_outside_bounds_clamped () =
  let bounds = rect ~x0:0 ~y0:0 ~x1:100 ~y1:100 in
  let idx =
    index_of ~bounds
      [| rect ~x0:(-50) ~y0:(-50) ~x1:(-10) ~y1:(-10), "out" |]
  in
  let hits = ref 0 in
  Spatial_index.query_rect idx (rect ~x0:(-100) ~y0:(-100) ~x1:0 ~y1:0) (fun _ _ ->
      incr hits);
  Alcotest.(check int) "clamped entry still found" 1 !hits

(* Every payload a query reports, duplicates kept, in a canonical order. *)
let answer idx probe =
  let found = ref [] in
  Spatial_index.query_rect idx probe (fun _ i -> found := i :: !found);
  List.sort compare !found

let test_index_concurrent_queries () =
  (* Defect sprinkling queries one cell's index from several domains.
     Long queries over shapes that span many buckets make any sharing of
     the visited marks show up as skipped or repeated payloads; 8,000
     small entries besides the 2,000 large ones give a 50 x 50 grid. *)
  let rng = Random.State.make [| 1995 |] in
  let random_rect ~max_side =
    Rect.of_size
      ~x:(Random.State.int rng 10_000)
      ~y:(Random.State.int rng 10_000)
      ~w:(1 + Random.State.int rng max_side)
      ~h:(1 + Random.State.int rng max_side)
  in
  let bounds = rect ~x0:0 ~y0:0 ~x1:11_000 ~y1:11_000 in
  let idx =
    index_of ~bounds
      (Array.init 10_000 (fun i ->
           random_rect ~max_side:(if i < 2_000 then 1_000 else 10), i))
  in
  let probes = Array.init 200 (fun _ -> random_rect ~max_side:3_000) in
  let expected = Array.map (answer idx) probes in
  let worker offset () =
    let wrong = ref 0 in
    for round = 0 to 1_999 do
      let k = (round + offset) mod Array.length probes in
      if answer idx probes.(k) <> expected.(k) then incr wrong
    done;
    !wrong
  in
  let other = Domain.spawn (worker 100) in
  let here = worker 0 () in
  Alcotest.(check (pair int int)) "no answer differs from the sequential one"
    (0, 0) (here, Domain.join other)

let test_index_nested_query () =
  (* Fillers outside the queried corner make the two large entries span
     several buckets, so an inner query that shared the outer one's marks
     would make the outer query report them again. *)
  let bounds = rect ~x0:0 ~y0:0 ~x1:400 ~y1:400 in
  let idx =
    index_of ~bounds
      (Array.append
         [| rect ~x0:0 ~y0:0 ~x1:90 ~y1:90, 0; rect ~x0:5 ~y0:5 ~x1:95 ~y1:95, 1 |]
         (fillers ~x0:200 ~y0:200 100 2))
  in
  let corner = rect ~x0:0 ~y0:0 ~x1:100 ~y1:100 in
  let outer = ref [] in
  Spatial_index.query_rect idx corner (fun _ i ->
      Alcotest.(check (list int)) "inner query" [ 0; 1 ] (answer idx corner);
      outer := i :: !outer);
  Alcotest.(check (list int)) "outer query" [ 0; 1 ] (List.sort compare !outer)

(* Every pair [iter_touching_pairs] reports, duplicates kept, in a
   canonical order. *)
let touching_pairs idx ~kind ~bonds =
  let found = ref [] in
  Spatial_index.iter_touching_pairs idx ~kind ~bonds (fun i j ->
      found := (i, j) :: !found);
  List.sort compare !found

let test_index_touching_pairs_edges () =
  (* 400 fillers far from the pairs give a 10 x 10 grid of 100 nm
     buckets. A and B meet only at a corner on a bucket corner, C and D
     only along an edge on a bucket boundary, and E and F along an edge
     outside the bounds, both clamped into the corner bucket. H lies on C
     and touches D, but its kind bonds with nothing. *)
  let bounds = rect ~x0:0 ~y0:0 ~x1:1000 ~y1:1000 in
  let pairs =
    [|
      rect ~x0:50 ~y0:50 ~x1:100 ~y1:100, 0 (* A *);
      rect ~x0:100 ~y0:100 ~x1:150 ~y1:150, 0 (* B *);
      rect ~x0:200 ~y0:0 ~x1:300 ~y1:100, 0 (* C *);
      rect ~x0:300 ~y0:0 ~x1:400 ~y1:100, 0 (* D *);
      rect ~x0:(-50) ~y0:(-50) ~x1:(-10) ~y1:(-10), 0 (* E *);
      rect ~x0:(-10) ~y0:(-30) ~x1:(-5) ~y1:(-20), 0 (* F *);
      rect ~x0:200 ~y0:0 ~x1:300 ~y1:100, 1 (* H *);
    |]
  in
  let entries = Array.append pairs (fillers ~x0:600 ~y0:600 400 (-1)) in
  let idx = index_of ~bounds (Array.map (fun (r, _) -> r, ()) entries) in
  Alcotest.(check (list (pair int int)))
    "corner, edge and clamped pairs, each once; H dropped by its kind"
    [ 0, 1; 2, 3; 4, 5 ]
    (touching_pairs idx ~kind:(Array.map snd entries) ~bonds:[| 0b01; 0b00 |])

(* ------------------------------------------------------------------ *)
(* QCheck properties                                                   *)
(* ------------------------------------------------------------------ *)

let rect_gen =
  QCheck.Gen.(
    let* x0 = int_range (-500) 500 in
    let* y0 = int_range (-500) 500 in
    let* w = int_range 1 200 in
    let* h = int_range 1 200 in
    return (Rect.of_size ~x:x0 ~y:y0 ~w ~h))

let arb_rect = QCheck.make ~print:(Format.asprintf "%a" Rect.pp) rect_gen

(* Entries for the touching-pairs property: half of the rectangles sit on
   a 50 nm lattice, so shared edges and corners are common, and a kind
   from -1 (bonds with nothing) to 3. Up to 120 entries give a grid of up
   to 6 x 6 buckets, whose boundaries fall on the lattice at some sizes;
   the bounds the property uses leave part of the range out, so some
   entries clamp. *)
let kinded_entries_gen =
  QCheck.Gen.(
    let lattice =
      let* x = int_range (-10) 9 and* y = int_range (-10) 9 in
      let* w = int_range 1 4 and* h = int_range 1 4 in
      return (Rect.of_size ~x:(50 * x) ~y:(50 * y) ~w:(50 * w) ~h:(50 * h))
    in
    let entry =
      let* r = frequency [ 1, rect_gen; 1, lattice ] in
      let* k = int_range (-1) 3 in
      return (r, k)
    in
    list_size (frequency [ 1, return 0; 1, return 1; 6, int_range 2 120 ]) entry)

(* The pairs the index must report, by brute force: every [i < j] whose
   rectangles touch or overlap and whose kinds bond. *)
let brute_force_pairs rects ~kind ~bonds =
  let n = Array.length rects in
  List.concat_map
    (fun i ->
      List.filter_map
        (fun j ->
          if
            kind.(i) >= 0 && kind.(j) >= 0
            && bonds.(kind.(i)) land (1 lsl kind.(j)) <> 0
            && Rect.touches_or_overlaps rects.(i) rects.(j)
          then Some (i, j)
          else None)
        (List.init (n - i - 1) (fun d -> i + 1 + d)))
    (List.init n Fun.id)

(* A symmetric bond table over kinds 0..3 from one bit per unordered pair
   of kinds. *)
let bonds_of_bits bits =
  Array.init 4 (fun a ->
      List.fold_left
        (fun mask b ->
          if bits land (1 lsl ((4 * min a b) + max a b)) <> 0 then mask lor (1 lsl b)
          else mask)
        0 [ 0; 1; 2; 3 ])

let qcheck_props =
  let open QCheck in
  [
    Test.make ~name:"rect: intersection area <= both areas" (pair arb_rect arb_rect)
      (fun (a, b) ->
        match Rect.intersection a b with
        | None -> true
        | Some i -> Rect.area i <= Rect.area a && Rect.area i <= Rect.area b);
    Test.make ~name:"rect: intersection implies overlap and vice versa"
      (pair arb_rect arb_rect) (fun (a, b) ->
        Rect.overlaps a b = Option.is_some (Rect.intersection a b));
    Test.make ~name:"rect: overlap is symmetric" (pair arb_rect arb_rect)
      (fun (a, b) -> Rect.overlaps a b = Rect.overlaps b a);
    Test.make ~name:"rect: separation 0 iff touches-or-overlaps"
      (pair arb_rect arb_rect) (fun (a, b) ->
        Rect.touches_or_overlaps a b = (Rect.separation a b = 0.));
    Test.make ~name:"circle: bridging implies intersecting both"
      (triple arb_rect arb_rect (pair (pair (int_range (-500) 500) (int_range (-500) 500)) (float_range 1. 100.)))
      (fun (a, b, ((cx, cy), radius)) ->
        let c = Circle.create ~cx ~cy ~radius in
        Circle.bridges c a b = (Circle.intersects_rect c a && Circle.intersects_rect c b));
    (* Up to 200 entries give a grid of up to 7 x 7 buckets; the bounds
       leave out part of the generated range, so some entries clamp. One
       case in five is an empty index. *)
    Test.make ~name:"index: query_rect finds exactly the overlapping rects"
      (pair
         (list_of_size Gen.(frequency [ 1, return 0; 4, int_range 1 200 ]) arb_rect)
         arb_rect)
      (fun (rects, probe) ->
        let bounds = Rect.create ~x0:(-400) ~y0:(-400) ~x1:400 ~y1:400 in
        let idx =
          index_of ~bounds (Array.of_list (List.mapi (fun i r -> r, i) rects))
        in
        let found = ref [] in
        Spatial_index.query_rect idx probe (fun _ i -> found := i :: !found);
        let expected =
          List.filteri (fun _ _ -> true) rects
          |> List.mapi (fun i r -> (i, r))
          |> List.filter (fun (_, r) -> Rect.touches_or_overlaps probe r)
          |> List.map fst
        in
        List.sort compare !found = List.sort compare expected);
    Test.make ~count:300
      ~name:"index: touching pairs equal a brute-force scan, once each"
      (pair
         (make
            ~print:
              Print.(list (pair (fun r -> Format.asprintf "%a" Rect.pp r) int))
            kinded_entries_gen)
         (int_bound 0xffff))
      (fun (entries, bits) ->
        let bounds = Rect.create ~x0:(-400) ~y0:(-400) ~x1:400 ~y1:400 in
        let rects = Array.of_list (List.map fst entries) in
        let kind = Array.of_list (List.map snd entries) in
        let bonds = bonds_of_bits bits in
        let idx = Spatial_index.of_arrays ~bounds rects (Array.map ignore rects) in
        touching_pairs idx ~kind ~bonds = brute_force_pairs rects ~kind ~bonds);
  ]

let suites =
  [
    ( "geometry.rect",
      [
        Alcotest.test_case "normalization" `Quick test_rect_normalization;
        Alcotest.test_case "zero area rejected" `Quick test_rect_zero_area_rejected;
        Alcotest.test_case "of_size" `Quick test_rect_of_size;
        Alcotest.test_case "contains" `Quick test_rect_contains;
        Alcotest.test_case "overlap semantics" `Quick test_rect_overlap_semantics;
        Alcotest.test_case "intersection" `Quick test_rect_intersection;
        Alcotest.test_case "inflate/translate" `Quick test_rect_inflate_translate;
        Alcotest.test_case "separation" `Quick test_rect_separation;
      ] );
    ( "geometry.circle",
      [
        Alcotest.test_case "intersects rect" `Quick test_circle_intersects_rect;
        Alcotest.test_case "bridges" `Quick test_circle_bridges;
        Alcotest.test_case "covers span" `Quick test_circle_covers_span;
        Alcotest.test_case "bounds" `Quick test_circle_bounds;
      ] );
    ( "geometry.spatial_index",
      [
        Alcotest.test_case "query rect" `Quick test_index_query_rect;
        Alcotest.test_case "no duplicates" `Quick test_index_no_duplicates;
        Alcotest.test_case "circle query" `Quick test_index_circle_query;
        Alcotest.test_case "outside bounds clamped" `Quick test_index_outside_bounds_clamped;
        Alcotest.test_case "concurrent queries match sequential" `Quick
          test_index_concurrent_queries;
        Alcotest.test_case "nested query" `Quick test_index_nested_query;
        Alcotest.test_case "touching pairs: corner, edge, clamped" `Quick
          test_index_touching_pairs_edges;
      ] );
    "geometry.properties", List.map QCheck_alcotest.to_alcotest qcheck_props;
  ]
