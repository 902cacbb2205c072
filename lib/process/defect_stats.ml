type mechanism =
  | Extra_material of Layer.t
  | Missing_material of Layer.t
  | Gate_oxide_pinhole
  | Junction_pinhole
  | Thick_oxide_pinhole
  | Extra_contact
  | Missing_contact

let mechanism_name = function
  | Extra_material layer -> "extra-" ^ Layer.name layer
  | Missing_material layer -> "missing-" ^ Layer.name layer
  | Gate_oxide_pinhole -> "gate-oxide-pinhole"
  | Junction_pinhole -> "junction-pinhole"
  | Thick_oxide_pinhole -> "thick-oxide-pinhole"
  | Extra_contact -> "extra-contact"
  | Missing_contact -> "missing-contact"

type entry = {
  mechanism : mechanism;
  relative_rate : float;
  size_min : float;
  size_max : float;
}

type t = {
  table : entry list;
  mechanism_dist : mechanism Util.Distribution.discrete;
}

let create entries =
  if entries = [] then invalid_arg "Defect_stats.create: empty table";
  List.iter
    (fun e ->
      if e.relative_rate <= 0. then
        invalid_arg "Defect_stats.create: rates must be positive";
      if e.size_min <= 0. || e.size_max <= e.size_min then
        invalid_arg "Defect_stats.create: bad size range")
    entries;
  let mechanism_dist =
    Util.Distribution.discrete
      (List.map (fun e -> e.relative_rate, e.mechanism) entries)
  in
  { table = entries; mechanism_dist }

let entries t = t.table

let default =
  (* Rates fitted so the resulting *fault* mix matches the paper's Table 1:
     extra material in the metallization dominates, opens exist but are
     rare as faults (a hole must fully sever a wire). Sizes are drawn from
     the 1/x³ spot density between the print limit and a cutoff. *)
  let material layer rate =
    { mechanism = Extra_material layer; relative_rate = rate;
      size_min = 600.; size_max = 12_000. }
  in
  let hole layer rate =
    { mechanism = Missing_material layer; relative_rate = rate;
      size_min = 400.; size_max = 8_000. }
  in
  create
    [
      material Layer.Metal1 460.0;
      material Layer.Metal2 300.0;
      material Layer.Poly 90.0;
      material Layer.Active 45.0;
      hole Layer.Metal1 3.0;
      hole Layer.Metal2 2.0;
      hole Layer.Poly 1.5;
      hole Layer.Active 1.0;
      { mechanism = Gate_oxide_pinhole; relative_rate = 10.0;
        size_min = 100.; size_max = 600. };
      { mechanism = Junction_pinhole; relative_rate = 6.0;
        size_min = 100.; size_max = 600. };
      { mechanism = Thick_oxide_pinhole; relative_rate = 1.2;
        size_min = 100.; size_max = 600. };
      { mechanism = Extra_contact; relative_rate = 2.5;
        size_min = 300.; size_max = 1_500. };
      { mechanism = Missing_contact; relative_rate = 1.0;
        size_min = 300.; size_max = 1_500. };
    ]

let sample_mechanism t prng = Util.Distribution.draw prng t.mechanism_dist

let sample_size t prng mech =
  match List.find_opt (fun e -> e.mechanism = mech) t.table with
  | None -> invalid_arg "Defect_stats.sample_size: unknown mechanism"
  | Some e ->
    Util.Distribution.power_law_size prng ~x_min:e.size_min ~x_max:e.size_max
