type t = (string * Util.Stats.window) list

let compile ?(n = 48) ?(k = 3.0) ~tech (macro : Macro_cell.t) prng =
  let samples =
    Process.Variation.monte_carlo ~n Process.Variation.default_spread tech prng
  in
  let vectors = List.map (fun s -> macro.Macro_cell.measure (macro.Macro_cell.build s)) samples in
  let names =
    List.concat_map (List.map fst) vectors |> List.sort_uniq compare
  in
  let window_of name =
    let acc = Util.Stats.accumulator () in
    List.iter
      (fun vector ->
        match List.assoc_opt name vector with
        | Some v -> Util.Stats.add acc v
        | None -> ())
      vectors;
    if Util.Stats.count acc = 0 then None
    else begin
      (* Guarantee a minimal absolute tolerance reflecting what a
         production tester resolves: supply and input currents are
         measured at the board level (~2 µA), the quiescent digital
         supply with a dedicated IDDQ monitor (~0.5 µA). This also keeps
         zero-variance measurements from rejecting numerical noise. *)
      let w = Util.Stats.sigma_window ~k acc in
      let floor_width =
        match Signature.current_kind_of_measurement name with
        | Some Signature.IVdd -> 2e-6
        | Some Signature.IDDQ -> 5e-7
        | Some Signature.Iinput -> 2e-6
        | None -> 1e-4  (* 0.1 mV voltmeter floor *)
      in
      Some (Util.Stats.widen w ~by:floor_width)
    end
  in
  List.filter_map (fun name -> Option.map (fun w -> name, w) (window_of name)) names

let window t name = List.assoc_opt name t

let deviating t vector =
  List.filter_map
    (fun (name, value) ->
      match List.assoc_opt name t with
      | Some w when not (Util.Stats.inside w value) -> Some name
      | Some _ | None -> None)
    vector

let deviating_currents t vector =
  let names = deviating t vector in
  let kinds = List.filter_map Signature.current_kind_of_measurement names in
  List.filter (fun k -> List.mem k kinds) Signature.all_current

let widen t ~name ~by =
  List.map
    (fun (n, w) -> if n = name then n, Util.Stats.widen w ~by else n, w)
    t

let measurements t = List.map fst t
let windows t = t
let of_windows ws = ws

let pp ppf t =
  List.iter
    (fun (name, w) ->
      Format.fprintf ppf "%-24s %a@." name Util.Stats.pp_window w)
    t
