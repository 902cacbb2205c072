type align = Left | Right

type row = Cells of string list | Separator

type t = { columns : (string * align) list; mutable rows : row list }

let create ~columns =
  if columns = [] then invalid_arg "Table.create: no columns";
  { columns; rows = [] }

let add_row t cells = t.rows <- Cells cells :: t.rows
let add_separator t = t.rows <- Separator :: t.rows

let pad align width s =
  let n = String.length s in
  if n >= width then s
  else
    let fill = String.make (width - n) ' ' in
    match align with Left -> s ^ fill | Right -> fill ^ s

let render t =
  let headers = List.map fst t.columns in
  let aligns = List.map snd t.columns in
  let ncols = List.length headers in
  let rows = List.rev t.rows in
  let cell_rows =
    List.filter_map (function Cells c -> Some c | Separator -> None) rows
  in
  let widths =
    List.mapi
      (fun i title ->
        List.fold_left
          (fun acc cells ->
            match List.nth_opt cells i with
            | Some c -> max acc (String.length c)
            | None -> acc)
          (String.length title) cell_rows)
      headers
  in
  let rule =
    "+" ^ String.concat "+" (List.map (fun w -> String.make (w + 2) '-') widths) ^ "+"
  in
  let render_cells cells =
    let padded =
      List.mapi
        (fun i w ->
          let cell = Option.value ~default:"" (List.nth_opt cells i) in
          let align = List.nth aligns i in
          " " ^ pad align w cell ^ " ")
        widths
    in
    (* Guard against rows wider than the header: surplus cells would be
       silently dropped otherwise. *)
    assert (List.length cells <= ncols);
    "|" ^ String.concat "|" padded ^ "|"
  in
  let body =
    List.map (function Cells c -> render_cells c | Separator -> rule) rows
  in
  String.concat "\n" ((rule :: render_cells headers :: rule :: body) @ [ rule ])

let pp ppf t = Format.pp_print_string ppf (render t)

let columns t = List.map fst t.columns

let row_cells t =
  List.filter_map
    (function Cells c -> Some c | Separator -> None)
    (List.rev t.rows)

(* RFC 4180: quote a field iff it contains a comma, quote or newline;
   quotes are doubled. *)
let csv_field s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n' || c = '\r') s then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
  else s

let render_csv t =
  let line cells = String.concat "," (List.map csv_field cells) in
  String.concat "\n" (line (columns t) :: List.map line (row_cells t))

(* One object per row, keyed by column title; cells stay strings — the
   table layer formats, it does not retain the underlying numbers. *)
let to_json t =
  let headers = columns t in
  Json.List
    (List.map
       (fun cells ->
         Json.Obj
           (List.mapi
              (fun i title ->
                ( title,
                  Json.String (Option.value ~default:"" (List.nth_opt cells i))
                ))
              headers))
       (row_cells t))

let cell_float ?(decimals = 1) v = Printf.sprintf "%.*f" decimals v
let cell_pct ?(decimals = 1) v = Printf.sprintf "%.*f%%" decimals v
