(* The reproduction record: [bench/main.exe --jobs 2] prints every table
   and figure of the paper's evaluation and every ablation, and
   [bench_golden.txt] is that output. EXPERIMENTS.md quotes it. A change
   that moves a number fails here until it re-pins the file (re-run the
   command and mask it as below) and updates EXPERIMENTS.md. *)

(* What varies between two runs of the same build: the header's
   [jobs=N] and the wall-clock timings of the four "(... N.N s)"
   lines. *)
let mask line =
  let n = String.length line in
  let ends suffix = String.ends_with ~suffix line in
  match String.rindex_opt line '(' with
  | Some i when ends ")" && String.starts_with ~prefix:"(jobs=" (String.sub line i (n - i)) ->
    String.sub line 0 i ^ "(jobs=*)"
  | _ when n > 0 && line.[0] = '(' && ends " s)" ->
    String.sub line 0 (String.rindex_from line (n - 4) ' ' + 1) ^ "* s)"
  | _ -> line

let lines text = String.split_on_char '\n' text

let test_record_pinned () =
  let bench = "../bench/main.exe" in
  let ic = Unix.open_process_args_in bench [| bench; "--jobs"; "2" |] in
  let output = In_channel.input_all ic in
  (match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> ()
  | _ -> Alcotest.fail "bench/main.exe --jobs 2 failed");
  let expected =
    lines (In_channel.with_open_text "bench_golden.txt" In_channel.input_all)
  in
  let got = List.map mask (lines output) in
  Alcotest.(check int) "line count" (List.length expected) (List.length got);
  List.iteri
    (fun i (e, g) ->
      if e <> g then Alcotest.(check string) (Printf.sprintf "line %d" (i + 1)) e g)
    (List.combine expected got)

let suites =
  [
    ( "bench.record",
      [ Alcotest.test_case "output pinned (jobs 2)" `Slow test_record_pinned ] );
  ]
