type classification = Retryable | Fatal

type 'a outcome =
  | Resolved of { value : 'a; attempts : int }
  | Exhausted of { error : exn; attempts : int }

let run ~classify ~attempts f =
  if attempts < 1 then invalid_arg "Resilience.run: attempts must be >= 1";
  let rec attempt_at n =
    (* n is 0-based; n + 1 attempts have run once this one finishes. *)
    match f ~attempt:n with
    | value -> Resolved { value; attempts = n + 1 }
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      (match classify e with
      | Fatal -> Printexc.raise_with_backtrace e bt
      | Retryable ->
        if n + 1 >= attempts then Exhausted { error = e; attempts = n + 1 }
        else attempt_at (n + 1))
  in
  attempt_at 0

exception Budget_exhausted of { failures : int; limit : int }

let () =
  Printexc.register_printer (function
    | Budget_exhausted { failures; limit } ->
      Some
        (Printf.sprintf
           "Resilience.Budget_exhausted: %d failures exceed the per-run \
            budget of %d"
           failures limit)
    | _ -> None)
