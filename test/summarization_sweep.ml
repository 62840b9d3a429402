(* Cross-shard summarization sweep: run {!Shard_sweep} at every seed of a
   range under retained-transaction budgets 0, 1 and 4 and fail on any
   seed whose joined multi-shard DSG is cyclic.

     dune exec test/summarization_sweep.exe -- LO-HI

   Prints one line per cyclic seed and a total; exits 1 if any. *)

let budgets = [ 0; 1; 4 ]

let usage () =
  prerr_endline "usage: summarization_sweep LO-HI";
  exit 2

let () =
  let lo, hi =
    match String.split_on_char '-' (if Array.length Sys.argv > 1 then Sys.argv.(1) else "") with
    | [ lo; hi ] -> (
        match (int_of_string_opt lo, int_of_string_opt hi) with
        | Some lo, Some hi when lo <= hi -> (lo, hi)
        | _ -> usage ())
    | _ -> usage ()
  in
  let cyclic = ref 0 in
  List.iter
    (fun budget ->
      for seed = lo to hi do
        match Shard_sweep.cycle ~budget ~seed with
        | None -> ()
        | Some c ->
            incr cyclic;
            Printf.printf "budget %d seed %d: %s\n%!" budget seed
              (String.concat " " (Ssi_check.Dsg.cycle_nodes c))
      done)
    budgets;
  Printf.printf
    "cross-shard summarization: %d of %d runs cyclic (seeds %d-%d, budgets %s)\n" !cyclic
    ((hi - lo + 1) * List.length budgets)
    lo hi
    (String.concat "," (List.map string_of_int budgets));
  if !cyclic > 0 then exit 1
