(* Liveness sweep of the sharded bench: run [Sharded.bench ~shards:4] for
   a short virtual duration at every seed of a range and fail on any
   exception, a stuck simulation ([Sim.Stuck]) included.

     dune exec test/shard_liveness.exe -- LO-HI

   Prints one line per failing seed and a total; exits 1 if any failed. *)

module Sharded = Ssi_harness.Sharded
module Driver = Ssi_workload.Driver

let duration = 0.05

let usage () =
  prerr_endline "usage: shard_liveness LO-HI";
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
  let failed = ref 0 and committed = ref 0 and attempts = ref 0 in
  for seed = lo to hi do
    match Sharded.bench ~shards:4 ~seed ~duration () with
    | r ->
        committed := !committed + r.Driver.committed;
        attempts := !attempts + r.committed + r.failures
    | exception e ->
        incr failed;
        Printf.printf "seed %d: %s\n%!" seed (Printexc.to_string e)
  done;
  Printf.printf "sharded-4 liveness: %d of %d seeds failed (seeds %d-%d, %g s each; %d commits of %d attempts)\n"
    !failed (hi - lo + 1) lo hi duration !committed !attempts;
  if !failed > 0 then exit 1
