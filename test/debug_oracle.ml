(* Developer tool: replay oracle histories and check each for a
   serialization-graph cycle.

     dune exec test/debug_oracle.exe -- SEED [MODE [CONFIG]]
     dune exec test/debug_oracle.exe -- LO-HI [MODE [CONFIG|all]]

   MODE is ssi, ssn, essn, 2pl (default) or si, plain snapshot
   isolation, whose histories are expected to be cyclic; CONFIG is one of
   Oracle.cfgs (default "default").  One seed streams the engine's event
   log to stderr as JSONL (one [Obs] event per line, in emission order)
   and prints the cycle found, if any.  A range runs quietly, prints one
   line per non-serializable history and a total, and exits 1 if there
   was any. *)

open Test_oracle
module E = Ssi_engine.Engine
module Obs = Ssi_obs.Obs

let usage () =
  prerr_endline
    "usage: debug_oracle (SEED | LO-HI) [ssi|ssn|essn|2pl|si] \
     [default|contended|summarizing|nextkey|readonly|all]";
  exit 2

let arg i default = if Array.length Sys.argv > i then Sys.argv.(i) else default

let label, isolation, certifier =
  let m = String.uppercase_ascii (arg 2 "2pl") in
  let m = if m = "2PL" then "S2PL" else m in
  let modes = ("SI", E.Repeatable_read, Ssi_core.Certifier.SSI) :: Oracle.serializable_modes in
  match List.find_opt (fun (l, _, _) -> l = m) modes with
  | Some mode -> mode
  | None -> usage ()

let run ?after_op name seed =
  let cfg = { (List.assoc name Oracle.cfgs) with Oracle.seed; certifier } in
  Oracle.run_history ?after_op ~isolation cfg

let cfg_names = function
  | "all" -> List.map fst Oracle.cfgs
  | c when List.mem_assoc c Oracle.cfgs -> [ c ]
  | _ -> usage ()

let replay seed =
  let name = match cfg_names (arg 3 "default") with [ c ] -> c | _ -> usage () in
  (* Print the events emitted since the previous operation. *)
  let next = ref 0 in
  let after_op db =
    List.iter
      (fun (e : Obs.event) ->
        if e.seq >= !next then begin
          prerr_endline (Obs.event_to_json e);
          next := e.seq + 1
        end)
      (Obs.events (E.obs db))
  in
  let h = run ~after_op name seed in
  match Ssi_check.Dsg.check [ h ] with
  | Ok () -> print_endline "serializable (no repro)"
  | Error cycle -> print_string (Ssi_check.Dsg.pp_cycle cycle)

let sweep lo hi =
  let mode = String.lowercase_ascii label in
  let names = cfg_names (arg 3 "all") in
  let failed = ref 0 in
  List.iter
    (fun name ->
      for seed = lo to hi do
        match Ssi_check.Dsg.check [ run name seed ] with
        | Ok () -> ()
        | Error _ ->
            incr failed;
            Printf.printf "non-serializable: %s %s seed %d\n%!" mode name seed
      done)
    names;
  Printf.printf "%s: %d of %d histories non-serializable (seeds %d-%d, %s)\n" mode !failed
    (List.length names * (hi - lo + 1))
    lo hi (String.concat "," names);
  if !failed > 0 then exit 1

let () =
  match String.split_on_char '-' (arg 1 "39") with
  | [ lo; hi ] -> (
      match (int_of_string_opt lo, int_of_string_opt hi) with
      | Some lo, Some hi when lo <= hi -> sweep lo hi
      | _ -> usage ())
  | _ -> replay (Option.value ~default:39 (int_of_string_opt (arg 1 "39")))
