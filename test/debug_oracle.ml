(* Developer tool: replay one oracle seed, stream the engine's event log to
   stderr as JSONL (one [Obs] event per line, in emission order), and print
   any serialization-graph cycle found.

     dune exec test/debug_oracle.exe -- <seed> [ssi]    (default: S2PL)   *)

open Test_oracle
module E = Ssi_engine.Engine
module Obs = Ssi_obs.Obs

let () =
  let seed = try int_of_string Sys.argv.(1) with _ -> 39 in
  let iso =
    if Array.length Sys.argv > 2 && Sys.argv.(2) = "ssi" then E.Serializable
    else E.Serializable_2pl
  in
  let cfg = { Oracle.default_cfg with Oracle.seed } in
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
  let h = Oracle.run_history ~after_op ~isolation:iso cfg in
  (match Oracle.check_serializable h with
  | Ok () -> print_endline "serializable (no repro)"
  | Error cycle -> print_string (Oracle.pp_cycle h cycle))
