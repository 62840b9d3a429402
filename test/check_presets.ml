(* Every quick figure preset, checked for serializability end to end.

     dune exec test/check_presets.exe -- [ssi|ssn]

   Runs each sweep of Experiments.quick_sweeps (SIBENCH, DBT-2++ in-memory
   and disk-bound, RUBiS) once with the SSI certifier and once with SSN
   (or with the one named),
   with the engine's history recorder attached to every run of a
   serializable mode (SSI, SSI without the read-only optimisations, S2PL)
   through the driver's per-engine hook.  Each recorded history must be
   acyclic (Ssi_check.Dsg.check) and read-exact (Dsg.stale_read).  Runs
   that would repeat an earlier one or that nothing checks — SI, and S2PL
   under SSN, which runs no certifier — are cut to zero length.  Prints one
   line per checked run and exits 1 on any violation. *)

module E = Ssi_engine.Engine
module Dsg = Ssi_check.Dsg
module Driver = Ssi_workload.Driver
module Certifier = Ssi_core.Certifier
module Experiments = Ssi_harness.Experiments

let failed = ref 0

let verdict label history =
  let h = List.rev history in
  match Dsg.check [ h ] with
  | Error cycle ->
      incr failed;
      Printf.printf "%s: %d commits, CYCLE\n%s%!" label (List.length h) (Dsg.pp_cycle cycle)
  | Ok () -> (
      match Dsg.stale_read [ h ] with
      | Some e ->
          incr failed;
          Printf.printf "%s: %d commits, STALE READ %s\n%!" label (List.length h) e
      | None -> Printf.printf "%s: %d commits, serializable\n%!" label (List.length h))

let certifiers =
  match Sys.argv with
  | [| _ |] -> [ Certifier.SSI; Certifier.SSN ]
  | [| _; name |] -> (
      match List.find_opt (fun k -> Certifier.kind_to_string k = name) Certifier.all_kinds with
      | Some k -> [ k ]
      | None ->
          prerr_endline "usage: check_presets [ssi|ssn|essn]";
          exit 2)
  | _ ->
      prerr_endline "usage: check_presets [ssi|ssn|essn]";
      exit 2

let () =
  List.iter
    (fun (name, sweep) ->
      List.iter
        (fun certifier ->
          (* The run in flight: checked, and dropped, when the next run
             starts or the sweep ends. *)
          let pending = ref None and run = ref 0 in
          let flush () =
            Option.iter (fun (label, history) -> verdict label !history) !pending;
            pending := None
          in
          let tap (b : Driver.bench) =
            flush ();
            incr run;
            let checked =
              match (b.Driver.mode, certifier) with
              | (Driver.SSI | Driver.SSI_no_ro_opt), _ | Driver.S2PL, Certifier.SSI -> true
              | Driver.SI, _ | Driver.S2PL, _ -> false
            in
            if not checked then { b with Driver.duration = 0.; warmup = 0. }
            else begin
              let history = ref [] in
              let label =
                Printf.sprintf "%s %s run %d %s" name
                  (Certifier.kind_to_string certifier)
                  !run (Driver.mode_name b.Driver.mode)
              in
              pending := Some (label, history);
              {
                b with
                Driver.certifier;
                chaos = Some (fun db -> E.set_recorder db (Some (fun e -> history := e :: !history)));
              }
            end
          in
          ignore (sweep ~tap);
          flush ())
        certifiers)
    Experiments.quick_sweeps;
  if !failed > 0 then begin
    Printf.printf "%d runs violated serializability\n" !failed;
    exit 1
  end
