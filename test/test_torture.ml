(* Kill-point recovery torture: crash the durable log at successive engine
   fault points (some with torn writes / bit flips on the flush in flight),
   cold-start with [Engine.recover], and check the durability contract on
   every cycle:

   - no acknowledged commit is lost, and the recovered commit records form
     a dense cseq prefix even when a damaged tail is truncated;
   - the recovered table equals the replay of the recovered commits;
   - in-doubt prepared transactions match the log and both COMMIT PREPARED
     and ROLLBACK PREPARED resolutions work after recovery;
   - a streaming replica resyncs from the recovered primary at a fenced
     higher epoch;
   - the combined pre/post-crash committed history stays serializable
     (checked by the DSG oracle);
   - everything replays identically from the same seed. *)

module T = Ssi_fault.Torture

let history_of (o : T.outcome) = o.T.o_history

let check_outcome (o : T.outcome) =
  let tag = Printf.sprintf "seed=%d kill=%d: " o.T.o_seed o.T.o_kill_point in
  Alcotest.(check (list int)) (tag ^ "no acked commit lost") [] o.T.o_lost_acked;
  Alcotest.(check bool) (tag ^ "dense cseq prefix") true o.T.o_dense_prefix;
  Alcotest.(check bool) (tag ^ "in-doubt set matches the log") true o.T.o_prepared_ok;
  Alcotest.(check bool) (tag ^ "state = replay of recovered commits") true o.T.o_state_ok;
  Alcotest.(check bool) (tag ^ "replica converged") true o.T.o_replica_ok;
  Alcotest.(check bool) (tag ^ "recovered primary fenced to a higher epoch") true
    (o.T.o_epoch > 1);
  Alcotest.(check bool) (tag ^ "history recorded") true
    (List.exists (fun (t : Ssi_engine.Recorded.txn) -> t.writes <> []) o.T.o_history);
  match Ssi_check.Dsg.check [ history_of o ] with
  | Ok () -> ()
  | Error cycle ->
      Alcotest.failf "%scombined history not serializable:\n%s" tag
        (Ssi_check.Dsg.pp_cycle cycle)

let run_sweep ~seed ~with_damage () =
  let outcomes = T.sweep ~max_kills:8 ~kill_every:7 ~seed ~with_damage () in
  Alcotest.(check bool) "sweep ran" true (outcomes <> []);
  List.iter check_outcome outcomes;
  outcomes

let test_sweep_clean () =
  let outcomes = run_sweep ~seed:11 ~with_damage:false () in
  Alcotest.(check bool) "at least one cycle crashed mid-workload" true
    (List.exists (fun o -> o.T.o_crashed) outcomes)

let test_sweep_damaged () =
  let outcomes = run_sweep ~seed:23 ~with_damage:true () in
  Alcotest.(check bool) "some flush in flight was damaged" true
    (List.exists (fun o -> o.T.o_damage <> None) outcomes)

let test_damaged_tail_truncated () =
  (* Sweep seeds until a cycle actually truncates a damaged tail — the
     acceptance case: a torn record never splits recovery, it is dropped. *)
  let rec hunt seed =
    if seed > 40 then Alcotest.fail "no damaged-tail truncation found in seed range"
    else
      let outcomes = T.sweep ~max_kills:6 ~kill_every:5 ~seed ~with_damage:true () in
      List.iter check_outcome outcomes;
      if not (List.exists (fun o -> o.T.o_truncated > 0) outcomes) then hunt (seed + 1)
  in
  hunt 7

let test_in_doubt_resolutions () =
  (* Crash points that land between PREPARE and COMMIT PREPARED leave
     sentinels in doubt; the harness resolves them alternately, so over a
     sweep both verdicts occur and both keep every invariant. *)
  let outcomes =
    List.concat_map
      (fun seed -> T.sweep ~max_kills:8 ~kill_every:9 ~seed ~with_damage:false ())
      [ 3; 5; 11 ]
  in
  List.iter check_outcome outcomes;
  let resolved = List.concat_map (fun o -> o.T.o_prepared_pending) outcomes in
  Alcotest.(check bool) "some cycle recovered an in-doubt transaction" true (resolved <> []);
  Alcotest.(check bool) "both resolutions exercised" true
    (List.exists (fun (_, r) -> r = T.Committed) resolved
    && List.exists (fun (_, r) -> r = T.Rolled_back) resolved)

let test_deterministic () =
  let strip (o : T.outcome) =
    (o.T.o_kill_point, o.T.o_crashed, o.T.o_damage, o.T.o_acked, o.T.o_truncated,
     o.T.o_prepared_pending, o.T.o_history, o.T.o_final)
  in
  let run () = List.map strip (T.sweep ~max_kills:4 ~kill_every:8 ~seed:17 ~with_damage:true ()) in
  Alcotest.(check bool) "same seed, same torture" true (run () = run ())

(* The CLI's sweep ([pg_ssi chaos --kill-points]) as a scenario: its whole
   outcome, every run's history included, replays byte-identically. *)
let test_scenario_replay () =
  let v =
    Ssi_harness.Scenario.replay
      (module T.Sweep)
      {
        T.Sweep.seed = 13;
        certifier = Ssi_core.Certifier.SSI;
        kill_points = 6;
        kill_every = 5;
        torn_writes = true;
        wal_out = None;
      }
  in
  Alcotest.(check bool) "byte-identical replay" true v.identical;
  Alcotest.(check int) "exit code" 0 v.exit_code;
  List.iter check_outcome v.outcome.T.Sweep.runs

let () =
  Alcotest.run "torture"
    [
      ( "kill points",
        [
          Alcotest.test_case "sweep, intact log" `Quick test_sweep_clean;
          Alcotest.test_case "sweep, damaged flushes" `Quick test_sweep_damaged;
          Alcotest.test_case "damaged tail truncated" `Quick test_damaged_tail_truncated;
          Alcotest.test_case "in-doubt resolutions" `Quick test_in_doubt_resolutions;
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "scenario replay" `Quick test_scenario_replay;
        ] );
    ]
