open Test_oracle
(* The conformance suite: random-history serializability checking (see
   oracle.ml) for every serializable mode — the SSI, SSN and ESSN
   certifiers, and strict 2PL — under every oracle configuration.

   - fixed seeds 1-40 of each mode and configuration must produce acyclic
     histories;
   - random (seed, configuration) pairs must replay byte-identically from
     their seed (the certifier, its edge lists and its caches may not
     perturb victim selection or wake order) and stay acyclic;
   - pinned regression seeds, once non-serializable under SSN and ESSN,
     must stay acyclic in every mode;
   - snapshot-isolation and read-committed histories must exhibit at least
     one cycle across the seed sweep, which validates that the oracle can
     detect anomalies at all. *)

module E = Ssi_engine.Engine

let seeds = List.init 40 (fun i -> i + 1)

let run ~isolation ~certifier cfg seed =
  Oracle.run_history ~isolation { cfg with Oracle.seed; certifier }

let check_serializable what history =
  match Ssi_check.Dsg.check [ history ] with
  | Ok () -> ()
  | Error cycle ->
      Alcotest.failf "%s produced a non-serializable history:\n%s" what
        (Ssi_check.Dsg.pp_cycle cycle)

(* What each configuration stresses, in the test name. *)
let cfg_titles =
  [
    ("default", "histories are serializable");
    ("contended", "under high contention");
    (* Summarization after every commit must lose no conflicts: extra
       false positives are allowed, missed anomalies are not. *)
    ("summarizing", "with constant summarization");
    (* Next-key index-gap locking (§5.2.1 future work) must lose no
       anomalies relative to page-granularity locking. *)
    ("nextkey", "with next-key gap locking");
    (* Declared READ ONLY transactions: safe snapshots and Theorem 3. *)
    ("readonly", "with read-only transactions");
  ]

let fixed_seed_tests =
  List.concat_map
    (fun (label, isolation, certifier) ->
      List.map
        (fun (name, cfg) ->
          Alcotest.test_case
            (label ^ " " ^ List.assoc name cfg_titles)
            `Slow
            (fun () ->
              List.iter
                (fun seed ->
                  check_serializable
                    (Printf.sprintf "%s/%s seed %d" label name seed)
                    (run ~isolation ~certifier cfg seed))
                seeds))
        Oracle.cfgs)
    Oracle.serializable_modes

let cfg_array = Array.of_list Oracle.cfgs

let prop_replay_and_dsg (label, isolation, certifier) =
  QCheck.Test.make
    ~name:(label ^ " histories replay byte-identically and stay serializable")
    ~count:32
    QCheck.(
      make
        ~print:(fun (seed, ci) -> Printf.sprintf "seed=%d cfg=%s" seed (fst cfg_array.(ci)))
        Gen.(pair (int_range 1 10_000) (int_range 0 (Array.length cfg_array - 1))))
    (fun (seed, ci) ->
      let cfg = snd cfg_array.(ci) in
      let h1 = run ~isolation ~certifier cfg seed in
      let h2 = run ~isolation ~certifier cfg seed in
      if h1 <> h2 then
        QCheck.Test.fail_report "same seed produced different committed histories";
      match Ssi_check.Dsg.check [ h1 ] with
      | Ok () -> true
      | Error cycle -> QCheck.Test.fail_report (Ssi_check.Dsg.pp_cycle cycle))

(* Histories SSN and ESSN once committed with a cycle, while their
   cleanup released a committed reader's SIREAD locks at SSI's horizon:
   seeds 978, 1145, 1286, 1509 (default) and 71 (nextkey) from a sweep,
   and the pairs the random property drew under qcheck seeds 1062, 1176,
   1185, 725469812, 172892554 and 1512542. *)
let regressions =
  ("nextkey", 71)
  :: List.map
       (fun s -> ("default", s))
       [ 978; 1145; 1286; 1509; 5696; 7957; 7054; 2918; 6568; 9457 ]

let test_regressions () =
  List.iter
    (fun (label, isolation, certifier) ->
      List.iter
        (fun (name, seed) ->
          check_serializable
            (Printf.sprintf "%s/%s seed %d" label name seed)
            (run ~isolation ~certifier (List.assoc name Oracle.cfgs) seed))
        regressions)
    Oracle.serializable_modes

(* Unconstrained snapshot isolation, and the weaker read committed, must
   show cycles on this workload, or the checker is not checking. *)
let test_shows_anomalies isolation () =
  let cycles =
    List.fold_left
      (fun acc seed ->
        match
          Ssi_check.Dsg.check
            [ run ~isolation ~certifier:Ssi_core.Certifier.SSI Oracle.default_cfg seed ]
        with
        | Ok () -> acc
        | Error _ -> acc + 1)
      0 seeds
  in
  Alcotest.(check bool) (Printf.sprintf "%d cyclic histories" cycles) true (cycles > 0)

let () =
  Alcotest.run "serializability"
    [
      ( "oracle",
        fixed_seed_tests
        @ [
            Alcotest.test_case "SI histories show anomalies" `Slow
              (test_shows_anomalies E.Repeatable_read);
            Alcotest.test_case "RC histories show anomalies" `Slow
              (test_shows_anomalies E.Read_committed);
          ]
        @ List.map
            (fun mode -> QCheck_alcotest.to_alcotest (prop_replay_and_dsg mode))
            (List.filter (fun (l, _, _) -> l <> "S2PL") Oracle.serializable_modes) );
      ( "regressions",
        [ Alcotest.test_case "once non-serializable seeds stay serializable" `Quick
            test_regressions ] );
    ]
