(* Chaos tests: seeded fault plans (crashes, transient I/O faults, memory
   pressure, replica lag, failover) executed against a live workload on the
   simulator's virtual clock.  The engine records every surviving committed
   transaction, and the recorded history is checked for serializability and
   read exactness (Ssi_check.Dsg).

   Each plan also checks the durability invariants of §7.1:
   - acknowledged commits survive a crash (the final table state equals the
     replay of the committed history in commit-sequence order);
   - in-flight transactions vanish at a crash;
   - a transaction prepared before the crash survives it and can still be
     committed;
   and the replication invariants of §7.2:
   - the replica converges to the primary once its apply lag drains;
   - a replica promoted at `Latest_safe (failover) equals the primary's
     state at the safe-point commit sequence.

   Every plan is run twice from the same seed: the chaos schedule, the
   committed history, and the final state must replay identically. *)

open Ssi_storage
module E = Ssi_engine.Engine
module Sim = Ssi_sim.Sim
module F = Ssi_fault.Fault
module R = Ssi_replication.Replica
module Rng = Ssi_util.Rng
module Dsg = Ssi_check.Dsg

let table = "kv"
let keys = 12
let vi i = Value.Int i

(* The workload's virtual duration with these costs is ~10ms; fault plans
   are drawn over a horizon inside it so events hit a live system. *)
let horizon = 6e-3

let sim_costs =
  { E.zero_costs with E.cpu_per_op = 80e-6; cpu_per_tuple = 4e-6; io_commit = 40e-6 }

type cfg = {
  seed : int;
  workers : int;
  txns_per_worker : int;
  ops_per_txn : int;
  crashes : int;
  bursts : int;
  pressures : int;
  lag_spikes : int;
  failover : bool;
}

let base_cfg =
  {
    seed = 0;
    workers = 4;
    txns_per_worker = 15;
    ops_per_txn = 4;
    crashes = 0;
    bursts = 0;
    pressures = 0;
    lag_spikes = 0;
    failover = false;
  }

type outcome = {
  history : Dsg.history;  (** the recorded committed transactions, in commit order *)
  chaos_log : string list;
  final_rows : (int * int) list;  (** primary (key, writer), workload keys *)
  replica_rows : (int * int) list;
      (** replica `Latest_applied after drain: the lagged one, or after a
          failover the second *)
  promoted : ((int * int) list * int) option;  (** failover rows, safe cseq *)
  crash_checks : int;
  injected : int;
  summarized : int;
  retries : int;
  giveups : int;
  alerts : string list;  (** rendered SLO-watchdog firings, must replay *)
}

(* Retry policy with real (virtual-time) backoff, so giving the workload
   resilience also perturbs its schedule deterministically. *)
let chaos_policy =
  {
    E.default_retry_policy with
    E.max_attempts = 50;
    backoff_base = 1e-5;
    backoff_multiplier = 2.0;
    backoff_max = 1e-3;
    jitter = 0.5;
  }

(* One transaction: random updates, point reads, and small index scans
   over a fully-seeded table.  Each update stamps the row with the
   writer's xid, so the final state can be compared with the history. *)
let txn_body rng cfg t =
  let me = E.xid t in
  for _ = 1 to cfg.ops_per_txn do
    let k = Rng.int rng keys in
    let p = Rng.float rng 1.0 in
    if p < 0.45 then ignore (E.update t ~table ~key:(vi k) ~f:(fun row -> [| row.(0); vi me |]))
    else if p < 0.70 then begin
      let hi = min (keys - 1) (k + 3) in
      ignore (E.index_scan t ~table ~index:(table ^ "_pkey") ~lo:(vi k) ~hi:(vi hi))
    end
    else ignore (E.read t ~table ~key:(vi k))
  done

let rows_of_scan rows =
  List.sort compare
    (List.filter_map
       (fun row ->
         let k = Value.as_int row.(0) in
         if k < keys then Some (k, Value.as_int row.(1)) else None)
       rows)

let run_plan cfg =
  let plan =
    F.gen_plan ~seed:cfg.seed ~horizon ~crashes:cfg.crashes ~bursts:cfg.bursts
      ~pressures:cfg.pressures ~lag_spikes:cfg.lag_spikes ~failover:cfg.failover ()
  in
  let chaos_log = ref [] in
  let log s = chaos_log := s :: !chaos_log in
  let history = ref [] in
  let final_rows = ref [] in
  let replica_rows = ref [] in
  let promoted = ref None in
  let crash_checks = ref 0 in
  let summarized = ref 0 in
  let retries = ref 0 in
  let giveups = ref 0 in
  let injector = F.injector ~seed:cfg.seed in
  let config = { E.default_config with E.costs = sim_costs } in
  let db = E.create ~scheduler:Sim.scheduler ~config () in
  let replica = R.attach db in
  (* A promoted replica stops following the primary: the convergence
     check of a failover plan reads a second one. *)
  let mirror = R.attach db in
  E.set_fault_injector db (Some (fun ~op -> F.hook injector ~op));
  (* Around each crash: park a freshly-prepared transaction on a sentinel
     key, let the crash happen, then check §7.1's recovery contract. *)
  let sentinel = ref 0 in
  let pending_gid = ref None in
  let observer phase (ev : F.event) =
    match (phase, ev.F.kind) with
    | `Before, F.Crash ->
        incr sentinel;
        let gid = Printf.sprintf "chaos-%d" !sentinel in
        let tp = E.begin_txn db in
        E.insert tp ~table [| vi (1000 + !sentinel); vi (E.xid tp) |];
        E.prepare tp ~gid;
        pending_gid := Some gid
    | `After, F.Crash ->
        let gid = match !pending_gid with Some g -> g | None -> assert false in
        pending_gid := None;
        Alcotest.(check bool)
          "prepared transaction survives the crash" true
          (List.mem gid (E.prepared_gids db));
        Alcotest.(check int) "in-flight transactions vanished at the crash"
          (List.length (E.prepared_gids db))
          (E.active_transactions db);
        E.commit_prepared db ~gid;
        incr crash_checks
    | `After, F.Failover ->
        let safe = R.last_safe_cseq replica in
        let eng = (R.promote replica `Latest_safe).R.engine in
        let rows =
          E.with_txn ~isolation:E.Repeatable_read eng (fun t -> E.seq_scan t ~table ())
        in
        promoted := Some (rows_of_scan rows, safe)
    | _ -> ()
  in
  let done_workers = ref 0 in
  let all_done = Ssi_util.Waitq.create () in
  (* Always-on telemetry over the whole plan: scrape windows a fraction of
     the horizon so lag spikes and abort bursts land inside them; the
     thresholds are tuned to this harness's tiny virtual scale. *)
  let watchdog = ref None in
  ignore
    (Sim.run (fun () ->
         let scrape = Ssi_obs.Scrape.create ~capacity:64 (E.obs db) in
         watchdog :=
           Some
             (Ssi_obs.Watchdog.create scrape
                (Ssi_obs.Watchdog.default_rules ~replicas:[ R.name replica ]
                   ~lag_threshold:1.5 ~lag_windows:2 ~abort_rate:100. ()));
         Ssi_obs.Scrape.run scrape ~interval:(horizon /. 20.) ~until:(horizon *. 2.5);
         E.create_table db ~name:table ~cols:[ "k"; "writer" ] ~key:"k";
         E.with_txn db (fun t ->
             (* [expected_state] treats xid 1 as the seed writer. *)
             Alcotest.(check int) "setup is the first transaction" 1 (E.xid t);
             for k = 0 to keys - 1 do
               E.insert t ~table [| vi k; vi (E.xid t) |]
             done);
         E.set_recorder db (Some (fun entry -> history := entry :: !history));
         Sim.spawn (fun () ->
             F.execute ~observer
               { F.engine = db; injector = Some injector; replica = Some replica; fleet = []; net = None; net_ops = None }
               plan ~log);
         for w = 1 to cfg.workers do
           let rng = Rng.make (Hashtbl.hash (cfg.seed, w)) in
           let backoff_rng = Rng.make (Hashtbl.hash (cfg.seed, w, "backoff")) in
           Sim.spawn (fun () ->
               for _ = 1 to cfg.txns_per_worker do
                 (try
                    E.retry_with ~policy:chaos_policy ~rng:backoff_rng db (fun t ->
                        txn_body rng cfg t)
                  with E.Error e when E.retryable e -> ());
                 Sim.delay (Rng.float rng 0.0005)
               done;
               incr done_workers;
               if !done_workers = cfg.workers then Ssi_util.Waitq.wake_all all_done);
           ()
         done;
         Sim.spawn (fun () ->
             while !done_workers < cfg.workers do
               Sim.wait all_done
             done;
             (* Quiesced: drain the replica and compare both ends. *)
             R.set_apply_lag replica 0;
             final_rows :=
               rows_of_scan
                 (E.with_txn ~isolation:E.Repeatable_read db (fun t -> E.seq_scan t ~table ()));
             let follower = if !promoted = None then replica else mirror in
             let rt = R.begin_read follower `Latest_applied in
             replica_rows := rows_of_scan (E.seq_scan rt ~table ());
             summarized := Ssi_obs.Obs.get_counter (E.obs db) "ssi.summarized";
             retries := Ssi_obs.Obs.get_counter (E.obs db) "engine.retries";
             giveups := Ssi_obs.Obs.get_counter (E.obs db) "engine.giveups")));
  {
    history = List.rev !history;
    chaos_log = List.rev !chaos_log;
    final_rows = !final_rows;
    replica_rows = !replica_rows;
    promoted = !promoted;
    crash_checks = !crash_checks;
    injected = F.injected injector;
    summarized = !summarized;
    retries = !retries;
    giveups = !giveups;
    alerts =
      (match !watchdog with
      | Some wd ->
          List.map Ssi_obs.Watchdog.render_alert (Ssi_obs.Watchdog.alerts wd)
      | None -> []);
  }

(* Replay the committed history (in commit-sequence order) up to cseq
   [upto]: the expected (key, writer) state.  The seed transaction is
   xid 1. *)
let expected_state ?(upto = max_int) (history : Dsg.history) =
  let writer = Array.make keys 1 in
  List.iter
    (fun (t : Ssi_engine.Recorded.txn) ->
      if t.cseq <= upto then
        List.iter
          (fun (w : Ssi_engine.Recorded.write) ->
            let k = Value.as_int w.key in
            if k < keys then writer.(k) <- t.xid)
          t.writes)
    history;
  List.init keys (fun k -> (k, writer.(k)))

let check_outcome name cfg o =
  (* Serializability: the DSG of the surviving committed history must be
     acyclic no matter what faults were injected, and every read must have
     returned the last version committed before its snapshot. *)
  (match Dsg.check [ o.history ] with
  | Ok () -> ()
  | Error cycle ->
      Alcotest.failf "%s: non-serializable history under faults\n%s" name (Dsg.pp_cycle cycle));
  Option.iter (Alcotest.failf "%s: stale read under faults: %s" name) (Dsg.stale_read [ o.history ]);
  (* Durability: the final table equals the committed history's replay —
     acknowledged commits survived every crash, aborted and in-flight
     attempts left no trace. *)
  Alcotest.(check (list (pair int int)))
    (name ^ ": final state = replay of committed history")
    (expected_state o.history) o.final_rows;
  (* Replication: the drained replica mirrors the primary. *)
  Alcotest.(check (list (pair int int)))
    (name ^ ": replica converged to primary")
    o.final_rows o.replica_rows;
  (* Failover: the promoted snapshot equals the primary's state at the
     safe-point commit sequence. *)
  (match o.promoted with
  | None -> Alcotest.(check bool) (name ^ ": failover ran") false cfg.failover
  | Some (rows, safe) ->
      Alcotest.(check (list (pair int int)))
        (name ^ ": promoted replica = safe-snapshot state")
        (expected_state ~upto:safe o.history)
        rows);
  (* Every planned crash exercised the §7.1 recovery contract. *)
  Alcotest.(check int) (name ^ ": crash recovery checks ran") cfg.crashes o.crash_checks;
  Alcotest.(check bool) (name ^ ": some transactions committed") true
    (List.exists (fun (t : Ssi_engine.Recorded.txn) -> t.writes <> []) o.history)

let comparable o =
  ( o.chaos_log,
    o.history,
    o.final_rows,
    o.injected,
    o.alerts )

(* Aggregated across all plans, checked last: the perturbations really
   fired (plans are tuned so each fault class triggers somewhere). *)
let total_injected = ref 0
let total_summarized = ref 0
let total_retries = ref 0
let alert_kinds_seen : (string, unit) Hashtbl.t = Hashtbl.create 8

let record_alert_kinds o =
  List.iter
    (fun line ->
      (* "[<ts>] <kind> <rule>: ..." *)
      match String.split_on_char ' ' line with
      | _ :: kind :: _ -> Hashtbl.replace alert_kinds_seen kind ()
      | _ -> ())
    o.alerts

let plan_case cfg =
  let name =
    Printf.sprintf "seed %d: %dx crash, %dx burst, %dx pressure, %dx lag%s" cfg.seed
      cfg.crashes cfg.bursts cfg.pressures cfg.lag_spikes
      (if cfg.failover then ", failover" else "")
  in
  Alcotest.test_case name `Quick (fun () ->
      let o1 = run_plan cfg in
      check_outcome name cfg o1;
      (* Determinism: same seed, same chaos schedule, same history. *)
      let o2 = run_plan cfg in
      Alcotest.(check bool)
        (name ^ ": same-seed rerun replays identically")
        true
        (comparable o1 = comparable o2);
      total_injected := !total_injected + o1.injected;
      total_summarized := !total_summarized + o1.summarized;
      total_retries := !total_retries + o1.retries;
      record_alert_kinds o1)

let plans =
  List.map (fun seed -> { base_cfg with seed; crashes = 2 }) [ 101; 102; 103; 104; 105 ]
  @ List.map (fun seed -> { base_cfg with seed; bursts = 2 }) [ 201; 202; 203; 204; 205 ]
  @ List.map (fun seed -> { base_cfg with seed; pressures = 2 }) [ 301; 302; 303 ]
  @ List.map (fun seed -> { base_cfg with seed; lag_spikes = 2 }) [ 401; 402; 403 ]
  @ List.map
      (fun seed ->
        {
          base_cfg with
          seed;
          crashes = 1;
          bursts = 1;
          pressures = 1;
          lag_spikes = 1;
          failover = true;
        })
      [ 501; 502; 503; 504 ]

let sanity_case =
  Alcotest.test_case "fault classes all fired across the sweep" `Quick (fun () ->
      Alcotest.(check bool) "transient faults were injected" true (!total_injected > 0);
      Alcotest.(check bool) "memory pressure forced summarization" true (!total_summarized > 0);
      Alcotest.(check bool) "workers retried through faults" true (!total_retries > 0);
      (* The SLO watchdog saw the sweep too: both the rate-spike and the
         gauge-breach alert families fired somewhere (each plan's alert
         log also replayed byte-identically above, as part of
         [comparable]). *)
      let kinds = List.sort compare (Hashtbl.fold (fun k () l -> k :: l) alert_kinds_seen []) in
      Alcotest.(check bool)
        (Printf.sprintf "watchdog alert kinds fired: [%s]" (String.concat "; " kinds))
        true
        (List.mem "rate_spike" kinds && List.mem "slo_breach" kinds))

(* The CLI's plain chaos scenario ([pg_ssi chaos]): run twice through
   [Scenario.replay], its whole outcome — fault log, results, replica and
   streaming state, telemetry — must be byte-identical. *)
let scenario_case name cfg =
  Alcotest.test_case name `Quick (fun () ->
      let module C = Ssi_harness.Chaos in
      let v = Ssi_harness.Scenario.replay (module C) cfg in
      Alcotest.(check bool) "byte-identical replay" true v.identical;
      Alcotest.(check int) "exit code" 0 v.exit_code;
      Alcotest.(check bool) "fault plan ran" true (v.outcome.C.log <> []);
      Alcotest.(check bool) "committed" true (v.outcome.C.result.Ssi_workload.Driver.committed > 0))

let scenario_cases =
  let d = Ssi_harness.Chaos.default_cfg in
  [
    scenario_case "direct replica, failover, alerts"
      { d with seed = 3; duration = 0.2; failover = true; alerts = true };
    scenario_case "streamed replicas, partitions, quorum"
      {
        d with
        seed = 11;
        duration = 0.2;
        replicas = 2;
        quorum = Some 1;
        partitions = 1;
        net_chaos = 1;
        failover = true;
      };
  ]

let () =
  Alcotest.run "chaos"
    [
      ("seeded fault plans", List.map plan_case plans @ [ sanity_case ]);
      ("scenario replay", scenario_cases);
    ]
