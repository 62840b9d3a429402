(* Log-shipping replication (§7.2): WAL application, safe-snapshot
   markers, the serializability problem of reading replicas at arbitrary
   positions, and its resolution via safe snapshots. *)

open Ssi_storage
module E = Ssi_engine.Engine
module R = Ssi_replication.Replica
module Sim = Ssi_sim.Sim

let vi i = Value.Int i

let fresh () =
  let db = E.create () in
  E.create_table db ~name:"kv" ~cols:[ "k"; "v" ] ~key:"k";
  let replica = R.attach db in
  (db, replica)

let bump t k v = ignore (E.update t ~table:"kv" ~key:(vi k) ~f:(fun r -> [| r.(0); vi v |]))

let r_value rt k =
  match R.read rt ~table:"kv" ~key:(vi k) with
  | Some row -> Some (Value.as_int row.(1))
  | None -> None

let test_apply_basic () =
  let db, replica = fresh () in
  E.with_txn db (fun t ->
      E.insert t ~table:"kv" [| vi 1; vi 10 |];
      E.insert t ~table:"kv" [| vi 2; vi 20 |]);
  E.with_txn db (fun t -> bump t 1 11);
  E.with_txn db (fun t -> ignore (E.delete t ~table:"kv" ~key:(vi 2)));
  let rt = R.begin_read replica `Latest_applied in
  Alcotest.(check (option int)) "update applied" (Some 11) (r_value rt 1);
  Alcotest.(check (option int)) "delete applied" None (r_value rt 2)

let test_aborts_not_shipped () =
  let db, replica = fresh () in
  let t = E.begin_txn db in
  E.insert t ~table:"kv" [| vi 1; vi 10 |];
  E.abort t;
  let rt = R.begin_read replica `Latest_applied in
  Alcotest.(check (option int)) "aborted write never shipped" None (r_value rt 1)

let test_snapshot_stability () =
  (* A replica read transaction keeps one position even as new commits
     apply. *)
  let db, replica = fresh () in
  E.with_txn db (fun t -> E.insert t ~table:"kv" [| vi 1; vi 10 |]);
  let rt = R.begin_read replica `Latest_applied in
  E.with_txn db (fun t -> bump t 1 99);
  Alcotest.(check (option int)) "old snapshot" (Some 10) (r_value rt 1);
  let rt2 = R.begin_read replica `Latest_applied in
  Alcotest.(check (option int)) "new snapshot" (Some 99) (r_value rt2 1)

let test_apply_lag () =
  let db, replica = fresh () in
  R.set_apply_lag replica 1;
  E.with_txn db (fun t -> E.insert t ~table:"kv" [| vi 1; vi 10 |]);
  let rt = R.begin_read replica `Latest_applied in
  Alcotest.(check (option int)) "held back" None (r_value rt 1);
  E.with_txn db (fun t -> E.insert t ~table:"kv" [| vi 2; vi 20 |]);
  let rt = R.begin_read replica `Latest_applied in
  Alcotest.(check (option int)) "first record now applied" (Some 10) (r_value rt 1);
  R.set_apply_lag replica 0;
  let rt = R.begin_read replica `Latest_applied in
  Alcotest.(check (option int)) "drained" (Some 20) (r_value rt 2)

let test_safe_point_markers () =
  let db, replica = fresh () in
  (* No concurrent rw serializable transactions: every commit is a safe
     point. *)
  E.with_txn db (fun t -> E.insert t ~table:"kv" [| vi 1; vi 10 |]);
  Alcotest.(check bool) "safe point advanced" true (R.last_safe_cseq replica > 0);
  Alcotest.(check int) "equals applied" (R.applied_cseq replica) (R.last_safe_cseq replica);
  (* With a concurrent rw serializable transaction, commits are NOT safe
     points. *)
  let open_rw = E.begin_txn db in
  ignore (E.read open_rw ~table:"kv" ~key:(vi 1));
  E.with_txn db (fun t -> bump t 1 11);
  Alcotest.(check bool) "not a safe point" true
    (R.last_safe_cseq replica < R.applied_cseq replica);
  E.commit open_rw

(* The §7.2 scenario: the batch-processing REPORT run on a replica.
   Reading the latest applied state can expose the Figure 2 anomaly;
   reading at safe-snapshot markers cannot. *)
let batch_scenario mode =
  let db = E.create () in
  E.create_table db ~name:"control" ~cols:[ "id"; "batch" ] ~key:"id";
  E.create_table db ~name:"receipts" ~cols:[ "rid"; "batch"; "amount" ] ~key:"rid";
  let replica = R.attach db in
  E.with_txn db (fun t -> E.insert t ~table:"control" [| vi 0; vi 1 |]);
  (* T2 (NEW-RECEIPT) reads the batch number and stays open. *)
  let t2 = E.begin_txn db in
  let x2 =
    match E.read t2 ~table:"control" ~key:(vi 0) with
    | Some row -> Value.as_int row.(1)
    | None -> assert false
  in
  (* T3 (CLOSE-BATCH) increments and commits — NOT a safe point, because
     T2 is a concurrent rw serializable transaction. *)
  E.with_txn db (fun t ->
      ignore
        (E.update t ~table:"control" ~key:(vi 0) ~f:(fun row ->
             [| row.(0); vi (Value.as_int row.(1) + 1) |])));
  (* REPORT on the replica: shows the total of the PREVIOUS batch (the
     one most recently closed).  The Figure 2 invariant: once a batch's
     total has been reported, it never changes. *)
  let reported : (int, int) Hashtbl.t = Hashtbl.create 4 in
  let changed = ref 0 in
  let report () =
    let rt = R.begin_read replica mode in
    let visible_batch =
      match R.read rt ~table:"control" ~key:(vi 0) with
      | Some row -> Value.as_int row.(1)
      | None -> 0
    in
    let prev = visible_batch - 1 in
    let total =
      List.fold_left
        (fun acc row -> acc + Value.as_int row.(2))
        0
        (R.scan rt ~table:"receipts" ~filter:(fun row -> Value.as_int row.(1) = prev) ())
    in
    (match Hashtbl.find_opt reported prev with
    | None -> Hashtbl.add reported prev total
    | Some seen -> if seen <> total then incr changed);
    visible_batch
  in
  let batch_before = report () in
  (* T2 commits its receipt into the now-closed batch. *)
  E.insert t2 ~table:"receipts" [| vi 100; vi x2; vi 25 |];
  E.commit t2;
  let batch_after = report () in
  (batch_before, batch_after, !changed)

let test_replica_anomaly_at_latest_applied () =
  let batch_before, batch_after, changed = batch_scenario `Latest_applied in
  (* The replica saw CLOSE-BATCH immediately (batch 2, reporting batch 1's
     total as 0), then the late receipt changed the reported total. *)
  Alcotest.(check int) "saw the closed batch immediately" 2 batch_before;
  Alcotest.(check int) "still batch 2" 2 batch_after;
  Alcotest.(check int) "a reported total changed: anomaly" 1 changed

let test_replica_safe_snapshot_serializable () =
  let batch_before, batch_after, changed = batch_scenario `Latest_safe in
  (* The safe snapshot withheld CLOSE-BATCH until NEW-RECEIPT resolved:
     batch 1's total is first reported only when it already includes the
     receipt — the reported total never changes. *)
  Alcotest.(check int) "close-batch withheld at first" 1 batch_before;
  Alcotest.(check int) "visible once the concurrent txn resolved" 2 batch_after;
  Alcotest.(check int) "no reported total ever changed" 0 changed

(* The §7.2 claim restated through the DSG oracle: model a replica read as
   a pseudo read-only transaction appended to the committed history.  Under
   injected apply lag, a `Latest_applied read can land between two commits
   whose order matters — the pseudo transaction closes a cycle in the
   serialization graph.  A `Latest_safe read never can. *)
let oracle_lag_scenario () =
  let open Test_oracle in
  let db = E.create () in
  E.create_table db ~name:"kv" ~cols:[ "k"; "writer" ] ~key:"k";
  let replica = R.attach db in
  E.with_txn db (fun t ->
      (* The oracle treats xid 1 as the seed writer. *)
      Alcotest.(check int) "setup is the first transaction" 1 (E.xid t);
      E.insert t ~table:"kv" [| vi 0; vi (E.xid t) |];
      E.insert t ~table:"kv" [| vi 1; vi (E.xid t) |]);
  (* T2 reads key 0 and stays open; it will write key 1 and commit last. *)
  let t2 = E.begin_txn db in
  let v0 =
    match E.read t2 ~table:"kv" ~key:(vi 0) with
    | Some row -> Value.as_int row.(1)
    | None -> assert false
  in
  (* T3 overwrites key 0 and commits first — T2 --rw--> T3, and T3's
     commit is not a safe point because T2 is an active rw transaction. *)
  let x3 = ref 0 in
  E.with_txn db (fun t ->
      x3 := E.xid t;
      ignore (E.update t ~table:"kv" ~key:(vi 0) ~f:(fun r -> [| r.(0); vi (E.xid t) |])));
  (* The lag spike: T2's commit reaches the replica but is not applied. *)
  R.set_apply_lag replica 1;
  let x2 = E.xid t2 in
  ignore (E.update t2 ~table:"kv" ~key:(vi 1) ~f:(fun r -> [| r.(0); vi x2 |]));
  E.commit t2;
  let committed =
    [
      { Oracle.xid = !x3; reads = []; writes = [ 0 ]; order = 1 };
      { Oracle.xid = x2; reads = [ (0, v0) ]; writes = [ 1 ]; order = 2 };
    ]
  in
  (replica, committed)

let replica_pseudo_txn replica mode ~order =
  let open Test_oracle in
  let rt = R.begin_read replica mode in
  let version k =
    match R.read rt ~table:"kv" ~key:(vi k) with
    | Some row -> Value.as_int row.(1)
    | None -> 0
  in
  { Oracle.xid = 999; reads = [ (0, version 0); (1, version 1) ]; writes = []; order }

let test_oracle_cycle_at_latest_applied () =
  let open Test_oracle in
  let replica, committed = oracle_lag_scenario () in
  (* The lagged read sees T3's write but not T2's: T2 -> T3 -> RT -> T2. *)
  let history = { Oracle.committed = committed @ [ replica_pseudo_txn replica `Latest_applied ~order:3 ] } in
  match Oracle.check_serializable history with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "expected a DSG cycle reading `Latest_applied under lag"

let test_oracle_acyclic_at_latest_safe () =
  let open Test_oracle in
  let replica, committed = oracle_lag_scenario () in
  (* Before the lag drains: the safe snapshot still predates T3. *)
  let h1 = { Oracle.committed = committed @ [ replica_pseudo_txn replica `Latest_safe ~order:3 ] } in
  (match Oracle.check_serializable h1 with
  | Ok () -> ()
  | Error cycle -> Alcotest.failf "safe snapshot not serializable\n%s" (Oracle.pp_cycle h1 cycle));
  (* After it drains: T2's commit was a safe point, so the snapshot now
     includes both writes — still acyclic. *)
  R.set_apply_lag replica 0;
  let h2 = { Oracle.committed = committed @ [ replica_pseudo_txn replica `Latest_safe ~order:3 ] } in
  match Oracle.check_serializable h2 with
  | Ok () -> ()
  | Error cycle -> Alcotest.failf "drained safe snapshot not serializable\n%s" (Oracle.pp_cycle h2 cycle)

let test_wait_snapshot () =
  (* The deferrable-style replica option: wait for the next safe point. *)
  let arrived = ref 0 in
  ignore
    (Sim.run (fun () ->
         let db = E.create ~scheduler:Sim.scheduler () in
         E.create_table db ~name:"kv" ~cols:[ "k"; "v" ] ~key:"k";
         let replica = R.attach db in
         let rw = E.begin_txn db in
         ignore (E.read rw ~table:"kv" ~key:(vi 1));
         Sim.spawn (fun () ->
             Sim.delay 1.0;
             E.with_txn db (fun t -> E.insert t ~table:"kv" [| vi 1; vi 1 |]) (* unsafe *);
             E.commit rw;
             (* Now no rw serializable transaction is active: the next
                commit is a safe point. *)
             E.with_txn db (fun t -> E.insert t ~table:"kv" [| vi 2; vi 2 |]));
         Sim.spawn (fun () ->
             arrived := R.wait_snapshot replica ~after:0;
             Alcotest.(check bool) "waited" true (Sim.now () >= 1.0))));
  Alcotest.(check bool) "safe cseq returned" true (!arrived > 0)

let test_wait_snapshot_deadline () =
  (* Same wait, but cut off from safe points: the deadline converts an
     eternal suspension into a retryable fault. *)
  let raised = ref false in
  ignore
    (Sim.run (fun () ->
         let db = E.create ~scheduler:Sim.scheduler () in
         E.create_table db ~name:"kv" ~cols:[ "k"; "v" ] ~key:"k";
         let replica = R.attach db in
         (* An rw serializable transaction stays open for the whole run, so
            no commit ever becomes a safe point. *)
         let rw = E.begin_txn db in
         ignore (E.read rw ~table:"kv" ~key:(vi 1));
         Sim.spawn (fun () ->
             Sim.delay 0.5;
             E.with_txn db (fun t -> E.insert t ~table:"kv" [| vi 1; vi 1 |]));
         Sim.spawn (fun () ->
             try ignore (R.wait_snapshot ~deadline:1.0 replica ~after:0)
             with E.Error (E.Transient_fault { op; _ }) ->
               raised := true;
               Alcotest.(check string) "fault names the operation" "wait_snapshot" op;
               Alcotest.(check bool) "deadline elapsed first" true (Sim.now () >= 1.0));
         Sim.spawn (fun () ->
             Sim.delay 2.0;
             E.commit rw)));
  Alcotest.(check bool) "timed out with a retryable fault" true !raised

let test_wait_snapshot_deadline_success () =
  (* A deadline that is NOT hit behaves exactly like the plain wait. *)
  let arrived = ref 0 in
  ignore
    (Sim.run (fun () ->
         let db = E.create ~scheduler:Sim.scheduler () in
         E.create_table db ~name:"kv" ~cols:[ "k"; "v" ] ~key:"k";
         let replica = R.attach db in
         Sim.spawn (fun () ->
             Sim.delay 0.2;
             E.with_txn db (fun t -> E.insert t ~table:"kv" [| vi 1; vi 1 |]));
         Sim.spawn (fun () -> arrived := R.wait_snapshot ~deadline:5.0 replica ~after:0)));
  Alcotest.(check bool) "safe cseq returned before the deadline" true (!arrived > 0)

let test_multi_replica_attach () =
  (* Several replicas on one primary: all fed, and their metrics kept
     apart (auto-names r1, r2, ... in the primary's registry). *)
  let db = E.create () in
  E.create_table db ~name:"kv" ~cols:[ "k"; "v" ] ~key:"k";
  let a = R.attach db in
  let b = R.attach db in
  R.set_apply_lag b 1;
  E.with_txn db (fun t -> E.insert t ~table:"kv" [| vi 1; vi 10 |]);
  E.with_txn db (fun t -> bump t 1 11);
  Alcotest.(check string) "auto name r1" "r1" (R.name a);
  Alcotest.(check string) "auto name r2" "r2" (R.name b);
  let rta = R.begin_read a `Latest_applied in
  let rtb = R.begin_read b `Latest_applied in
  Alcotest.(check (option int)) "first replica fully applied" (Some 11) (r_value rta 1);
  Alcotest.(check (option int)) "second replica lags independently" (Some 10) (r_value rtb 1);
  let obs = E.obs db in
  Alcotest.(check bool) "per-replica gauges do not collide" true
    (Ssi_obs.Obs.gauge_value (Ssi_obs.Obs.gauge obs "replica.r1.apply_lag")
    <> Ssi_obs.Obs.gauge_value (Ssi_obs.Obs.gauge obs "replica.r2.apply_lag"))

let test_promote_drains_pending () =
  (* Failover must not silently drop WAL the replica already holds: even
     records parked behind an apply-lag window are applied first. *)
  let db, replica = fresh () in
  R.set_apply_lag replica 2;
  E.with_txn db (fun t -> E.insert t ~table:"kv" [| vi 1; vi 10 |]);
  E.with_txn db (fun t -> E.insert t ~table:"kv" [| vi 2; vi 20 |]);
  E.with_txn db (fun t -> E.insert t ~table:"kv" [| vi 3; vi 30 |]);
  Alcotest.(check int) "two records parked" 2 (R.pending_records replica);
  let p = R.promote replica ~primary:db `Latest_applied in
  Alcotest.(check int) "nothing discarded" 0 p.R.discarded_commits;
  let n =
    E.with_txn p.R.engine (fun t -> List.length (E.seq_scan t ~table:"kv" ()))
  in
  Alcotest.(check int) "parked records survived the failover" 3 n

let test_promote_reports_discarded () =
  (* A `Latest_safe promotion gives up the commits after the last safe
     point — and says how many. *)
  let db, replica = fresh () in
  E.with_txn db (fun t -> E.insert t ~table:"kv" [| vi 1; vi 10 |]) (* safe *);
  let rw = E.begin_txn db in
  ignore (E.read rw ~table:"kv" ~key:(vi 1));
  E.with_txn db (fun t -> E.insert t ~table:"kv" [| vi 2; vi 20 |]) (* unsafe *);
  E.with_txn db (fun t -> E.insert t ~table:"kv" [| vi 3; vi 30 |]) (* unsafe *);
  let p = R.promote replica ~primary:db `Latest_safe in
  Alcotest.(check int) "two commits discarded" 2 p.R.discarded_commits;
  Alcotest.(check int) "promoted at the safe point" (R.last_safe_cseq replica)
    p.R.promote_cseq;
  let n =
    E.with_txn p.R.engine (fun t -> List.length (E.seq_scan t ~table:"kv" ()))
  in
  Alcotest.(check int) "unsafe tail absent" 1 n;
  E.commit rw

let () =
  Alcotest.run "replication"
    [
      ( "wal application",
        [
          Alcotest.test_case "basic" `Quick test_apply_basic;
          Alcotest.test_case "aborts not shipped" `Quick test_aborts_not_shipped;
          Alcotest.test_case "snapshot stability" `Quick test_snapshot_stability;
          Alcotest.test_case "apply lag" `Quick test_apply_lag;
          Alcotest.test_case "multi-replica attach" `Quick test_multi_replica_attach;
        ] );
      ( "failover",
        [
          Alcotest.test_case "promote drains pending WAL" `Quick test_promote_drains_pending;
          Alcotest.test_case "promote reports discarded commits" `Quick
            test_promote_reports_discarded;
          Alcotest.test_case "wait with deadline times out" `Quick test_wait_snapshot_deadline;
          Alcotest.test_case "wait with deadline succeeds" `Quick
            test_wait_snapshot_deadline_success;
        ] );
      ( "safe snapshots (§7.2)",
        [
          Alcotest.test_case "markers" `Quick test_safe_point_markers;
          Alcotest.test_case "anomaly at latest applied" `Quick
            test_replica_anomaly_at_latest_applied;
          Alcotest.test_case "safe snapshot serializable" `Quick
            test_replica_safe_snapshot_serializable;
          Alcotest.test_case "wait for safe snapshot" `Quick test_wait_snapshot;
          Alcotest.test_case "oracle: cycle at latest applied under lag" `Quick
            test_oracle_cycle_at_latest_applied;
          Alcotest.test_case "oracle: latest safe stays acyclic" `Quick
            test_oracle_acyclic_at_latest_safe;
        ] );
    ]
