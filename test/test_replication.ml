(* Log-shipping replication (§7.2): WAL application, safe-snapshot
   markers, the serializability problem of reading replicas at arbitrary
   positions, and its resolution via safe snapshots. *)

open Ssi_storage
module E = Ssi_engine.Engine
module R = Ssi_replication.Replica
module Stream = Ssi_replication.Stream
module Net = Ssi_net.Net
module Sim = Ssi_sim.Sim
module Certifier = Ssi_core.Certifier

let vi i = Value.Int i

let fresh () =
  let db = E.create () in
  E.create_table db ~name:"kv" ~cols:[ "k"; "v" ] ~key:"k";
  let replica = R.attach db in
  (db, replica)

let bump t k v = ignore (E.update t ~table:"kv" ~key:(vi k) ~f:(fun r -> [| r.(0); vi v |]))

let r_value rt k =
  match E.read rt ~table:"kv" ~key:(vi k) with
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
      match E.read rt ~table:"control" ~key:(vi 0) with
      | Some row -> Value.as_int row.(1)
      | None -> 0
    in
    let prev = visible_batch - 1 in
    let total =
      List.fold_left
        (fun acc row -> acc + Value.as_int row.(2))
        0
        (E.seq_scan rt ~table:"receipts" ~filter:(fun row -> Value.as_int row.(1) = prev) ())
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

(* The §7.2 claim restated through the DSG check: the replica records
   its read transactions into the primary's history.  Under injected
   apply lag, a `Latest_applied read can land between two commits whose
   order matters — the read closes a cycle in the serialization graph.  A
   `Latest_safe read never can. *)
let oracle_lag_scenario () =
  let db = E.create () in
  E.create_table db ~name:"kv" ~cols:[ "k"; "writer" ] ~key:"k";
  let replica = R.attach db in
  E.with_txn db (fun t ->
      E.insert t ~table:"kv" [| vi 0; vi (E.xid t) |];
      E.insert t ~table:"kv" [| vi 1; vi (E.xid t) |]);
  let history = ref [] in
  let record entry = history := entry :: !history in
  E.set_recorder db (Some record);
  R.set_recorder replica (Some record);
  (* T2 reads key 0 and stays open; it will write key 1 and commit last. *)
  let t2 = E.begin_txn db in
  ignore (E.read t2 ~table:"kv" ~key:(vi 0));
  (* T3 overwrites key 0 and commits first — T2 --rw--> T3, and T3's
     commit is not a safe point because T2 is an active rw transaction. *)
  E.with_txn db (fun t ->
      ignore (E.update t ~table:"kv" ~key:(vi 0) ~f:(fun r -> [| r.(0); vi (E.xid t) |])));
  (* The lag spike: T2's commit reaches the replica but is not applied. *)
  R.set_apply_lag replica 1;
  let x2 = E.xid t2 in
  ignore (E.update t2 ~table:"kv" ~key:(vi 1) ~f:(fun r -> [| r.(0); vi x2 |]));
  E.commit t2;
  (replica, history)

(* A read-only replica transaction over both keys, recorded. *)
let replica_read replica mode =
  let rt = R.begin_read replica mode in
  ignore (E.read rt ~table:"kv" ~key:(vi 0));
  ignore (E.read rt ~table:"kv" ~key:(vi 1));
  E.commit rt

let test_oracle_cycle_at_latest_applied () =
  let replica, history = oracle_lag_scenario () in
  (* The lagged read sees T3's write but not T2's: T2 -> T3 -> RT -> T2. *)
  replica_read replica `Latest_applied;
  match Ssi_check.Dsg.check [ List.rev !history ] with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "expected a DSG cycle reading `Latest_applied under lag"

let test_oracle_acyclic_at_latest_safe () =
  let replica, history = oracle_lag_scenario () in
  let check what =
    match Ssi_check.Dsg.check [ List.rev !history ] with
    | Ok () -> ()
    | Error cycle -> Alcotest.failf "%s not serializable\n%s" what (Ssi_check.Dsg.pp_cycle cycle)
  in
  (* Before the lag drains: the safe snapshot still predates T3. *)
  replica_read replica `Latest_safe;
  check "safe snapshot";
  (* After it drains: T2's commit was a safe point, so the snapshot now
     includes both writes — still acyclic. *)
  R.set_apply_lag replica 0;
  replica_read replica `Latest_safe;
  check "drained safe snapshot"

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
  let p = R.promote replica `Latest_applied in
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
  let p = R.promote replica `Latest_safe in
  Alcotest.(check int) "two commits discarded" 2 p.R.discarded_commits;
  Alcotest.(check int) "promoted at the safe point" (R.last_safe_cseq replica)
    p.R.promote_cseq;
  let n =
    E.with_txn p.R.engine (fun t -> List.length (E.seq_scan t ~table:"kv" ()))
  in
  Alcotest.(check int) "unsafe tail absent" 1 n;
  E.commit rw


(* ---- The replica is an engine: indexes, configuration, in-place promotion ---- *)

(* A primary with a secondary index on [c]: [t (k, c)]. *)
let indexed ?config () =
  let db = E.create ?config () in
  E.create_table db ~name:"t" ~cols:[ "k"; "c" ] ~key:"k";
  E.create_index db ~table:"t" ~name:"t_c" ~column:"c" ();
  db

let pairs rows = List.sort compare (List.map (fun r -> (Value.as_int r.(0), Value.as_int r.(1))) rows)
let by_c txn lo hi = pairs (E.index_scan txn ~table:"t" ~index:"t_c" ~lo:(vi lo) ~hi:(vi hi))

let test_replica_index_scan () =
  let db = indexed () in
  let replica = R.attach db in
  E.with_txn db (fun t ->
      E.insert t ~table:"t" [| vi 1; vi 10 |];
      E.insert t ~table:"t" [| vi 2; vi 20 |]);
  let begins () = Ssi_obs.Obs.get_counter (E.obs db) "engine.begins" in
  let before = begins () in
  let rt = R.begin_read replica `Latest_safe in
  Alcotest.(check (list (pair int int))) "index scan on the replica" [ (2, 20) ] (by_c rt 15 25);
  E.commit rt;
  Alcotest.(check int) "the primary's engine counters do not move" before (begins ())

let test_promoted_keeps_index () =
  let db = indexed () in
  let replica = R.attach db in
  E.with_txn db (fun t -> E.insert t ~table:"t" [| vi 1; vi 10 |]);
  let p = R.promote replica `Latest_applied in
  Alcotest.(check (list (pair int int)))
    "the promoted engine serves the primary's secondary index" [ (1, 10) ]
    (E.with_txn p.R.engine (fun t -> by_c t 0 100))

let test_promoted_keeps_certifier () =
  let config =
    { E.default_config with E.certifier = { Certifier.default_config with kind = Certifier.SSN } }
  in
  let db = indexed ~config () in
  let replica = R.attach db in
  E.with_txn db (fun t -> E.insert t ~table:"t" [| vi 1; vi 10 |]);
  let p = R.promote replica `Latest_safe in
  Alcotest.(check string) "promoted engine runs the primary's certifier" "ssn"
    (Certifier.kind_to_string (E.certifier_kind p.R.engine))

(* The design risk of in-place promotion: a [`Latest_safe] promotion must
   take back, through the redo undo entries, every commit past the last
   safe point — an insert, a delete, an update of an indexed column and a
   new entry under an existing index key — and leave their keys free. *)
let test_latest_safe_discard () =
  let db = indexed () in
  let replica = R.attach db in
  E.with_txn db (fun t ->
      E.insert t ~table:"t" [| vi 1; vi 10 |];
      E.insert t ~table:"t" [| vi 2; vi 20 |]);
  let safe = R.last_safe_cseq replica in
  let rw = E.begin_txn db in
  ignore (E.read rw ~table:"t" ~key:(vi 9));
  E.with_txn db (fun t -> E.insert t ~table:"t" [| vi 3; vi 30 |]);
  E.with_txn db (fun t -> ignore (E.delete t ~table:"t" ~key:(vi 2)));
  E.with_txn db (fun t -> ignore (E.update t ~table:"t" ~key:(vi 1) ~f:(fun _ -> [| vi 1; vi 11 |])));
  E.with_txn db (fun t -> E.insert t ~table:"t" [| vi 4; vi 10 |]);
  Alcotest.(check int) "no safe point past the seed" safe (R.last_safe_cseq replica);
  let p = R.promote replica `Latest_safe in
  E.commit rw;
  Alcotest.(check int) "every commit past the safe point discarded" 4 p.R.discarded_commits;
  Alcotest.(check int) "promoted at the safe point" safe p.R.promote_cseq;
  let before = [ (1, 10); (2, 20) ] in
  E.with_txn p.R.engine (fun t ->
      let value k = Option.map (fun r -> Value.as_int r.(1)) (E.read t ~table:"t" ~key:(vi k)) in
      Alcotest.(check (list (option int)))
        "read sees the safe state" [ Some 10; Some 20; None; None ] (List.map value [ 1; 2; 3; 4 ]);
      Alcotest.(check (list (pair int int))) "seq scan sees the safe state" before
        (pairs (E.seq_scan t ~table:"t" ()));
      Alcotest.(check (list (pair int int))) "index scan sees the safe state" before
        (by_c t 0 100);
      Alcotest.(check (list (pair int int))) "no index entry of the discarded update" []
        (by_c t 11 11);
      Alcotest.(check (list (pair int int))) "no index entry of the discarded insert" []
        (by_c t 30 30));
  (* Every discarded key is free: no first-updater-wins failure. *)
  E.with_txn p.R.engine (fun t ->
      E.insert t ~table:"t" [| vi 3; vi 31 |];
      E.insert t ~table:"t" [| vi 4; vi 41 |];
      Alcotest.(check bool) "update the discarded delete's key" true
        (E.update t ~table:"t" ~key:(vi 2) ~f:(fun _ -> [| vi 2; vi 21 |]));
      Alcotest.(check bool) "update the discarded update's key" true
        (E.update t ~table:"t" ~key:(vi 1) ~f:(fun _ -> [| vi 1; vi 12 |])));
  Alcotest.(check (list (pair int int)))
    "new writes visible" [ (1, 12); (2, 21); (3, 31); (4, 41) ]
    (E.with_txn p.R.engine (fun t -> by_c t 0 100))

let test_latest_safe_empty_history () =
  (* No safe point has arrived since the (empty) base backup: the
     promotion discards every commit and starts from the empty history. *)
  let db, replica = fresh () in
  let rw = E.begin_txn db in
  ignore (E.read rw ~table:"kv" ~key:(vi 9));
  E.with_txn db (fun t -> E.insert t ~table:"kv" [| vi 1; vi 10 |]);
  E.with_txn db (fun t -> E.insert t ~table:"kv" [| vi 2; vi 20 |]);
  let p = R.promote replica `Latest_safe in
  Alcotest.(check int) "promoted at the empty base" 0 p.R.promote_cseq;
  Alcotest.(check int) "both commits discarded" 2 p.R.discarded_commits;
  Alcotest.(check int) "empty" 0 (E.with_txn p.R.engine (fun t -> E.row_count t ~table:"kv"));
  E.commit rw

(* DROP INDEX is logged: a dropped index stays dropped on a replica, and
   in the engine recovered from the primary's log, while the rows written
   after the drop still arrive. *)
let test_drop_index_replicated () =
  let db = E.create () in
  let w = Ssi_wal.Wal.create () in
  E.attach_wal db w;
  E.create_table db ~name:"t" ~cols:[ "k"; "c" ] ~key:"k";
  E.create_index db ~table:"t" ~name:"t_c" ~column:"c" ();
  let replica = R.attach db in
  E.with_txn db (fun t -> E.insert t ~table:"t" [| vi 1; vi 10 |]);
  E.drop_index db ~name:"t_c";
  E.with_txn db (fun t -> E.insert t ~table:"t" [| vi 2; vi 20 |]);
  let no_index what txn =
    Alcotest.(check int) (what ^ ": every row") 2 (E.row_count txn ~table:"t");
    (match by_c txn 0 100 with
    | _ -> Alcotest.failf "%s: the dropped index still answers a scan" what
    | exception E.Error (E.Undefined_object _) -> ());
    E.commit txn
  in
  no_index "replica" (R.begin_read replica `Latest_applied);
  let recovered, _ = E.recover w in
  no_index "recovered" (E.begin_txn recovered)

(* DDL issued after the replica starts must reach it before the commits
   that use it, on either transport. *)
let ddl_workload db =
  E.create_table db ~name:"t" ~cols:[ "k"; "c" ] ~key:"k";
  E.with_txn db (fun t -> E.insert t ~table:"t" [| vi 1; vi 10 |]);
  E.create_index db ~table:"t" ~name:"t_c" ~column:"c" ();
  for k = 2 to 20 do
    E.with_txn db (fun t -> E.insert t ~table:"t" [| vi k; vi (10 * k) |])
  done

let check_ddl_replicated replica =
  let rt = R.begin_read replica `Latest_applied in
  Alcotest.(check int) "every row" 20 (E.row_count rt ~table:"t");
  Alcotest.(check (list (pair int int))) "the late index is there" [ (1, 10); (2, 20) ]
    (by_c rt 0 25)

let test_ddl_after_attach () =
  let db = E.create () in
  let replica = R.attach db in
  ddl_workload db;
  check_ddl_replicated replica

let test_ddl_after_subscribe () =
  let replica = R.create ~name:"r1" () in
  ignore
    (Sim.run (fun () ->
         let net = Net.create ~seed:11 () in
         let db = E.create () in
         let p = Stream.make_primary net ~node:"p" ~epoch:1 db in
         let s = Stream.subscribe net ~node:"r1" ~primary_node:"p" ~epoch:1 replica in
         Sim.delay 0.01;
         Net.set_chaos net ~drop:0.3 ~duplicate:0.3 ~reorder:0.4 ();
         ddl_workload db;
         Sim.delay 0.01;
         Net.set_chaos net ~drop:0. ~duplicate:0. ~reorder:0. ();
         let rounds = ref 0 in
         while R.applied_cseq (Stream.core s) < Stream.last_cseq p && !rounds < 50 do
           incr rounds;
           Stream.retransmit_unacked p;
           Sim.delay 0.01
         done));
  check_ddl_replicated replica

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
          Alcotest.test_case "index scan on a replica" `Quick test_replica_index_scan;
          Alcotest.test_case "DDL after attach" `Quick test_ddl_after_attach;
          Alcotest.test_case "DDL after subscribe, under chaos" `Quick test_ddl_after_subscribe;
          Alcotest.test_case "dropped index stays dropped" `Quick test_drop_index_replicated;
        ] );
      ( "failover",
        [
          Alcotest.test_case "promote drains pending WAL" `Quick test_promote_drains_pending;
          Alcotest.test_case "promote reports discarded commits" `Quick
            test_promote_reports_discarded;
          Alcotest.test_case "promoted engine keeps the secondary index" `Quick
            test_promoted_keeps_index;
          Alcotest.test_case "promoted engine keeps the certifier" `Quick
            test_promoted_keeps_certifier;
          Alcotest.test_case "latest-safe discard takes every commit back" `Quick
            test_latest_safe_discard;
          Alcotest.test_case "no safe point yet promotes the empty history" `Quick
            test_latest_safe_empty_history;
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
