(* Read-only optimizations at the engine level (§4): safe snapshots,
   deferrable transactions, and the snapshot-ordering rule, exercised
   through real data access rather than the manager API. *)

open Ssi_storage
module E = Ssi_engine.Engine
module Sim = Ssi_sim.Sim
module Predlock = Ssi_core.Predlock

let vi i = Value.Int i

let fresh ?(scheduler = Ssi_util.Waitq.direct) () =
  let db = E.create ~scheduler () in
  E.create_table db ~name:"kv" ~cols:[ "k"; "v" ] ~key:"k";
  E.with_txn db (fun t ->
      for k = 0 to 9 do
        E.insert t ~table:"kv" [| vi k; vi 0 |]
      done);
  db

let bump t k = ignore (E.update t ~table:"kv" ~key:(vi k) ~f:(fun r -> [| r.(0); vi 1 |]))

let test_ro_immediately_safe () =
  let db = fresh () in
  let ro = E.begin_txn ~read_only:true db in
  Alcotest.(check bool) "safe from the start" true (E.snapshot_is_safe ro);
  ignore (E.seq_scan ro ~table:"kv" ());
  E.commit ro

let test_ro_safe_after_concurrents_finish () =
  let db = fresh () in
  let rw = E.begin_txn db in
  let ro = E.begin_txn ~read_only:true db in
  Alcotest.(check bool) "not yet safe" false (E.snapshot_is_safe ro);
  ignore (E.read ro ~table:"kv" ~key:(vi 1));
  bump rw 5;
  E.commit rw (* harmless concurrent write: no out-conflict to older txns *);
  Alcotest.(check bool) "safe once concurrents resolve" true (E.snapshot_is_safe ro);
  (* Reads keep working after tracking is dropped. *)
  Alcotest.(check int) "scan still works" 10 (E.row_count ro ~table:"kv");
  E.commit ro

let test_ro_unsafe_snapshot_keeps_tracking () =
  (* Figure 2 shape: rw transaction T2 is concurrent with the RO snapshot
     and commits with a conflict out to T3, which committed before the RO
     snapshot: unsafe. *)
  let db = fresh () in
  let t2 = E.begin_txn db in
  ignore (E.read t2 ~table:"kv" ~key:(vi 1)) (* will conflict with t3's write *);
  let t3 = E.begin_txn db in
  bump t3 1;
  E.commit t3 (* t3 commits before the RO snapshot below *);
  let ro = E.begin_txn ~read_only:true db in
  bump t2 2;
  E.commit t2 (* t2: conflict out to t3, which committed before ro's snapshot *);
  Alcotest.(check bool) "snapshot is unsafe" false (E.snapshot_is_safe ro);
  E.commit ro

let test_ro_abort_resolves_watcher () =
  let db = fresh () in
  let rw = E.begin_txn db in
  let ro = E.begin_txn ~read_only:true db in
  E.abort rw;
  Alcotest.(check bool) "safe after concurrent aborts" true (E.snapshot_is_safe ro);
  E.commit ro

let test_safe_snapshot_takes_no_siread_locks () =
  (* The engine's tracking check is the only thing keeping a safe
     snapshot's reads out of the SIREAD lock table. *)
  let db = fresh () in
  let locks () = Predlock.total_lock_count (E.predicate_locks db) in
  let safe = E.begin_txn ~read_only:true db in
  Alcotest.(check bool) "safe" true (E.snapshot_is_safe safe);
  let before = locks () in
  ignore (E.read safe ~table:"kv" ~key:(vi 1));
  ignore (E.index_scan safe ~table:"kv" ~index:"kv_pkey" ~lo:(vi 2) ~hi:(vi 5));
  ignore (E.seq_scan safe ~table:"kv" ());
  Alcotest.(check int) "safe reads take no SIREAD locks" before (locks ());
  E.commit safe;
  (* The same read on a read-only snapshot that is not yet safe is tracked. *)
  let rw = E.begin_txn db in
  let ro = E.begin_txn ~read_only:true db in
  Alcotest.(check bool) "not yet safe" false (E.snapshot_is_safe ro);
  let before = locks () in
  ignore (E.read ro ~table:"kv" ~key:(vi 1));
  Alcotest.(check bool) "tracked read takes SIREAD locks" true (locks () > before);
  E.commit rw;
  E.commit ro

(* ---- The Figure 2 anomaly with a read-only T1, engine level (§4.1) ------------ *)

let test_ro_snapshot_ordering_avoids_false_positive () =
  (* T1 (read-only) takes its snapshot BEFORE T3 commits: even though the
     structure T1 -> T2 -> T3 forms, Theorem 3 says it is safe. *)
  let db = fresh () in
  let t2 = E.begin_txn db in
  ignore (E.read t2 ~table:"kv" ~key:(vi 1));
  let t1 = E.begin_txn ~read_only:true db in
  let t3 = E.begin_txn db in
  bump t3 1 (* t2 -> t3 *);
  E.commit t3 (* T3 commits AFTER t1's snapshot *);
  ignore (E.read t1 ~table:"kv" ~key:(vi 2));
  bump t2 2 (* t1 -> t2 *);
  E.commit t2;
  E.commit t1

let test_deferrable_requires_ro_serializable () =
  let db = fresh () in
  Alcotest.check_raises "needs READ ONLY"
    (Invalid_argument "Engine.begin_txn: DEFERRABLE requires READ ONLY SERIALIZABLE")
    (fun () -> ignore (E.begin_txn ~deferrable:true db))

let test_deferrable_waits_for_concurrents () =
  let granted_at = ref (-1.) in
  ignore
    (Sim.run (fun () ->
         let db = fresh ~scheduler:Sim.scheduler () in
         Sim.spawn (fun () ->
             let rw = E.begin_txn db in
             bump rw 1;
             Sim.delay 2.0;
             E.commit rw);
         Sim.spawn (fun () ->
             Sim.delay 0.5;
             E.with_txn ~read_only:true ~deferrable:true db (fun t ->
                 granted_at := Sim.now ();
                 Alcotest.(check bool) "on a safe snapshot" true (E.snapshot_is_safe t);
                 Alcotest.(check int) "sees the rw commit" 10
                   (E.row_count t ~table:"kv")))));
  Alcotest.(check bool) "waited for the rw transaction" true (!granted_at >= 2.0)

let test_deferrable_retries_unsafe_snapshot () =
  (* The first candidate snapshot is made unsafe by a badly-conflicting
     commit; the deferrable transaction must retry and eventually run. *)
  let ran = ref false in
  ignore
    (Sim.run (fun () ->
         let db = fresh ~scheduler:Sim.scheduler () in
         (* t2 reads key 1 now; t3 commits a write to it immediately — so
            when t2 commits LATER (after the deferrable snapshot), the
            snapshot is unsafe. *)
         let t2 = E.begin_txn db in
         ignore (E.read t2 ~table:"kv" ~key:(vi 1));
         E.with_txn db (fun t3 -> bump t3 1);
         Sim.spawn (fun () ->
             Sim.delay 1.0;
             bump t2 2;
             E.commit t2);
         Sim.spawn (fun () ->
             Sim.delay 0.5;
             E.with_txn ~read_only:true ~deferrable:true db (fun t ->
                 ran := true;
                 Alcotest.(check bool) "safe in the end" true (E.snapshot_is_safe t)))));
  Alcotest.(check bool) "deferrable completed" true !ran

let test_safe_ro_cannot_be_aborted () =
  (* A safe-snapshot read-only transaction reads everything while writers
     churn; it never fails. *)
  ignore
    (Sim.run (fun () ->
         let db = fresh ~scheduler:Sim.scheduler () in
         let ro = E.begin_txn ~read_only:true db in
         Alcotest.(check bool) "safe" true (E.snapshot_is_safe ro);
         Sim.spawn (fun () ->
             for k = 0 to 9 do
               E.with_txn db (fun t -> bump t k);
               Sim.delay 0.01
             done);
         Sim.spawn (fun () ->
             for _ = 1 to 20 do
               ignore (E.row_count ro ~table:"kv");
               Sim.delay 0.01
             done;
             E.commit ro)))

let () =
  Alcotest.run "readonly"
    [
      ( "safe snapshots",
        [
          Alcotest.test_case "immediately safe" `Quick test_ro_immediately_safe;
          Alcotest.test_case "safe after concurrents" `Quick
            test_ro_safe_after_concurrents_finish;
          Alcotest.test_case "unsafe keeps tracking" `Quick
            test_ro_unsafe_snapshot_keeps_tracking;
          Alcotest.test_case "abort resolves watcher" `Quick test_ro_abort_resolves_watcher;
          Alcotest.test_case "snapshot-ordering rule" `Quick
            test_ro_snapshot_ordering_avoids_false_positive;
          Alcotest.test_case "safe RO never aborted" `Quick test_safe_ro_cannot_be_aborted;
          Alcotest.test_case "safe reads take no SIREAD locks" `Quick
            test_safe_snapshot_takes_no_siread_locks;
        ] );
      ( "deferrable",
        [
          Alcotest.test_case "argument validation" `Quick test_deferrable_requires_ro_serializable;
          Alcotest.test_case "waits for concurrents" `Quick test_deferrable_waits_for_concurrents;
          Alcotest.test_case "retries unsafe snapshots" `Quick
            test_deferrable_retries_unsafe_snapshot;
        ] );
    ]
