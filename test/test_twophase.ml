(* Two-phase commit and its SSI interactions (§7.1): prepared
   transactions' visibility, the pre-commit check at PREPARE, prepared
   transactions never being abort victims (and the resulting loss of safe
   retry), and crash recovery with conservative conflict flags. *)

open Ssi_storage
module E = Ssi_engine.Engine
module Obs = Ssi_obs.Obs
module Wal = Ssi_wal.Wal

let vi i = Value.Int i

let fresh () =
  let db = E.create () in
  E.create_table db ~name:"kv" ~cols:[ "k"; "v" ] ~key:"k";
  E.with_txn db (fun t ->
      for k = 0 to 4 do
        E.insert t ~table:"kv" [| vi k; vi 0 |]
      done);
  db

let bump t k = ignore (E.update t ~table:"kv" ~key:(vi k) ~f:(fun r -> [| r.(0); vi 1 |]))

(* Reads at snapshot isolation: visibility checks must not be disturbed by
   SSI's conservative post-recovery behaviour. *)
let value db k =
  E.with_txn ~isolation:E.Repeatable_read db (fun t ->
      match E.read t ~table:"kv" ~key:(vi k) with
      | Some row -> Value.as_int row.(1)
      | None -> -1)

let test_prepare_commit () =
  let db = fresh () in
  let t = E.begin_txn db in
  bump t 1;
  E.prepare t ~gid:"g1";
  Alcotest.(check (list string)) "listed" [ "g1" ] (E.prepared_gids db);
  Alcotest.(check int) "invisible while prepared" 0 (value db 1);
  E.commit_prepared db ~gid:"g1";
  Alcotest.(check int) "visible after commit" 1 (value db 1);
  Alcotest.(check (list string)) "gone" [] (E.prepared_gids db)

(* COMMIT PREPARED publishes its commit exactly as COMMIT does: to the
   commit hooks, to the durable log (naming the gid), as a [txn.commit]
   event and on the [txn.commit] span. *)
let test_commit_prepared_publishes () =
  let db = fresh () in
  let w = Wal.create () in
  E.attach_wal db w;
  let hooked = ref [] in
  E.set_on_commit db (fun r -> hooked := r :: !hooked);
  let t = E.begin_txn db in
  let xid = E.xid t in
  bump t 1;
  E.prepare t ~gid:"g1";
  E.commit_prepared db ~gid:"g1";
  let ops = [ Wal.Update { table = "kv"; key = vi 1; row = [| vi 1; vi 1 |] } ] in
  let cseq =
    match !hooked with
    | [ r ] ->
        Alcotest.(check int) "hook xid" xid r.E.wal_xid;
        Alcotest.(check bool) "hook ops" true (r.E.wal_ops = ops);
        r.E.wal_cseq
    | l -> Alcotest.failf "%d commit hook calls, expected 1" (List.length l)
  in
  (match
     List.filter_map
       (function
         | Wal.Commit { c_xid; c_cseq; c_gid; c_ops; _ } when c_xid = xid ->
             Some (c_cseq, c_gid, c_ops)
         | _ -> None)
       (fst (Wal.read_all w))
   with
  | [ (c_cseq, c_gid, c_ops) ] ->
      Alcotest.(check int) "logged cseq" cseq c_cseq;
      Alcotest.(check (option string)) "logged gid" (Some "g1") c_gid;
      Alcotest.(check bool) "logged ops" true (c_ops = ops)
  | l -> Alcotest.failf "%d logged commits of x%d, expected 1" (List.length l) xid);
  let commit_events =
    List.filter
      (fun (e : Obs.event) -> e.name = "txn.commit" && List.mem ("xid", Obs.I xid) e.fields)
      (Obs.events (E.obs db))
  in
  (match commit_events with
  | [ e ] ->
      Alcotest.(check bool) "event fields: xid, cseq, gid" true
        (e.fields = [ ("xid", Obs.I xid); ("cseq", Obs.I cseq); ("gid", Obs.S "g1") ])
  | l -> Alcotest.failf "%d txn.commit events for x%d, expected 1" (List.length l) xid);
  match
    List.filter
      (fun s -> Obs.Span.name s = "txn.commit" && List.mem ("gid", Obs.S "g1") (Obs.Span.attrs s))
      (Obs.Spans.finished (E.obs db))
  with
  | [ s ] ->
      Alcotest.(check bool) "span carries cseq" true
        (List.assoc_opt "cseq" (Obs.Span.attrs s) = Some (Obs.I cseq))
  | l -> Alcotest.failf "%d txn.commit spans for g1, expected 1" (List.length l)

let test_prepare_rollback () =
  let db = fresh () in
  let t = E.begin_txn db in
  bump t 1;
  E.prepare t ~gid:"g1";
  E.rollback_prepared db ~gid:"g1";
  Alcotest.(check int) "rolled back" 0 (value db 1)

let test_no_ops_after_prepare () =
  let db = fresh () in
  let t = E.begin_txn db in
  bump t 1;
  E.prepare t ~gid:"g1";
  Alcotest.check_raises "prepared transactions take no more operations"
    (Invalid_argument "Engine: transaction is prepared") (fun () ->
      ignore (E.read t ~table:"kv" ~key:(vi 1)));
  E.rollback_prepared db ~gid:"g1"

let test_prepare_runs_serialization_check () =
  (* A doomed pivot cannot PREPARE (§7.1: the check must run before the
     transaction becomes unabortable). *)
  let db = fresh () in
  let t1 = E.begin_txn db and t2 = E.begin_txn db and t3 = E.begin_txn db in
  ignore (E.read t1 ~table:"kv" ~key:(vi 1));
  ignore (E.read t2 ~table:"kv" ~key:(vi 2));
  bump t2 1 (* t1 -> t2 *);
  bump t3 2 (* t2 -> t3 *);
  E.commit t3 (* first committer: dooms the pivot t2 *);
  (try
     E.prepare t2 ~gid:"g1";
     Alcotest.fail "expected prepare to fail"
   with E.Error (E.Serialization_failure _) -> ());
  Alcotest.(check bool) "rolled back by the failed prepare" true (E.is_finished t2);
  E.commit t1

let test_prepared_pivot_aborts_active_instead () =
  (* T_active --rw--> T_prepared --rw--> T_committed: the pivot is
     prepared, so the active transaction gives way (§7.1)... *)
  let db = fresh () in
  let tp = E.begin_txn db in
  ignore (E.read tp ~table:"kv" ~key:(vi 1));
  let t3 = E.begin_txn db in
  bump t3 1 (* tp -> t3 *);
  E.commit t3;
  bump tp 2;
  E.prepare tp ~gid:"g1";
  let ta = E.begin_txn db in
  (try
     ignore (E.read ta ~table:"kv" ~key:(vi 2)) (* ta reads around tp's write *);
     E.commit ta;
     Alcotest.fail "expected the active transaction to fail"
   with E.Error (E.Serialization_failure _) -> E.abort ta);
  (* ...and safe retry is lost: an immediate retry hits the same conflict
     while tp is still prepared. *)
  let ta2 = E.begin_txn db in
  (try
     ignore (E.read ta2 ~table:"kv" ~key:(vi 2));
     E.commit ta2;
     Alcotest.fail "retry should fail too while the pivot is prepared"
   with E.Error (E.Serialization_failure _) -> E.abort ta2);
  (* Once the prepared transaction commits, the retry succeeds. *)
  E.commit_prepared db ~gid:"g1";
  E.with_txn db (fun t -> ignore (E.read t ~table:"kv" ~key:(vi 2)))

let test_simulate_connection_lossy_basic () =
  let db = fresh () in
  (* An in-flight transaction's writes vanish at the crash. *)
  let in_flight = E.begin_txn db in
  bump in_flight 3;
  (* A prepared transaction survives. *)
  let tp = E.begin_txn db in
  bump tp 1;
  E.prepare tp ~gid:"survivor";
  E.simulate_connection_loss db;
  Alcotest.(check (list string)) "prepared survives" [ "survivor" ] (E.prepared_gids db);
  Alcotest.(check int) "in-flight rolled back" 0 (value db 3);
  Alcotest.(check int) "prepared still invisible" 0 (value db 1);
  E.commit_prepared db ~gid:"survivor";
  Alcotest.(check int) "prepared commit applies" 1 (value db 1)

let test_simulate_connection_lossy_conservative_flags () =
  (* After recovery the prepared transaction's SIREAD locks survive and
     its conflicts are assumed both-ways: a transaction whose write
     touches its readset fails at commit. *)
  let db = fresh () in
  let tp = E.begin_txn db in
  ignore (E.read tp ~table:"kv" ~key:(vi 1));
  bump tp 2;
  E.prepare tp ~gid:"g1";
  E.simulate_connection_loss db;
  let w = E.begin_txn db in
  bump w 1 (* writes what the prepared transaction read *);
  (try
     E.commit w;
     Alcotest.fail "expected conservative failure"
   with E.Error (E.Serialization_failure _) -> ());
  (* Unrelated transactions are not affected. *)
  E.with_txn db (fun t -> bump t 4);
  E.rollback_prepared db ~gid:"g1"

let test_crash_between_prepare_and_commit () =
  (* The window §7.1 exists for: the coordinator decided to commit, the
     crash hit before COMMIT PREPARED arrived.  Recovery must leave the
     transaction committable — even across repeated crashes. *)
  let db = fresh () in
  let tp = E.begin_txn db in
  bump tp 1;
  E.prepare tp ~gid:"g1";
  E.simulate_connection_loss db;
  E.simulate_connection_loss db (* a second crash changes nothing *);
  Alcotest.(check (list string)) "still prepared after two crashes" [ "g1" ]
    (E.prepared_gids db);
  E.commit_prepared db ~gid:"g1";
  Alcotest.(check int) "commit decision honoured" 1 (value db 1);
  Alcotest.(check (list string)) "gone" [] (E.prepared_gids db)

let test_crash_between_prepare_and_rollback () =
  (* Same window, abort decision: ROLLBACK PREPARED after recovery. *)
  let db = fresh () in
  let tp = E.begin_txn db in
  bump tp 1;
  E.prepare tp ~gid:"g1";
  E.simulate_connection_loss db;
  E.rollback_prepared db ~gid:"g1";
  Alcotest.(check int) "abort decision honoured" 0 (value db 1);
  Alcotest.(check (list string)) "gone" [] (E.prepared_gids db)

let test_recovered_prepared_never_victim () =
  (* A recovered prepared transaction carries conservative conflict flags
     but can no longer be aborted by SSI: when a dangerous structure forms
     around it, the active transaction is always the victim, and once the
     coordinator's COMMIT PREPARED lands, it wins. *)
  let db = fresh () in
  let tp = E.begin_txn db in
  ignore (E.read tp ~table:"kv" ~key:(vi 1));
  bump tp 2;
  E.prepare tp ~gid:"g1";
  E.simulate_connection_loss db;
  (* Reading around the recovered transaction's pending write completes
     the (assumed) dangerous structure: the reader gives way. *)
  let ta = E.begin_txn db in
  (try
     ignore (E.read ta ~table:"kv" ~key:(vi 2));
     E.commit ta;
     Alcotest.fail "expected the active transaction to be the victim"
   with E.Error (E.Serialization_failure _) -> E.abort ta);
  Alcotest.(check (list string)) "prepared transaction untouched" [ "g1" ]
    (E.prepared_gids db);
  E.commit_prepared db ~gid:"g1";
  Alcotest.(check int) "recovered prepared transaction committed" 1 (value db 2)

let test_write_lock_held_through_prepare () =
  let db = fresh () in
  let tp = E.begin_txn db in
  bump tp 1;
  E.prepare tp ~gid:"g1";
  let w = E.begin_txn db in
  Alcotest.check_raises "tuple still write-locked" (E.Error E.Lock_not_available) (fun () ->
      bump w 1);
  E.abort w;
  E.commit_prepared db ~gid:"g1"

let test_duplicate_gid_rejected () =
  let db = fresh () in
  let t1 = E.begin_txn db in
  bump t1 1;
  E.prepare t1 ~gid:"g";
  let t2 = E.begin_txn db in
  bump t2 2;
  Alcotest.check_raises "duplicate gid"
    (E.Error (E.Duplicate_object "Engine.prepare: duplicate gid g"))
    (fun () -> E.prepare t2 ~gid:"g");
  E.abort t2;
  E.rollback_prepared db ~gid:"g"

(* One global transaction with a branch on each of two engines, as a
   sharded coordinator drives them.  The SIREAD digest each shard acks at
   prepare covers tuple, page, index-page and next-key targets with int,
   float and escaped string keys; both digests are pinned. *)
let test_prepared_summary_digest () =
  (* Shard 0 indexes floats, shard 1 strings that need escaping. *)
  let cat n k =
    if n = 0 then Value.Float (float k /. 4.) else Value.Str (Printf.sprintf "c\"\\\n\xe9%d" k)
  in
  let shard n =
    let db = E.create () in
    E.create_table db ~name:"kv" ~cols:[ "k"; "v"; "cat" ] ~key:"k";
    E.create_index db ~table:"kv" ~name:"kv_cat" ~column:"cat" ~next_key_gaps:true ();
    E.with_txn db (fun t ->
        for k = 0 to 9 do
          E.insert t ~table:"kv" [| vi ((10 * n) + k); vi 0; cat n k |]
        done);
    db
  in
  let branch n db =
    let t = E.begin_txn db in
    ignore (E.read t ~table:"kv" ~key:(vi (10 * n)));
    ignore (E.read t ~table:"kv" ~key:(Value.Str "q\"\\\n\xe9"));
    ignore (E.read t ~table:"kv" ~key:(Value.Float (-0.)));
    ignore (E.index_scan t ~table:"kv" ~index:"kv_cat" ~lo:(cat n 2) ~hi:(cat n 3));
    ignore (E.update t ~table:"kv" ~key:(vi ((10 * n) + 5)) ~f:(fun r -> [| r.(0); vi 1; r.(2) |]));
    E.prepare t ~gid:"g1";
    (E.prepared_summary db ~gid:"g1").E.ps_siread_digest
  in
  let digests = List.map (fun n -> branch n (shard n)) [ 0; 1 ] in
  Alcotest.(check (list string))
    "siread digests"
    [ "58e0510c0299215180d3b4437d48bb00"; "9643965692e22ac8521e74420a1e3cdb" ]
    digests

let () =
  Alcotest.run "twophase"
    [
      ( "protocol",
        [
          Alcotest.test_case "prepare then commit" `Quick test_prepare_commit;
          Alcotest.test_case "commit prepared publishes" `Quick test_commit_prepared_publishes;
          Alcotest.test_case "prepare then rollback" `Quick test_prepare_rollback;
          Alcotest.test_case "no ops after prepare" `Quick test_no_ops_after_prepare;
          Alcotest.test_case "duplicate gid" `Quick test_duplicate_gid_rejected;
          Alcotest.test_case "write locks held" `Quick test_write_lock_held_through_prepare;
          Alcotest.test_case "prepared summary digest" `Quick test_prepared_summary_digest;
        ] );
      ( "ssi interactions (§7.1)",
        [
          Alcotest.test_case "prepare runs the check" `Quick
            test_prepare_runs_serialization_check;
          Alcotest.test_case "prepared pivot: active aborts, retry unsafe" `Quick
            test_prepared_pivot_aborts_active_instead;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "basic" `Quick test_simulate_connection_lossy_basic;
          Alcotest.test_case "conservative flags" `Quick test_simulate_connection_lossy_conservative_flags;
          Alcotest.test_case "crash between prepare and commit" `Quick
            test_crash_between_prepare_and_commit;
          Alcotest.test_case "crash between prepare and rollback" `Quick
            test_crash_between_prepare_and_rollback;
          Alcotest.test_case "recovered prepared never a victim" `Quick
            test_recovered_prepared_never_victim;
        ] );
    ]
