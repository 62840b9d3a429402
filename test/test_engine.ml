(* The engine façade: CRUD, isolation-level semantics, scans, indexes,
   DDL interactions with SSI, maintenance, helpers. *)

open Ssi_storage
module E = Ssi_engine.Engine
module Sim = Ssi_sim.Sim

let vi i = Value.Int i
let vs s = Value.Str s

let fresh () =
  let db = E.create () in
  E.create_table db ~name:"kv" ~cols:[ "k"; "v" ] ~key:"k";
  db

let put t k v = E.insert t ~table:"kv" [| vi k; vs v |]

let get t k =
  match E.read t ~table:"kv" ~key:(vi k) with
  | Some row -> Some (Value.as_string row.(1))
  | None -> None

(* ---- CRUD --------------------------------------------------------------------- *)

let test_crud () =
  let db = fresh () in
  E.with_txn db (fun t ->
      put t 1 "one";
      put t 2 "two");
  E.with_txn db (fun t ->
      Alcotest.(check (option string)) "read" (Some "one") (get t 1);
      Alcotest.(check (option string)) "missing" None (get t 3));
  E.with_txn db (fun t ->
      Alcotest.(check bool) "update" true
        (E.update t ~table:"kv" ~key:(vi 1) ~f:(fun row -> [| row.(0); vs "uno" |]));
      Alcotest.(check bool) "update missing" false
        (E.update t ~table:"kv" ~key:(vi 9) ~f:Fun.id));
  E.with_txn db (fun t ->
      Alcotest.(check (option string)) "updated" (Some "uno") (get t 1);
      Alcotest.(check bool) "delete" true (E.delete t ~table:"kv" ~key:(vi 2));
      Alcotest.(check (option string)) "deleted in same txn" None (get t 2));
  E.with_txn db (fun t ->
      Alcotest.(check (option string)) "deleted" None (get t 2);
      Alcotest.(check int) "row count" 1 (E.row_count t ~table:"kv"))

let test_duplicate_key () =
  let db = fresh () in
  E.with_txn db (fun t -> put t 1 "one");
  E.with_txn db (fun t ->
      Alcotest.check_raises "duplicate"
        (E.Error (E.Unique_violation { table = "kv"; key = "1" }))
        (fun () -> put t 1 "again"));
  (* Deleted keys can be reinserted. *)
  E.with_txn db (fun t -> ignore (E.delete t ~table:"kv" ~key:(vi 1)));
  E.with_txn db (fun t -> put t 1 "back");
  E.with_txn db (fun t -> Alcotest.(check (option string)) "reinserted" (Some "back") (get t 1))

let test_insert_rollback_on_abort () =
  let db = fresh () in
  (try
     E.with_txn db (fun t ->
         put t 1 "one";
         failwith "client error")
   with Failure _ -> ());
  E.with_txn db (fun t -> Alcotest.(check (option string)) "rolled back" None (get t 1))

let test_atomicity_of_multi_write () =
  let db = fresh () in
  E.with_txn db (fun t -> put t 1 "a");
  (try
     E.with_txn db (fun t ->
         ignore (E.update t ~table:"kv" ~key:(vi 1) ~f:(fun row -> [| row.(0); vs "b" |]));
         put t 2 "c";
         failwith "boom")
   with Failure _ -> ());
  E.with_txn db (fun t ->
      Alcotest.(check (option string)) "update undone" (Some "a") (get t 1);
      Alcotest.(check (option string)) "insert undone" None (get t 2))

(* ---- Isolation level semantics -------------------------------------------------- *)

let test_read_committed_sees_new_commits () =
  let db = fresh () in
  E.with_txn db (fun t -> put t 1 "v1");
  let rc = E.begin_txn ~isolation:E.Read_committed db in
  let rr = E.begin_txn ~isolation:E.Repeatable_read db in
  Alcotest.(check (option string)) "rc before" (Some "v1") (get rc 1);
  Alcotest.(check (option string)) "rr before" (Some "v1") (get rr 1);
  E.with_txn db (fun t ->
      ignore (E.update t ~table:"kv" ~key:(vi 1) ~f:(fun row -> [| row.(0); vs "v2" |])));
  Alcotest.(check (option string)) "rc sees the new commit" (Some "v2") (get rc 1);
  Alcotest.(check (option string)) "rr keeps its snapshot" (Some "v1") (get rr 1);
  E.commit rc;
  E.commit rr

let test_first_updater_wins () =
  let db = fresh () in
  E.with_txn db (fun t -> put t 1 "base");
  let t1 = E.begin_txn ~isolation:E.Repeatable_read db in
  let t2 = E.begin_txn ~isolation:E.Repeatable_read db in
  ignore (E.update t1 ~table:"kv" ~key:(vi 1) ~f:(fun row -> [| row.(0); vs "t1" |]));
  E.commit t1;
  (* t2's snapshot predates t1's commit: concurrent update. *)
  (try
     ignore (E.update t2 ~table:"kv" ~key:(vi 1) ~f:(fun row -> [| row.(0); vs "t2" |]));
     Alcotest.fail "expected serialization failure"
   with E.Error (E.Serialization_failure { reason; _ }) ->
     Alcotest.(check string) "reason" "could not serialize access due to concurrent update"
       reason);
  E.abort t2

let test_read_committed_update_retries () =
  let db = fresh () in
  E.with_txn db (fun t -> put t 1 "base");
  let t2 = E.begin_txn ~isolation:E.Read_committed db in
  Alcotest.(check (option string)) "t2 read" (Some "base") (get t2 1);
  E.with_txn db (fun t ->
      ignore (E.update t ~table:"kv" ~key:(vi 1) ~f:(fun row -> [| row.(0); vs "other" |])));
  (* READ COMMITTED re-evaluates on the latest version instead of failing. *)
  Alcotest.(check bool) "rc update proceeds" true
    (E.update t2 ~table:"kv" ~key:(vi 1) ~f:(fun row -> [| row.(0); vs "t2" |]));
  E.commit t2;
  E.with_txn db (fun t -> Alcotest.(check (option string)) "final" (Some "t2") (get t 1))

let test_write_write_block_direct_mode () =
  (* Without a scheduler, a write-lock wait fails with Lock_not_available. *)
  let db = fresh () in
  E.with_txn db (fun t -> put t 1 "base");
  let t1 = E.begin_txn db in
  let t2 = E.begin_txn db in
  ignore (E.update t1 ~table:"kv" ~key:(vi 1) ~f:(fun row -> [| row.(0); vs "t1" |]));
  Alcotest.check_raises "would block" (E.Error E.Lock_not_available) (fun () ->
      ignore (E.update t2 ~table:"kv" ~key:(vi 1) ~f:(fun row -> [| row.(0); vs "t2" |])));
  E.abort t2;
  E.commit t1

let test_write_waiter_resumes () =
  (* With the simulator, the second writer waits and then gets the
     concurrent-update failure. *)
  let failure = ref false in
  ignore
    (Sim.run (fun () ->
         let d = E.create ~scheduler:Sim.scheduler () in
         E.create_table d ~name:"kv" ~cols:[ "k"; "v" ] ~key:"k";
         E.with_txn d (fun t -> E.insert t ~table:"kv" [| vi 1; vs "base" |]);
         Sim.spawn (fun () ->
             let t1 = E.begin_txn d in
             ignore (E.update t1 ~table:"kv" ~key:(vi 1) ~f:(fun row -> [| row.(0); vs "a" |]));
             Sim.delay 1.0;
             E.commit t1);
         Sim.spawn (fun () ->
             Sim.delay 0.1;
             let t2 = E.begin_txn d in
             (try
                ignore
                  (E.update t2 ~table:"kv" ~key:(vi 1) ~f:(fun row -> [| row.(0); vs "b" |]))
              with E.Error (E.Serialization_failure _) -> failure := true);
             E.abort t2;
             Alcotest.(check bool) "waited until t1 committed" true (Sim.now () >= 1.0))));
  Alcotest.(check bool) "concurrent update detected after wait" true !failure

(* ---- Scans and indexes ------------------------------------------------------------- *)

let test_index_scan_matches_seq_scan () =
  let db = E.create () in
  E.create_table db ~name:"t" ~cols:[ "k"; "cat"; "v" ] ~key:"k";
  E.create_index db ~table:"t" ~name:"t_cat" ~column:"cat" ();
  let rng = Ssi_util.Rng.make 4 in
  E.with_txn db (fun t ->
      for k = 0 to 99 do
        E.insert t ~table:"t" [| vi k; vi (Ssi_util.Rng.int rng 5); vi (k * 10) |]
      done);
  E.with_txn db (fun t ->
      for cat = 0 to 4 do
        let via_index =
          List.sort compare
            (List.map
               (fun r -> Value.as_int r.(0))
               (E.index_scan t ~table:"t" ~index:"t_cat" ~lo:(vi cat) ~hi:(vi cat)))
        in
        let via_seq =
          List.sort compare
            (List.map
               (fun r -> Value.as_int r.(0))
               (E.seq_scan t ~table:"t" ~filter:(fun r -> Value.as_int r.(1) = cat) ()))
        in
        Alcotest.(check (list int)) (Printf.sprintf "category %d" cat) via_seq via_index
      done)

let test_stale_index_entries_filtered () =
  let db = E.create () in
  E.create_table db ~name:"t" ~cols:[ "k"; "cat" ] ~key:"k";
  E.create_index db ~table:"t" ~name:"t_cat" ~column:"cat" ();
  E.with_txn db (fun t -> E.insert t ~table:"t" [| vi 1; vi 10 |]);
  E.with_txn db (fun t ->
      ignore (E.update t ~table:"t" ~key:(vi 1) ~f:(fun row -> [| row.(0); vi 20 |])));
  E.with_txn db (fun t ->
      Alcotest.(check int) "old category empty" 0
        (List.length (E.index_scan t ~table:"t" ~index:"t_cat" ~lo:(vi 10) ~hi:(vi 10)));
      Alcotest.(check int) "new category has it" 1
        (List.length (E.index_scan t ~table:"t" ~index:"t_cat" ~lo:(vi 20) ~hi:(vi 20))))

let test_index_scan_ordered () =
  let db = fresh () in
  E.with_txn db (fun t -> List.iter (fun k -> put t k "x") [ 5; 1; 9; 3; 7 ]);
  E.with_txn db (fun t ->
      let keys =
        List.map
          (fun r -> Value.as_int r.(0))
          (E.index_scan t ~table:"kv" ~index:"kv_pkey" ~lo:(vi 0) ~hi:(vi 100))
      in
      Alcotest.(check (list int)) "ascending" [ 1; 3; 5; 7; 9 ] keys)

let test_index_backfill () =
  (* Creating an index on a populated table indexes existing rows. *)
  let db = E.create () in
  E.create_table db ~name:"t" ~cols:[ "k"; "cat" ] ~key:"k";
  E.with_txn db (fun t ->
      for k = 0 to 9 do
        E.insert t ~table:"t" [| vi k; vi (k mod 2) |]
      done);
  E.create_index db ~table:"t" ~name:"t_cat" ~column:"cat" ();
  E.with_txn db (fun t ->
      Alcotest.(check int) "evens" 5
        (List.length (E.index_scan t ~table:"t" ~index:"t_cat" ~lo:(vi 0) ~hi:(vi 0))))

(* ---- DDL interactions (§5.2.1, §7.4) -------------------------------------------------- *)

let test_recluster_promotes_locks () =
  (* T1 reads tuple 1; the table is rewritten (physical locations change);
     T2 writes a DIFFERENT tuple.  The promoted relation-level SIREAD lock
     still covers it, so the rw edge T1 -> T2 exists — visible when a
     second edge completes a dangerous structure. *)
  let db = fresh () in
  E.with_txn db (fun t ->
      put t 1 "a";
      put t 2 "b";
      put t 3 "c");
  (* t3 commits first with t1's future out-edge target. *)
  let t1 = E.begin_txn db in
  ignore (get t1 1);
  E.recluster db ~table:"kv";
  (* Now t2 writes tuple 2 (not read by t1 at tuple granularity!): the
     promoted lock makes t1 --rw--> t2. *)
  let t2 = E.begin_txn db in
  ignore (E.update t2 ~table:"kv" ~key:(vi 2) ~f:(fun row -> [| row.(0); vs "bb" |]));
  (* Complete the structure: t2 --rw--> t3 where t3 commits first. *)
  let t3 = E.begin_txn db in
  ignore (get t2 3);
  ignore (E.update t3 ~table:"kv" ~key:(vi 3) ~f:(fun row -> [| row.(0); vs "cc" |]));
  E.commit t3;
  (* t2 is now the pivot of t1 -> t2 -> t3 with t3 committed first: its
     commit must fail (or it is already doomed). *)
  (try
     E.commit t2;
     Alcotest.fail "expected the promoted lock to create the conflict"
   with E.Error (E.Serialization_failure _) -> ());
  E.commit t1

let test_drop_index_transfers_to_relation () =
  (* A reader's index-gap locks survive an index drop as a heap relation
     lock: a subsequent insert anywhere in the table conflicts. *)
  let db = E.create () in
  E.create_table db ~name:"t" ~cols:[ "k"; "cat" ] ~key:"k";
  E.create_index db ~table:"t" ~name:"t_cat" ~column:"cat" ();
  E.with_txn db (fun t ->
      E.insert t ~table:"t" [| vi 1; vi 1 |];
      E.insert t ~table:"t" [| vi 9; vi 9 |]);
  let reader = E.begin_txn db in
  ignore (E.index_scan reader ~table:"t" ~index:"t_cat" ~lo:(vi 5) ~hi:(vi 5));
  E.drop_index db ~name:"t_cat";
  (* A writer inserts a row into the formerly-scanned gap; the transferred
     relation-level lock records reader --rw--> w.  Complete the dangerous
     structure with a committed out-edge w --rw--> t3. *)
  let w = E.begin_txn db in
  E.insert w ~table:"t" [| vi 2; vi 5 |];
  ignore (E.read w ~table:"t" ~key:(vi 9));
  let t3 = E.begin_txn db in
  ignore (E.update t3 ~table:"t" ~key:(vi 9) ~f:(fun row -> [| row.(0); vi 90 |]));
  E.commit t3;
  (try
     E.commit w;
     Alcotest.fail "expected relation-fallback conflict after index drop"
   with E.Error (E.Serialization_failure _) -> ());
  E.commit reader

let test_non_predlock_index_falls_back () =
  (* §7.4: an index access method without predicate-lock support takes a
     whole-index SIREAD lock, so an insert into an unrelated part of the
     index still conflicts. *)
  let db = E.create () in
  E.create_table db ~name:"t" ~cols:[ "k"; "cat" ] ~key:"k";
  E.create_index db ~table:"t" ~name:"t_cat" ~column:"cat" ~predicate_locks:false ();
  E.with_txn db (fun t -> E.insert t ~table:"t" [| vi 1; vi 1 |]);
  let reader = E.begin_txn db in
  ignore (E.index_scan reader ~table:"t" ~index:"t_cat" ~lo:(vi 5) ~hi:(vi 5));
  let writer = E.begin_txn db in
  E.insert writer ~table:"t" [| vi 2; vi 99 |];
  (* reader --rw--> writer exists; give the writer a committed out-edge to
     complete a dangerous structure and observe the abort. *)
  let t3 = E.begin_txn db in
  ignore (E.read writer ~table:"t" ~key:(vi 1));
  ignore (E.update t3 ~table:"t" ~key:(vi 1) ~f:(fun row -> [| row.(0); vi 11 |]));
  E.commit t3;
  (try
     E.commit writer;
     Alcotest.fail "expected whole-index lock conflict"
   with E.Error (E.Serialization_failure _) -> ());
  E.commit reader

(* ---- Maintenance --------------------------------------------------------------------- *)

let test_vacuum_prunes_versions () =
  let db = fresh () in
  E.with_txn db (fun t -> put t 1 "v0");
  for i = 1 to 10 do
    E.with_txn db (fun t ->
        ignore
          (E.update t ~table:"kv" ~key:(vi 1) ~f:(fun row ->
               [| row.(0); vs (Printf.sprintf "v%d" i) |])))
  done;
  E.vacuum db;
  E.with_txn db (fun t ->
      Alcotest.(check (option string)) "latest survives" (Some "v10") (get t 1))

let test_stats_counters () =
  let db = fresh () in
  let obs = E.obs db in
  E.with_txn db (fun t -> put t 1 "x");
  Alcotest.(check int) "commits" 1 (Ssi_obs.Obs.get_counter obs "engine.commits");
  Alcotest.(check int) "begins" 1 (Ssi_obs.Obs.get_counter obs "engine.begins");
  (* Windowed readings replace the old reset: a snapshot plus deltas. *)
  let base = Ssi_obs.Obs.snap obs in
  Alcotest.(check int) "delta zero" 0 (Ssi_obs.Obs.delta_counter obs base "engine.commits");
  E.with_txn db (fun t -> put t 2 "y");
  Alcotest.(check int) "delta one" 1 (Ssi_obs.Obs.delta_counter obs base "engine.commits");
  Alcotest.(check int) "total two" 2 (Ssi_obs.Obs.get_counter obs "engine.commits")

let test_retry_gives_up () =
  let db = fresh () in
  let attempts = ref 0 in
  (try
     E.retry ~max_attempts:3 db (fun _ ->
         incr attempts;
         raise (E.Error (E.Serialization_failure { xid = 0; reason = "synthetic" })))
   with E.Error (E.Serialization_failure _) -> ());
  Alcotest.(check int) "three attempts" 3 !attempts

let test_read_only_rejects_writes () =
  let db = fresh () in
  let t = E.begin_txn ~read_only:true db in
  Alcotest.check_raises "read-only" (E.Error E.Read_only_transaction) (fun () -> put t 1 "x");
  E.abort t

let test_finished_txn_rejected () =
  let db = fresh () in
  let t = E.begin_txn db in
  E.commit t;
  Alcotest.(check bool) "finished" true (E.is_finished t);
  Alcotest.check_raises "op after commit"
    (Invalid_argument "Engine: transaction already finished") (fun () -> ignore (get t 1));
  E.abort t (* idempotent *)

let () =
  Alcotest.run "engine"
    [
      ( "crud",
        [
          Alcotest.test_case "basics" `Quick test_crud;
          Alcotest.test_case "duplicate key" `Quick test_duplicate_key;
          Alcotest.test_case "rollback on abort" `Quick test_insert_rollback_on_abort;
          Alcotest.test_case "atomic multi-write" `Quick test_atomicity_of_multi_write;
        ] );
      ( "isolation",
        [
          Alcotest.test_case "read committed vs repeatable read" `Quick
            test_read_committed_sees_new_commits;
          Alcotest.test_case "first updater wins" `Quick test_first_updater_wins;
          Alcotest.test_case "read committed retries update" `Quick
            test_read_committed_update_retries;
          Alcotest.test_case "direct mode would-block" `Quick test_write_write_block_direct_mode;
          Alcotest.test_case "write waiter resumes" `Quick test_write_waiter_resumes;
        ] );
      ( "scans",
        [
          Alcotest.test_case "index matches seq" `Quick test_index_scan_matches_seq_scan;
          Alcotest.test_case "stale entries filtered" `Quick test_stale_index_entries_filtered;
          Alcotest.test_case "ordered results" `Quick test_index_scan_ordered;
          Alcotest.test_case "index backfill" `Quick test_index_backfill;
        ] );
      ( "ddl",
        [
          Alcotest.test_case "recluster promotes" `Quick test_recluster_promotes_locks;
          Alcotest.test_case "drop index transfers" `Quick test_drop_index_transfers_to_relation;
          Alcotest.test_case "non-predlock index fallback" `Quick
            test_non_predlock_index_falls_back;
        ] );
      ( "maintenance",
        [
          Alcotest.test_case "vacuum" `Quick test_vacuum_prunes_versions;
          Alcotest.test_case "stats" `Quick test_stats_counters;
          Alcotest.test_case "retry gives up" `Quick test_retry_gives_up;
          Alcotest.test_case "read-only enforced" `Quick test_read_only_rejects_writes;
          Alcotest.test_case "finished rejected" `Quick test_finished_txn_rejected;
        ] );
    ]
