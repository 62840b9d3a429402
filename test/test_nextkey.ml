(* Next-key index-gap locking (the §5.2.1 refinement the paper names as
   future work): phantom protection must be preserved while false
   positives from page-granularity gap locks disappear. *)

open Ssi_storage
module E = Ssi_engine.Engine
module Certifier = Ssi_core.Certifier
module Predlock = Ssi_core.Predlock

let vi i = Value.Int i

let fresh ~next_key () =
  let db = E.create ~config:{ E.default_config with E.next_key_gaps = next_key } () in
  E.create_table db ~name:"kv" ~cols:[ "k"; "v" ] ~key:"k";
  E.with_txn db (fun t ->
      List.iter
        (fun k -> E.insert t ~table:"kv" [| vi k; vi 0 |])
        [ 10; 20; 30; 40; 50 ]);
  db

let bump t k = ignore (E.update t ~table:"kv" ~key:(vi k) ~f:(fun r -> [| r.(0); vi 1 |]))

(* Build the dangerous structure reader -> writer -> t3 with t3 first
   committer; returns whether the writer's commit failed. *)
let writer_commit_fails db ~reader_action ~writer_action =
  let reader = E.begin_txn db in
  reader_action reader;
  let w = E.begin_txn db in
  writer_action w;
  ignore (E.read w ~table:"kv" ~key:(vi 50));
  let t3 = E.begin_txn db in
  bump t3 50;
  E.commit t3;
  let failed = (try E.commit w; false with E.Error (E.Serialization_failure _) -> true) in
  E.abort reader;
  failed

let test_phantom_still_detected () =
  (* Scan an empty range, then insert into it: must conflict in both
     modes. *)
  List.iter
    (fun next_key ->
      let db = fresh ~next_key () in
      let failed =
        writer_commit_fails db
          ~reader_action:(fun r ->
            ignore (E.index_scan r ~table:"kv" ~index:"kv_pkey" ~lo:(vi 21) ~hi:(vi 29)))
          ~writer_action:(fun w -> E.insert w ~table:"kv" [| vi 25; vi 0 |])
      in
      Alcotest.(check bool)
        (Printf.sprintf "phantom detected (next_key=%b)" next_key)
        true failed)
    [ false; true ]

let test_absent_point_read_protected () =
  List.iter
    (fun next_key ->
      let db = fresh ~next_key () in
      let failed =
        writer_commit_fails db
          ~reader_action:(fun r -> ignore (E.read r ~table:"kv" ~key:(vi 25)))
          ~writer_action:(fun w -> E.insert w ~table:"kv" [| vi 25; vi 0 |])
      in
      Alcotest.(check bool)
        (Printf.sprintf "absent read protected (next_key=%b)" next_key)
        true failed)
    [ false; true ]

let test_false_positive_eliminated () =
  (* Scan [21..29]; insert key 45 — far outside the range but on the SAME
     leaf page.  Page-granularity locks flag a (false) conflict; next-key
     locks do not. *)
  let run next_key =
    let db = fresh ~next_key () in
    writer_commit_fails db
      ~reader_action:(fun r ->
        ignore (E.index_scan r ~table:"kv" ~index:"kv_pkey" ~lo:(vi 21) ~hi:(vi 29)))
      ~writer_action:(fun w -> E.insert w ~table:"kv" [| vi 45; vi 0 |])
  in
  Alcotest.(check bool) "page mode: false positive" true (run false);
  Alcotest.(check bool) "next-key mode: no conflict" false (run true)

let test_gap_above_highest () =
  (* Scanning past the top of the index locks the infinite gap; inserting
     a new maximum key conflicts. *)
  let db = fresh ~next_key:true () in
  let failed =
    writer_commit_fails db
      ~reader_action:(fun r ->
        ignore (E.index_scan r ~table:"kv" ~index:"kv_pkey" ~lo:(vi 60) ~hi:(vi 900)))
      ~writer_action:(fun w -> E.insert w ~table:"kv" [| vi 100; vi 0 |])
  in
  Alcotest.(check bool) "top gap protected" true failed

let test_gap_between_entries () =
  (* The gap between 20 and 30 is covered by the lock on 30 (the scan's
     in-range entries): inserting 25 conflicts even though 25 itself was
     never locked. *)
  let db = fresh ~next_key:true () in
  let failed =
    writer_commit_fails db
      ~reader_action:(fun r ->
        ignore (E.index_scan r ~table:"kv" ~index:"kv_pkey" ~lo:(vi 15) ~hi:(vi 35)))
      ~writer_action:(fun w -> E.insert w ~table:"kv" [| vi 25; vi 0 |])
  in
  Alcotest.(check bool) "interior gap protected" true failed

let test_reinsert_over_dead_head () =
  (* Key 20 is deleted and the delete committed: its index entry stays,
     leading to a dead head.  A reader sees 20 absent through that entry's
     gap; a writer re-inserts 20.  The entry already exists, so no gap is
     split, but the re-insert is a new row the reader did not see, and
     its gap readers must get the rw edge as for any insert. *)
  List.iter
    (fun (next_key, what, reader_action) ->
      let db = fresh ~next_key () in
      E.with_txn db (fun t -> ignore (E.delete t ~table:"kv" ~key:(vi 20)));
      let failed =
        writer_commit_fails db ~reader_action
          ~writer_action:(fun w -> E.insert w ~table:"kv" [| vi 20; vi 0 |])
      in
      Alcotest.(check bool)
        (Printf.sprintf "re-insert after %s detected (next_key=%b)" what next_key)
        true failed)
    (List.concat_map
       (fun next_key ->
         [
           (next_key, "absent read", fun r -> ignore (E.read r ~table:"kv" ~key:(vi 20)));
           ( next_key,
             "scan",
             fun r -> ignore (E.index_scan r ~table:"kv" ~index:"kv_pkey" ~lo:(vi 15) ~hi:(vi 25)) );
         ])
       [ false; true ])

(* Gap-lock inheritance regressions (found by the DSG oracle, nextkey
   config, seed 804): the gap a reader locked can be split by another
   transaction's physical insert — whose entry then shadows the original
   successor from a later insert's next-key check — or merged back by
   that insert's rollback.  Both structural changes must carry the
   reader's coverage along. *)

let test_gap_split_shadowed_successor () =
  (* Reader scans the empty range (20,30), locking its successor key 30.
     An uncommitted READ COMMITTED insert of 28 becomes the new
     successor; the writer's insert of 25 then computes succ = 28 and
     would miss the reader entirely unless 28 inherited the gap lock at
     its own insert. *)
  let db = fresh ~next_key:true () in
  let reader = E.begin_txn db in
  ignore (E.index_scan reader ~table:"kv" ~index:"kv_pkey" ~lo:(vi 21) ~hi:(vi 29));
  let interferer = E.begin_txn ~isolation:E.Read_committed db in
  E.insert interferer ~table:"kv" [| vi 28; vi 0 |];
  let w = E.begin_txn db in
  E.insert w ~table:"kv" [| vi 25; vi 0 |];
  ignore (E.read w ~table:"kv" ~key:(vi 50));
  let t3 = E.begin_txn db in
  bump t3 50;
  E.commit t3;
  let failed = (try E.commit w; false with E.Error (E.Serialization_failure _) -> true) in
  E.abort reader;
  E.abort interferer;
  Alcotest.(check bool) "phantom behind shadowing successor detected" true failed

let test_gap_merge_on_rollback () =
  (* Reader scans [21..27] while an uncommitted 28 is the physical
     successor: its only gap lock below 30 lands on 28.  The interferer
     then aborts, removing 28 and reuniting the gap (20,30); the
     writer's insert of 25 computes succ = 30 and would miss the reader
     unless the removal copied the lock from 28 up to 30. *)
  let db = fresh ~next_key:true () in
  let interferer = E.begin_txn ~isolation:E.Read_committed db in
  E.insert interferer ~table:"kv" [| vi 28; vi 0 |];
  let reader = E.begin_txn db in
  ignore (E.index_scan reader ~table:"kv" ~index:"kv_pkey" ~lo:(vi 21) ~hi:(vi 27));
  E.abort interferer;
  let w = E.begin_txn db in
  E.insert w ~table:"kv" [| vi 25; vi 0 |];
  ignore (E.read w ~table:"kv" ~key:(vi 50));
  let t3 = E.begin_txn db in
  bump t3 50;
  E.commit t3;
  let failed = (try E.commit w; false with E.Error (E.Serialization_failure _) -> true) in
  E.abort reader;
  Alcotest.(check bool) "phantom after gap merge detected" true failed

let test_nextkey_promotion () =
  (* Accumulating many key locks on one index promotes to a whole-index
     lock, like page locks do. *)
  let config =
    {
      E.default_config with
      E.next_key_gaps = true;
      certifier =
        {
          Certifier.default_config with
          predlock =
            {
              Predlock.max_tuple_locks_per_page = 64;
              max_page_locks_per_relation = 64;
              max_page_locks_per_index = 3;
            };
        };
    }
  in
  let db = E.create ~config () in
  E.create_table db ~name:"kv" ~cols:[ "k"; "v" ] ~key:"k";
  E.with_txn db (fun t ->
      for k = 0 to 19 do
        E.insert t ~table:"kv" [| vi k; vi 0 |]
      done);
  let holdopen = E.begin_txn db in
  ignore (E.read holdopen ~table:"kv" ~key:(vi 0));
  let reader = E.begin_txn db in
  for k = 0 to 9 do
    ignore (E.read reader ~table:"kv" ~key:(vi k))
  done;
  let locks = E.predicate_locks db in
  Alcotest.(check bool) "promoted to whole-index lock" true
    (Predlock.holds locks ~owner:(E.xid reader) (Predlock.Index_rel "kv_pkey"));
  Alcotest.(check bool) "lock count bounded" true
    (Predlock.owner_lock_count locks (E.xid reader) < 20);
  E.commit reader;
  E.commit holdopen

let test_mixed_gap_modes () =
  (* Per-index override: a next-key secondary index coexists with a
     page-mode primary key. *)
  let db = E.create () in
  E.create_table db ~name:"t" ~cols:[ "k"; "cat" ] ~key:"k";
  E.create_index db ~table:"t" ~name:"t_cat" ~column:"cat" ~next_key_gaps:true ();
  E.with_txn db (fun t ->
      E.insert t ~table:"t" [| vi 1; vi 10 |];
      E.insert t ~table:"t" [| vi 2; vi 90 |]);
  let reader = E.begin_txn db in
  ignore (E.index_scan reader ~table:"t" ~index:"t_cat" ~lo:(vi 10) ~hi:(vi 10));
  (* Insert at cat=50: in next-key mode the scan of [10..10] locked key 10
     and its successor 90; 50 splits the 10..90 gap whose covering key is
     90 — conflict expected?  No: the scan's upper gap coverage is the gap
     (10, 90), and 50 falls inside it, so next-key locking (which is
     range-faithful, locking the successor of hi) DOES flag it.  Inserting
     at cat=95 (above the successor) must not conflict. *)
  let w = E.begin_txn db in
  E.insert w ~table:"t" [| vi 3; vi 95 |];
  ignore (E.read w ~table:"t" ~key:(vi 1));
  let t3 = E.begin_txn db in
  ignore (E.update t3 ~table:"t" ~key:(vi 1) ~f:(fun r -> [| r.(0); vi 11 |]));
  E.commit t3;
  (* w has reader->w only if the insert conflicted; at cat=95 it must not
     have, so w commits. *)
  E.commit w;
  E.commit reader

let () =
  Alcotest.run "nextkey"
    [
      ( "phantom protection",
        [
          Alcotest.test_case "scan-then-insert" `Quick test_phantom_still_detected;
          Alcotest.test_case "absent point read" `Quick test_absent_point_read_protected;
          Alcotest.test_case "top gap" `Quick test_gap_above_highest;
          Alcotest.test_case "interior gap" `Quick test_gap_between_entries;
          Alcotest.test_case "re-insert over a dead head" `Quick test_reinsert_over_dead_head;
          Alcotest.test_case "gap split by uncommitted insert" `Quick
            test_gap_split_shadowed_successor;
          Alcotest.test_case "gap merged by rollback" `Quick
            test_gap_merge_on_rollback;
        ] );
      ( "precision",
        [
          Alcotest.test_case "page-mode false positive eliminated" `Quick
            test_false_positive_eliminated;
          Alcotest.test_case "per-index override" `Quick test_mixed_gap_modes;
        ] );
      ("memory", [ Alcotest.test_case "promotion" `Quick test_nextkey_promotion ]);
    ]
