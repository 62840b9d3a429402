(* The strict two-phase-locking baseline (§8): blocking behaviour that
   distinguishes it from SSI ("readers block writers"), phantom
   protection via index-page locks, deadlock resolution, and regression
   tests for lock-then-read ordering. *)

open Ssi_storage
module E = Ssi_engine.Engine
module Sim = Ssi_sim.Sim

let vi i = Value.Int i
let iso = E.Serializable_2pl

let setup db =
  E.create_table db ~name:"kv" ~cols:[ "k"; "v" ] ~key:"k";
  E.with_txn db (fun t ->
      for k = 0 to 9 do
        E.insert t ~table:"kv" [| vi k; vi 0 |]
      done)

let bump t k = ignore (E.update t ~table:"kv" ~key:(vi k) ~f:(fun r -> [| r.(0); vi 1 |]))

let test_reader_blocks_writer () =
  (* The defining difference from SSI (§3): a 2PL reader holds its lock to
     commit, so a writer of the same tuple waits. *)
  let write_done_at = ref (-1.) in
  ignore
    (Sim.run (fun () ->
         let db = E.create ~scheduler:Sim.scheduler () in
         setup db;
         Sim.spawn (fun () ->
             let r = E.begin_txn ~isolation:iso db in
             ignore (E.read r ~table:"kv" ~key:(vi 1));
             Sim.delay 2.0;
             E.commit r);
         Sim.spawn (fun () ->
             Sim.delay 0.1;
             E.with_txn ~isolation:iso db (fun w -> bump w 1);
             write_done_at := Sim.now ())));
  Alcotest.(check bool) "writer waited for the reader" true (!write_done_at >= 2.0)

let test_ssi_reader_does_not_block_writer () =
  (* Contrast: under SSI the same schedule does not block. *)
  let write_done_at = ref (-1.) in
  ignore
    (Sim.run (fun () ->
         let db = E.create ~scheduler:Sim.scheduler () in
         setup db;
         Sim.spawn (fun () ->
             let r = E.begin_txn db in
             ignore (E.read r ~table:"kv" ~key:(vi 1));
             Sim.delay 2.0;
             E.commit r);
         Sim.spawn (fun () ->
             Sim.delay 0.1;
             E.with_txn db (fun w -> bump w 1);
             write_done_at := Sim.now ())));
  Alcotest.(check bool) "writer did not wait" true
    (!write_done_at >= 0. && !write_done_at < 1.0)

let test_scan_blocks_insert_phantom () =
  (* A range scan's index-page locks block a concurrent insert into the
     scanned gap until the scanner commits. *)
  let insert_done_at = ref (-1.) in
  ignore
    (Sim.run (fun () ->
         let db = E.create ~scheduler:Sim.scheduler () in
         setup db;
         Sim.spawn (fun () ->
             let r = E.begin_txn ~isolation:iso db in
             ignore (E.index_scan r ~table:"kv" ~index:"kv_pkey" ~lo:(vi 0) ~hi:(vi 100));
             Sim.delay 2.0;
             E.commit r);
         Sim.spawn (fun () ->
             Sim.delay 0.1;
             E.with_txn ~isolation:iso db (fun w ->
                 E.insert w ~table:"kv" [| vi 50; vi 0 |]);
             insert_done_at := Sim.now ())));
  Alcotest.(check bool) "insert waited for the scanner" true (!insert_done_at >= 2.0)

let test_deadlock_becomes_serialization_failure () =
  let failures = ref 0 and commits = ref 0 in
  ignore
    (Sim.run (fun () ->
         let db = E.create ~scheduler:Sim.scheduler () in
         setup db;
         let crossing i j =
           Sim.spawn (fun () ->
               let t = E.begin_txn ~isolation:iso db in
               (try
                  bump t i;
                  Sim.delay 0.5;
                  bump t j;
                  E.commit t;
                  incr commits
                with E.Error (E.Serialization_failure _) ->
                  E.abort t;
                  incr failures))
         in
         crossing 1 2;
         crossing 2 1));
  Alcotest.(check int) "one deadlock victim" 1 !failures;
  Alcotest.(check int) "one survivor" 1 !commits

let test_reads_latest_after_lock_wait () =
  (* Regression for the stale-snapshot bug: a 2PL reader that waits for a
     writer's lock must observe the writer's committed value. *)
  let seen = ref (-1) in
  ignore
    (Sim.run (fun () ->
         let db = E.create ~scheduler:Sim.scheduler () in
         setup db;
         Sim.spawn (fun () ->
             let w = E.begin_txn ~isolation:iso db in
             ignore (E.update w ~table:"kv" ~key:(vi 1) ~f:(fun r -> [| r.(0); vi 42 |]));
             Sim.delay 1.0;
             E.commit w);
         Sim.spawn (fun () ->
             Sim.delay 0.1;
             E.with_txn ~isolation:iso db (fun r ->
                 match E.read r ~table:"kv" ~key:(vi 1) with
                 | Some row -> seen := Value.as_int row.(1)
                 | None -> ()))));
  Alcotest.(check int) "read the committed value, not a stale snapshot" 42 !seen

let test_scan_rescans_after_page_wait () =
  (* Regression for the stale-probe bug: a scanner that blocked on an
     index page must rescan after the lock is granted, seeing the
     inserter's committed row. *)
  let count = ref (-1) in
  ignore
    (Sim.run (fun () ->
         let db = E.create ~scheduler:Sim.scheduler () in
         setup db;
         Sim.spawn (fun () ->
             let w = E.begin_txn ~isolation:iso db in
             E.insert w ~table:"kv" [| vi 50; vi 0 |];
             Sim.delay 1.0;
             E.commit w);
         Sim.spawn (fun () ->
             Sim.delay 0.1;
             E.with_txn ~isolation:iso db (fun r ->
                 count :=
                   List.length
                     (E.index_scan r ~table:"kv" ~index:"kv_pkey" ~lo:(vi 0) ~hi:(vi 100))))));
  Alcotest.(check int) "scan includes the inserted row" 11 !count

let test_no_siread_tracking () =
  (* The baseline uses the heavyweight lock manager, not SSI state. *)
  let db = E.create () in
  setup db;
  E.with_txn ~isolation:iso db (fun t -> ignore (E.seq_scan t ~table:"kv" ()));
  let (Ssi_core.Certifier.Cert ((module C), c)) = E.certifier db in
  Alcotest.(check int) "no SSI transactions" 0 (C.active_count c);
  Alcotest.(check int) "no SIREAD locks" 0
    (Ssi_core.Predlock.total_lock_count (E.predicate_locks db))

let () =
  Alcotest.run "s2pl"
    [
      ( "blocking",
        [
          Alcotest.test_case "reader blocks writer" `Quick test_reader_blocks_writer;
          Alcotest.test_case "SSI contrast: no blocking" `Quick
            test_ssi_reader_does_not_block_writer;
          Alcotest.test_case "scan blocks phantom insert" `Quick test_scan_blocks_insert_phantom;
          Alcotest.test_case "deadlock handled" `Quick test_deadlock_becomes_serialization_failure;
        ] );
      ( "lock-then-read ordering",
        [
          Alcotest.test_case "point read after wait" `Quick test_reads_latest_after_lock_wait;
          Alcotest.test_case "scan after page wait" `Quick test_scan_rescans_after_page_wait;
        ] );
      ("bookkeeping", [ Alcotest.test_case "no SSI state" `Quick test_no_siread_tracking ]);
    ]
