(* Savepoints and subtransactions (§7.3): data rollback, nested
   savepoints, SIREAD-lock retention across subtransaction rollback, and
   the disabled drop-own-SIREAD optimization inside subtransactions. *)

open Ssi_storage
module E = Ssi_engine.Engine
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

let value t k =
  match E.read t ~table:"kv" ~key:(vi k) with
  | Some row -> Value.as_int row.(1)
  | None -> -1

let test_rollback_restores_data () =
  let db = fresh () in
  E.with_txn db (fun t ->
      bump t 1;
      E.savepoint t "sp";
      bump t 2;
      E.insert t ~table:"kv" [| vi 9; vi 9 |];
      ignore (E.delete t ~table:"kv" ~key:(vi 3));
      E.rollback_to_savepoint t "sp";
      Alcotest.(check int) "pre-savepoint write kept" 1 (value t 1);
      Alcotest.(check int) "update undone" 0 (value t 2);
      Alcotest.(check int) "insert undone" (-1) (value t 9);
      Alcotest.(check int) "delete undone" 0 (value t 3));
  E.with_txn db (fun t ->
      Alcotest.(check int) "committed state" 1 (value t 1);
      Alcotest.(check int) "no phantom 9" (-1) (value t 9))

let op_to_string = function
  | Wal.Insert { table; key; row } | Wal.Update { table; key; row } ->
      Printf.sprintf "%s/%s=[%s]" table (Value.to_string key)
        (String.concat "," (Array.to_list (Array.map Value.to_string row)))
  | Wal.Delete { table; key } -> Printf.sprintf "delete %s/%s" table (Value.to_string key)

let ops =
  Alcotest.(list (testable (fun ppf o -> Format.pp_print_string ppf (op_to_string o)) ( = )))

(* Rolling back to a savepoint also drops the redo ops written after it:
   the commit hook and the logged [Commit] carry only the surviving writes,
   in execution order. *)
let test_rollback_drops_redo_ops () =
  let db = E.create () in
  E.create_table db ~name:"kv" ~cols:[ "k"; "v" ] ~key:"k";
  let w = Wal.create () in
  E.attach_wal db w;
  let hooked = ref [] in
  E.set_on_log db (fun r _ ->
      match r with Wal.Commit { c_ops; _ } -> hooked := c_ops :: !hooked | _ -> ());
  E.with_txn db (fun t ->
      E.insert t ~table:"kv" [| vi 1; vi 0 |];
      E.savepoint t "a";
      E.insert t ~table:"kv" [| vi 2; vi 0 |];
      E.savepoint t "b";
      bump t 1;
      E.rollback_to_savepoint t "a";
      E.insert t ~table:"kv" [| vi 3; vi 0 |]);
  let insert k = Wal.Insert { table = "kv"; key = vi k; row = [| vi k; vi 0 |] } in
  let want = [ insert 1; insert 3 ] in
  (match !hooked with
  | [ hook_ops ] -> Alcotest.check ops "commit hook ops" want hook_ops
  | l -> Alcotest.failf "%d commit hook calls, expected 1" (List.length l));
  match
    List.filter_map
      (function Wal.Commit { c_ops; _ } -> Some c_ops | _ -> None)
      (fst (Wal.read_all w))
  with
  | [ logged ] -> Alcotest.check ops "logged Commit ops" want logged
  | l -> Alcotest.failf "%d logged commits, expected 1" (List.length l)

let test_savepoint_survives_rollback () =
  (* SQL semantics: ROLLBACK TO leaves the savepoint defined. *)
  let db = fresh () in
  E.with_txn db (fun t ->
      E.savepoint t "sp";
      bump t 1;
      E.rollback_to_savepoint t "sp";
      bump t 2;
      E.rollback_to_savepoint t "sp";
      Alcotest.(check int) "second rollback also works" 0 (value t 2))

let test_nested_savepoints () =
  let db = fresh () in
  E.with_txn db (fun t ->
      E.savepoint t "outer";
      bump t 1;
      E.savepoint t "inner";
      bump t 2;
      E.rollback_to_savepoint t "outer" (* destroys "inner" *);
      Alcotest.(check int) "inner write undone" 0 (value t 2);
      Alcotest.(check int) "outer write undone" 0 (value t 1);
      Alcotest.check_raises "inner destroyed"
        (E.Error (E.Undefined_object "Engine: no such savepoint inner"))
        (fun () -> E.rollback_to_savepoint t "inner"))

let test_release_savepoint () =
  let db = fresh () in
  E.with_txn db (fun t ->
      E.savepoint t "sp";
      bump t 1;
      E.release_savepoint t "sp";
      Alcotest.(check int) "write kept" 1 (value t 1);
      Alcotest.check_raises "released"
        (E.Error (E.Undefined_object "Engine: no such savepoint sp"))
        (fun () -> E.rollback_to_savepoint t "sp"));
  E.with_txn db (fun t -> Alcotest.(check int) "committed" 1 (value t 1))

let test_siread_survives_subxact_rollback () =
  (* §7.3: reads made inside an aborted subtransaction may have been
     externalized, so their SIREAD locks are retained — the conflict is
     still detected. *)
  let db = fresh () in
  let t1 = E.begin_txn db in
  E.savepoint t1 "sp";
  ignore (E.read t1 ~table:"kv" ~key:(vi 1)) (* read inside the subtransaction *);
  E.rollback_to_savepoint t1 "sp";
  (* A concurrent writer overwrites the read tuple, then gains a committed
     out-edge: t1 -> w -> t3 with t3 committing first must fail. *)
  let w = E.begin_txn db in
  bump w 1;
  ignore (E.read w ~table:"kv" ~key:(vi 2));
  let t3 = E.begin_txn db in
  bump t3 2;
  E.commit t3;
  (try
     E.commit w;
     Alcotest.fail "SIREAD from rolled-back subtransaction was lost"
   with E.Error (E.Serialization_failure _) -> ());
  E.commit t1

let test_own_write_lock_opt_disabled_in_subxact () =
  (* §7.3: normally a transaction that updates a tuple it read can drop
     its SIREAD lock (the write lock protects it).  Inside a
     subtransaction that is later rolled back, the write lock vanishes —
     so the SIREAD lock must have been kept. *)
  let db = fresh () in
  let t1 = E.begin_txn db in
  ignore (E.read t1 ~table:"kv" ~key:(vi 1));
  E.savepoint t1 "sp";
  bump t1 1 (* would normally drop the SIREAD lock on key 1 *);
  E.rollback_to_savepoint t1 "sp" (* write lock gone *);
  (* Concurrent writer of key 1 must still conflict with t1's read. *)
  let w = E.begin_txn db in
  bump w 1;
  ignore (E.read w ~table:"kv" ~key:(vi 2));
  let t3 = E.begin_txn db in
  bump t3 2;
  E.commit t3;
  (try
     E.commit w;
     Alcotest.fail "SIREAD lock dropped inside subtransaction"
   with E.Error (E.Serialization_failure _) -> ());
  E.commit t1

let test_own_write_lock_opt_enabled_at_top_level () =
  (* The same sequence WITHOUT a savepoint: the optimization applies, the
     SIREAD lock is dropped, and the writer never even conflicts with t1
     (its own write lock blocks the writer instead). *)
  let db = fresh () in
  let t1 = E.begin_txn db in
  ignore (E.read t1 ~table:"kv" ~key:(vi 1));
  bump t1 1;
  E.commit t1;
  let w = E.begin_txn db in
  bump w 1;
  ignore (E.read w ~table:"kv" ~key:(vi 2));
  let t3 = E.begin_txn db in
  bump t3 2;
  E.commit t3;
  (* t1 committed before w's writes; its dropped tuple SIREAD lock means
     no t1 -> w edge from key 1, so w has no dangerous in-edge. *)
  E.commit w

(* A tracked index scan that fails partway through its walk, inside a
   savepoint, keeps the SIREAD locks it took before the failure: the
   tuple locks of the rows it read and the gap locks of the index leaves
   (next-key mode: the keys) it reached, none beyond.  The failure is a
   dangerous structure completed by the scan's read of key 130: w
   overwrote 130 and committed after t3, which overwrote a row w read. *)
module P = Ssi_core.Predlock

let test_scan_failure_keeps_reached_locks ~next_key () =
  let db = E.create ~config:{ E.default_config with next_key_gaps = next_key } () in
  E.create_table db ~name:"t" ~cols:[ "k"; "v" ] ~key:"k";
  E.with_txn ~isolation:E.Read_committed db (fun t ->
      for k = 0 to 999 do
        E.insert t ~table:"t" [| vi k; vi 0 |]
      done);
  let set t k = ignore (E.update t ~table:"t" ~key:(vi k) ~f:(fun r -> [| r.(0); vi 1 |])) in
  let scan t ~lo ~hi = E.index_scan t ~table:"t" ~index:"t_pkey" ~lo:(vi lo) ~hi:(vi hi) in
  let held t = P.held_by (E.predicate_locks db) (E.xid t) in
  let names = List.map P.target_to_string in
  let gaps =
    List.filter (function P.Index_page _ | P.Index_key _ | P.Index_inf _ -> true | _ -> false)
  in
  let heap = List.filter (function P.Tuple _ | P.Page _ | P.Relation _ -> true | _ -> false) in
  let a = E.begin_txn db in
  let w = E.begin_txn db in
  ignore (E.read w ~table:"t" ~key:(vi 900));
  E.with_txn db (fun t3 -> set t3 900);
  set w 130;
  E.commit w;
  E.savepoint a "sp";
  (match scan a ~lo:125 ~hi:180 with
  | _ -> Alcotest.fail "the scan's read of key 130 completes a dangerous structure"
  | exception E.Error (E.Serialization_failure _) -> ());
  E.rollback_to_savepoint a "sp";
  let a_held = held a in
  (* 64 rows to a heap page: 125..127 on page 1, 128 and 129 on page 2,
     too few on either for a page lock. *)
  Alcotest.(check (list string))
    "tuple locks of the rows read"
    (names (List.map (fun k -> P.Tuple ("t", vi k)) [ 125; 126; 127; 128; 129 ]))
    (names (heap a_held));
  (if next_key then
     Alcotest.(check (list string))
       "gap locks of the keys reached"
       (names (List.map (fun k -> P.Index_key ("t_pkey", vi k)) [ 125; 126; 127; 128; 129; 130 ]))
       (names (gaps a_held))
   else begin
     (* Reference scans by fresh transactions: the leaves up to key 129
        were reached, the whole range reaches more. *)
     let leaves ~lo ~hi =
       E.with_txn db (fun r ->
           ignore (scan r ~lo ~hi);
           gaps (held r))
     in
     let subset xs ys = List.for_all (fun x -> List.mem x ys) xs in
     let reached = leaves ~lo:125 ~hi:129 and whole = leaves ~lo:125 ~hi:180 in
     Alcotest.(check bool) "leaves before key 130 locked" true (subset reached (gaps a_held));
     Alcotest.(check bool) "leaves within the range" true (subset (gaps a_held) whole);
     Alcotest.(check bool) "leaves past key 130 not locked" true
       (List.length (gaps a_held) < List.length whole)
   end);
  E.abort a

let test_unknown_savepoint () =
  let db = fresh () in
  E.with_txn db (fun t ->
      Alcotest.check_raises "unknown"
        (E.Error (E.Undefined_object "Engine: no such savepoint nope"))
        (fun () -> E.rollback_to_savepoint t "nope"))

let () =
  Alcotest.run "subxact"
    [
      ( "savepoints",
        [
          Alcotest.test_case "rollback restores data" `Quick test_rollback_restores_data;
          Alcotest.test_case "savepoint survives rollback" `Quick
            test_savepoint_survives_rollback;
          Alcotest.test_case "nested" `Quick test_nested_savepoints;
          Alcotest.test_case "rollback drops redo ops" `Quick test_rollback_drops_redo_ops;
          Alcotest.test_case "release" `Quick test_release_savepoint;
          Alcotest.test_case "unknown name" `Quick test_unknown_savepoint;
        ] );
      ( "ssi interactions (§7.3)",
        [
          Alcotest.test_case "SIREAD survives subxact rollback" `Quick
            test_siread_survives_subxact_rollback;
          Alcotest.test_case "drop-own-SIREAD disabled in subxact" `Quick
            test_own_write_lock_opt_disabled_in_subxact;
          Alcotest.test_case "drop-own-SIREAD active at top level" `Quick
            test_own_write_lock_opt_enabled_at_top_level;
          Alcotest.test_case "scan failure keeps the leaf locks reached" `Quick
            (test_scan_failure_keeps_reached_locks ~next_key:false);
          Alcotest.test_case "scan failure keeps the key locks reached" `Quick
            (test_scan_failure_keeps_reached_locks ~next_key:true);
        ] );
    ]
