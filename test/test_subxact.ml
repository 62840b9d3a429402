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
  E.set_on_commit db (fun r -> hooked := r.E.wal_ops :: !hooked);
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
        ] );
    ]
