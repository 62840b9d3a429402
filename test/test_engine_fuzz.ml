(* A state-machine fuzz of the [Engine] API contract.  Random commands
   drive three interleaved transaction handles under the direct scheduler,
   misuse included: writes in READ ONLY transactions, DEFERRABLE without
   READ ONLY, unknown savepoints, duplicate and unknown gids, operations on
   finished or prepared handles.  After every command:

   - the only exceptions that escaped are [E.Error _] and the two
     documented programmer errors, and only a finished or prepared handle
     raised one of those;
   - no transaction outlives its handle: COMMIT and PREPARE roll back on
     failure themselves, a client that aborts after any other failure
     leaves nothing behind, and the certifier tracks no transaction the
     model does not know;

   and at the end the history the engine recorded is acyclic and every
   read in it returned the version its snapshot should see: the recorder
   must follow savepoint rollbacks, failed statements and 2PC. *)

open Ssi_storage
module E = Ssi_engine.Engine
module Oracle = Test_oracle.Oracle
module Certifier = Ssi_core.Certifier

let table = Oracle.table
let keys = 4
let slots = 3
let gid i = Printf.sprintf "g%d" i
let savepoint i = Printf.sprintf "sp%d" i

type op =
  | Begin of { read_only : bool; deferrable : bool }
  | Read of int
  | Scan of int
  | Insert of int
  | Update of int
  | Delete of int
  | Savepoint of int
  | Rollback_to of int
  | Prepare of int
  | Finish_prepared of { gid : int; commit : bool }
  | Commit
  | Abort

let print_op = function
  | Begin { read_only; deferrable } -> Printf.sprintf "Begin(ro=%b,def=%b)" read_only deferrable
  | Read k -> Printf.sprintf "Read %d" k
  | Scan k -> Printf.sprintf "Scan %d" k
  | Insert k -> Printf.sprintf "Insert %d" k
  | Update k -> Printf.sprintf "Update %d" k
  | Delete k -> Printf.sprintf "Delete %d" k
  | Savepoint i -> Printf.sprintf "Savepoint %d" i
  | Rollback_to i -> Printf.sprintf "Rollback_to %d" i
  | Prepare g -> Printf.sprintf "Prepare %d" g
  | Finish_prepared { gid; commit } -> Printf.sprintf "Finish_prepared(%d,%b)" gid commit
  | Commit -> "Commit"
  | Abort -> "Abort"

let op_gen =
  QCheck.Gen.(
    let key = int_bound (keys - 1) and two = int_bound 1 in
    frequency
      [
        (4, map2 (fun read_only deferrable -> Begin { read_only; deferrable })
              (frequency [ (7, return false); (1, return true) ])
              (frequency [ (11, return false); (1, return true) ]));
        (4, map (fun k -> Read k) key);
        (3, map (fun k -> Scan k) key);
        (1, map (fun k -> Insert k) key);
        (4, map (fun k -> Update k) key);
        (1, map (fun k -> Delete k) key);
        (1, map (fun i -> Savepoint i) two);
        (1, map (fun i -> Rollback_to i) two);
        (1, map (fun g -> Prepare g) two);
        (1, map2 (fun gid commit -> Finish_prepared { gid; commit }) two bool);
        (4, return Commit);
        (1, return Abort);
      ])

let cmds_arb =
  QCheck.make ~shrink:QCheck.Shrink.list
    ~print:QCheck.Print.(list (pair int print_op))
    QCheck.Gen.(list_size (int_range 1 60) (pair (int_bound (slots - 1)) op_gen))

(* ---- The model --------------------------------------------------------------- *)

type live = { txn : E.txn }

type slot =
  | Empty
  | Live of live
  | Stale of E.txn  (** finished or prepared: every operation but abort is misuse *)

type state = {
  db : E.t;
  slots : slot array;
  prepared : (string, int) Hashtbl.t;  (** gid -> xid *)
}

let documented_misuse =
  [ "Engine: transaction already finished"; "Engine: transaction is prepared" ]

type 'a outcome = Done of 'a | Failed of E.error | Misuse

let run f =
  match f () with
  | v -> Done v
  | exception E.Error e -> Failed e
  | exception Invalid_argument m when List.mem m documented_misuse -> Misuse
  | exception e -> QCheck.Test.fail_reportf "escaped: %s" (Printexc.to_string e)

(* Apply one data operation of a live handle; any failure aborts the
   handle, as a client would. *)
let data_op st s l op =
  let t = l.txn and me = Value.Int (E.xid l.txn) in
  let body () =
    match op with
    | Read k -> ignore (E.read t ~table ~key:(Value.Int k))
    | Scan k ->
        let hi = min (keys - 1) (k + 2) in
        ignore (E.index_scan t ~table ~index:(table ^ "_pkey") ~lo:(Value.Int k) ~hi:(Value.Int hi))
    | Insert k -> E.insert t ~table [| Value.Int k; me |]
    | Update k -> ignore (E.update t ~table ~key:(Value.Int k) ~f:(fun r -> [| r.(0); me |]))
    | Delete k -> ignore (E.delete t ~table ~key:(Value.Int k))
    | Savepoint i -> E.savepoint t (savepoint i)
    | Rollback_to i -> E.rollback_to_savepoint t (savepoint i)
    | Begin _ | Prepare _ | Finish_prepared _ | Commit | Abort -> assert false
  in
  match run body with
  | Done () -> ()
  | Misuse -> QCheck.Test.fail_report "a live handle raised Invalid_argument"
  | Failed _ ->
      E.abort t;
      st.slots.(s) <- Empty

let step st (s, op) =
  match (op, st.slots.(s)) with
  | Begin _, Live _ -> ()
  | Begin { read_only; deferrable }, (Empty | Stale _) -> (
      match run (fun () -> E.begin_txn ~read_only ~deferrable st.db) with
      | Done txn -> st.slots.(s) <- Live { txn }
      | Failed _ -> ()
      | Misuse -> QCheck.Test.fail_report "begin raised Invalid_argument")
  | Finish_prepared { gid = g; commit }, _ -> (
      let gid = gid g in
      let finish () =
        if commit then E.commit_prepared st.db ~gid else E.rollback_prepared st.db ~gid
      in
      match (run finish, Hashtbl.find_opt st.prepared gid) with
      | Done (), Some _ -> Hashtbl.remove st.prepared gid
      | Failed (E.Undefined_object _), None -> ()
      | _ -> QCheck.Test.fail_reportf "finishing %s disagrees with the model" gid)
  | Abort, Live { txn; _ } ->
      E.abort txn;
      st.slots.(s) <- Empty
  | Abort, Stale txn ->
      (* Aborting a prepared transaction through its handle rolls it back. *)
      E.abort txn;
      Hashtbl.filter_map_inplace (fun _ x -> if x = E.xid txn then None else Some x) st.prepared;
      st.slots.(s) <- Empty
  | Commit, Live l -> (
      match run (fun () -> E.commit l.txn) with
      | Done () -> st.slots.(s) <- Stale l.txn
      | Failed _ ->
          if not (E.is_finished l.txn) then QCheck.Test.fail_report "failed commit left it active";
          st.slots.(s) <- Stale l.txn
      | Misuse -> QCheck.Test.fail_report "commit of a live handle raised Invalid_argument")
  | Prepare g, Live l -> (
      match run (fun () -> E.prepare l.txn ~gid:(gid g)) with
      | Done () ->
          Hashtbl.replace st.prepared (gid g) (E.xid l.txn);
          st.slots.(s) <- Stale l.txn
      | Failed _ ->
          if not (E.is_finished l.txn) then QCheck.Test.fail_report "failed prepare left it active";
          st.slots.(s) <- Stale l.txn
      | Misuse -> QCheck.Test.fail_report "prepare of a live handle raised Invalid_argument")
  | (Read _ | Scan _ | Insert _ | Update _ | Delete _ | Savepoint _ | Rollback_to _), Live l ->
      data_op st s l op
  | (Read _ | Scan _ | Insert _ | Update _ | Delete _ | Savepoint _ | Rollback_to _ | Commit
    | Prepare _), Stale txn -> (
      let f () =
        match op with
        | Commit -> E.commit txn
        | Prepare g -> E.prepare txn ~gid:(gid g)
        | _ -> ignore (E.read txn ~table ~key:(Value.Int 0))
      in
      match run f with
      | Misuse -> st.slots.(s) <- Empty
      | Done () | Failed _ -> QCheck.Test.fail_report "a finished handle was usable")
  | _, Empty -> ()

(* Every transaction the engine or its certifier still tracks is one the
   model holds: a live handle or a prepared gid. *)
let check_nothing_leaked st =
  let live =
    Array.fold_left
      (fun acc -> function Live l -> E.xid l.txn :: acc | Empty | Stale _ -> acc)
      [] st.slots
  in
  let prepared = Hashtbl.fold (fun _ x acc -> x :: acc) st.prepared [] in
  let known = live @ prepared in
  if E.active_transactions st.db <> List.length known then
    QCheck.Test.fail_reportf "engine has %d active transactions, the model %d"
      (E.active_transactions st.db) (List.length known);
  let (Certifier.Cert ((module C), c)) = E.certifier st.db in
  List.iter
    (fun (i : Certifier.node_info) ->
      if (i.info_status = "active" || i.info_status = "prepared") && not (List.mem i.info_xid known)
      then QCheck.Test.fail_reportf "the certifier still tracks %s xid %d" i.info_status i.info_xid)
    (C.dump_graph c)

let prop_contract =
  QCheck.Test.make ~name:"the engine API keeps its error contract" ~count:5000 cmds_arb
    (fun cmds ->
      let db = E.create () in
      E.create_table db ~name:table ~cols:[ "k"; "writer" ] ~key:"k";
      E.with_txn db (fun t ->
          for k = 0 to (keys / 2) - 1 do
            E.insert t ~table [| Value.Int k; Value.Int (E.xid t) |]
          done);
      let history = ref [] in
      E.set_recorder db (Some (fun entry -> history := entry :: !history));
      let st = { db; slots = Array.make slots Empty; prepared = Hashtbl.create 4 } in
      List.iter
        (fun cmd ->
          step st cmd;
          check_nothing_leaked st)
        cmds;
      Array.iter (function Live l -> E.abort l.txn | Empty | Stale _ -> ()) st.slots;
      List.iter (fun gid -> E.commit_prepared db ~gid) (E.prepared_gids db);
      let history = List.rev !history in
      (match Ssi_check.Dsg.check [ history ] with
      | Ok () -> ()
      | Error cycle ->
          QCheck.Test.fail_reportf "committed history has a cycle:\n%s"
            (Ssi_check.Dsg.pp_cycle cycle));
      match Ssi_check.Dsg.stale_read [ history ] with
      | None -> true
      | Some e -> QCheck.Test.fail_reportf "recorded a stale read: %s" e)

let () =
  Alcotest.run "engine_fuzz" [ ("contract", [ QCheck_alcotest.to_alcotest prop_contract ]) ]
