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

   and at the end the committed history passes the DSG oracle.  Reads,
   writes and the setup follow {!Oracle.txn_body}, so every version a
   transaction reads names its writer. *)

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

type live = {
  txn : E.txn;
  mutable reads : (int * int) list;  (** newest first *)
  mutable writes : int list;  (** newest first *)
  mutable saves : (int * int list) list;  (** savepoint, [writes] when set; newest first *)
}

type slot =
  | Empty
  | Live of live
  | Stale of E.txn  (** finished or prepared: every operation but abort is misuse *)

type state = {
  db : E.t;
  slots : slot array;
  prepared : (string, Oracle.committed) Hashtbl.t;  (** gid -> its log, order unset *)
  mutable history : Oracle.committed list;
  mutable order : int;
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

let log_of l =
  { Oracle.xid = E.xid l.txn; reads = List.rev l.reads; writes = List.rev l.writes; order = 0 }

let commit_log st (c : Oracle.committed) =
  st.order <- st.order + 1;
  st.history <- { c with order = st.order } :: st.history

let writer row = Value.as_int row.(1)

(* Apply one data operation of a live handle, recording what it read and
   wrote; any failure aborts the handle, as a client would. *)
let data_op st s l op =
  let t = l.txn and me = Value.Int (E.xid l.txn) in
  let read k v = l.reads <- (k, v) :: l.reads and wrote k = l.writes <- k :: l.writes in
  let body () =
    match op with
    | Read k ->
        read k (match E.read t ~table ~key:(Value.Int k) with Some r -> writer r | None -> 0)
    | Scan k ->
        let hi = min (keys - 1) (k + 2) in
        let rows =
          E.index_scan t ~table ~index:(table ^ "_pkey") ~lo:(Value.Int k) ~hi:(Value.Int hi)
        in
        for key = k to hi do
          read key
            (match List.find_opt (fun r -> Value.as_int r.(0) = key) rows with
            | Some r -> writer r
            | None -> 0)
        done
    | Insert k ->
        E.insert t ~table [| Value.Int k; me |];
        wrote k
    | Update k -> if E.update t ~table ~key:(Value.Int k) ~f:(fun r -> [| r.(0); me |]) then wrote k
    | Delete k ->
        (* Delete and re-insert a tombstone stamped with this transaction,
           as the oracle does, so readers can tell which version they saw. *)
        if E.delete t ~table ~key:(Value.Int k) then begin
          E.insert t ~table [| Value.Int k; me |];
          wrote k
        end
    | Savepoint i ->
        E.savepoint t (savepoint i);
        l.saves <- (i, l.writes) :: l.saves
    | Rollback_to i ->
        E.rollback_to_savepoint t (savepoint i);
        let rec unwind = function
          | ((j, writes) :: _) as saves when i = j ->
              l.writes <- writes;
              saves
          | _ :: rest -> unwind rest
          | [] -> QCheck.Test.fail_report "rolled back to a savepoint the model never set"
        in
        l.saves <- unwind l.saves
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
      | Done txn -> st.slots.(s) <- Live { txn; reads = []; writes = []; saves = [] }
      | Failed _ -> ()
      | Misuse -> QCheck.Test.fail_report "begin raised Invalid_argument")
  | Finish_prepared { gid = g; commit }, _ -> (
      let gid = gid g in
      let finish () =
        if commit then E.commit_prepared st.db ~gid else E.rollback_prepared st.db ~gid
      in
      match (run finish, Hashtbl.find_opt st.prepared gid) with
      | Done (), Some c ->
          Hashtbl.remove st.prepared gid;
          if commit then commit_log st c
      | Failed (E.Undefined_object _), None -> ()
      | _ -> QCheck.Test.fail_reportf "finishing %s disagrees with the model" gid)
  | Abort, Live { txn; _ } ->
      E.abort txn;
      st.slots.(s) <- Empty
  | Abort, Stale txn ->
      (* Aborting a prepared transaction through its handle rolls it back. *)
      E.abort txn;
      Hashtbl.filter_map_inplace
        (fun _ (c : Oracle.committed) -> if c.xid = E.xid txn then None else Some c)
        st.prepared;
      st.slots.(s) <- Empty
  | Commit, Live l -> (
      match run (fun () -> E.commit l.txn) with
      | Done () ->
          commit_log st (log_of l);
          st.slots.(s) <- Stale l.txn
      | Failed _ ->
          if not (E.is_finished l.txn) then QCheck.Test.fail_report "failed commit left it active";
          st.slots.(s) <- Stale l.txn
      | Misuse -> QCheck.Test.fail_report "commit of a live handle raised Invalid_argument")
  | Prepare g, Live l -> (
      match run (fun () -> E.prepare l.txn ~gid:(gid g)) with
      | Done () ->
          Hashtbl.replace st.prepared (gid g) (log_of l);
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
  let prepared = Hashtbl.fold (fun _ (c : Oracle.committed) acc -> c.xid :: acc) st.prepared [] in
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
      (* The setup transaction is xid 1, the oracle's seed writer. *)
      E.with_txn db (fun t ->
          for k = 0 to (keys / 2) - 1 do
            E.insert t ~table [| Value.Int k; Value.Int (E.xid t) |]
          done);
      let st =
        { db; slots = Array.make slots Empty; prepared = Hashtbl.create 4; history = []; order = 0 }
      in
      List.iter
        (fun cmd ->
          step st cmd;
          check_nothing_leaked st)
        cmds;
      Array.iter (function Live l -> E.abort l.txn | Empty | Stale _ -> ()) st.slots;
      List.iter
        (fun gid ->
          E.commit_prepared db ~gid;
          commit_log st (Hashtbl.find st.prepared gid))
        (E.prepared_gids db);
      match Oracle.check_serializable { Oracle.committed = List.rev st.history } with
      | Ok () -> true
      | Error cycle ->
          QCheck.Test.fail_reportf "committed history has a cycle: %s"
            (String.concat " -> " (List.map string_of_int cycle)))

let () =
  Alcotest.run "engine_fuzz" [ ("contract", [ QCheck_alcotest.to_alcotest prop_contract ]) ]
