(* MVCC: commit log, snapshots and tuple visibility — including the
   rw-conflict information extracted during visibility checks (§5.2). *)

open Ssi_storage
module Mvcc = Ssi_mvcc.Mvcc
module Clog = Mvcc.Clog
module Snapshot = Mvcc.Snapshot
module Visibility = Mvcc.Visibility

let schema = Schema.make ~name:"t" ~cols:[ "k"; "v" ] ~key:"k"
let row k = [| Value.Int k; Value.Int 0 |]

(* ---- Clog ------------------------------------------------------------------ *)

let test_clog_lifecycle () =
  let c = Clog.create () in
  let x1 = Clog.new_xid c and x2 = Clog.new_xid c in
  Alcotest.(check bool) "distinct xids" true (x1 <> x2);
  Alcotest.(check bool) "in progress" true (Clog.status c x1 = Clog.In_progress);
  let cs1 = Clog.commit c x1 in
  Clog.abort c x2;
  Alcotest.(check bool) "committed" true (Clog.status c x1 = Clog.Committed cs1);
  Alcotest.(check bool) "aborted" true (Clog.status c x2 = Clog.Aborted);
  Alcotest.(check bool) "is_committed" true (Clog.is_committed c x1);
  Alcotest.(check bool) "aborted not committed" false (Clog.is_committed c x2);
  Alcotest.(check int) "commit_cseq" cs1 (Clog.commit_cseq c x1);
  Alcotest.(check int) "commit_cseq of aborted" Mvcc.invalid_cseq (Clog.commit_cseq c x2)

let test_clog_cseq_monotone () =
  let c = Clog.create () in
  let xs = List.init 5 (fun _ -> Clog.new_xid c) in
  let cseqs = List.map (Clog.commit c) xs in
  Alcotest.(check (list int)) "monotone" (List.sort compare cseqs) cseqs

let test_clog_double_resolution () =
  let c = Clog.create () in
  let x = Clog.new_xid c in
  ignore (Clog.commit c x);
  Alcotest.check_raises "commit twice"
    (Invalid_argument "Clog.commit: transaction already resolved") (fun () ->
      ignore (Clog.commit c x));
  Alcotest.check_raises "abort after commit"
    (Invalid_argument "Clog.abort: transaction already resolved") (fun () -> Clog.abort c x)

let test_clog_unknown () =
  let c = Clog.create () in
  Alcotest.check_raises "unknown xid" (Invalid_argument "Clog.status: unknown xid 99")
    (fun () -> ignore (Clog.status c 99))

(* ---- Snapshots ---------------------------------------------------------------- *)

let test_snapshot_sees () =
  let c = Clog.create () in
  let writer = Clog.new_xid c in
  ignore (Clog.commit c writer);
  let reader = Clog.new_xid c in
  let snap = Snapshot.take c ~owner:reader in
  let late_writer = Clog.new_xid c in
  ignore (Clog.commit c late_writer);
  Alcotest.(check bool) "sees earlier commit" true (Snapshot.sees_xid c snap writer);
  Alcotest.(check bool) "does not see later commit" false
    (Snapshot.sees_xid c snap late_writer);
  Alcotest.(check bool) "sees itself" true (Snapshot.sees_xid c snap reader)

(* ---- Visibility ----------------------------------------------------------------- *)

(* A tiny fixture: [committed_before] is a committed transaction visible in
   the snapshot; [concurrent] is one that commits after it. *)
let fixture () =
  let c = Clog.create () in
  let heap = Heap.create schema in
  let before = Clog.new_xid c in
  ignore (Clog.commit c before);
  let reader = Clog.new_xid c in
  let snap = Snapshot.take c ~owner:reader in
  (c, heap, before, reader, snap)

let test_visible_plain () =
  let c, heap, before, _, snap = fixture () in
  let t = Heap.insert_version heap ~key:(Value.Int 1) ~row:(row 1) ~xmin:before in
  Alcotest.(check bool) "visible, no conflict" true
    (Visibility.check c snap t = Visibility.Visible None)

let test_invisible_future_creator () =
  let c, heap, _, _, snap = fixture () in
  let w = Clog.new_xid c in
  let t = Heap.insert_version heap ~key:(Value.Int 1) ~row:(row 1) ~xmin:w in
  (* In-progress creator: invisible, and a conflict out to the creator. *)
  Alcotest.(check bool) "in-progress creator conflicts" true
    (Visibility.check c snap t = Visibility.Invisible (Some w));
  ignore (Clog.commit c w);
  Alcotest.(check bool) "committed-after-snapshot creator conflicts" true
    (Visibility.check c snap t = Visibility.Invisible (Some w))

let test_invisible_aborted_creator () =
  let c, heap, _, _, snap = fixture () in
  let w = Clog.new_xid c in
  Clog.abort c w;
  let t = Heap.insert_version heap ~key:(Value.Int 1) ~row:(row 1) ~xmin:w in
  Alcotest.(check bool) "aborted creator: no conflict" true
    (Visibility.check c snap t = Visibility.Invisible None)

let test_visible_with_concurrent_deleter () =
  let c, heap, before, _, snap = fixture () in
  let t = Heap.insert_version heap ~key:(Value.Int 1) ~row:(row 1) ~xmin:before in
  let deleter = Clog.new_xid c in
  Heap.set_xmax t deleter;
  Alcotest.(check bool) "still visible, conflict out to deleter" true
    (Visibility.check c snap t = Visibility.Visible (Some deleter));
  ignore (Clog.commit c deleter);
  Alcotest.(check bool) "deleter committed after snapshot: same" true
    (Visibility.check c snap t = Visibility.Visible (Some deleter))

let test_deleted_before_snapshot () =
  let c = Clog.create () in
  let heap = Heap.create schema in
  let creator = Clog.new_xid c in
  ignore (Clog.commit c creator);
  let deleter = Clog.new_xid c in
  let t = Heap.insert_version heap ~key:(Value.Int 1) ~row:(row 1) ~xmin:creator in
  Heap.set_xmax t deleter;
  ignore (Clog.commit c deleter);
  let reader = Clog.new_xid c in
  let snap = Snapshot.take c ~owner:reader in
  Alcotest.(check bool) "cleanly deleted: invisible, no conflict" true
    (Visibility.check c snap t = Visibility.Invisible None)

let test_own_writes () =
  let c, heap, _, reader, snap = fixture () in
  let t = Heap.insert_version heap ~key:(Value.Int 1) ~row:(row 1) ~xmin:reader in
  Alcotest.(check bool) "own insert visible" true
    (Visibility.check c snap t = Visibility.Visible None);
  Heap.set_xmax t reader;
  Alcotest.(check bool) "own delete invisible" true
    (Visibility.check c snap t = Visibility.Invisible None)

let test_aborted_deleter_ignored () =
  let c, heap, before, _, snap = fixture () in
  let t = Heap.insert_version heap ~key:(Value.Int 1) ~row:(row 1) ~xmin:before in
  let deleter = Clog.new_xid c in
  Heap.set_xmax t deleter;
  Clog.abort c deleter;
  Alcotest.(check bool) "aborted deleter: visible, no conflict" true
    (Visibility.check c snap t = Visibility.Visible None)

(* [find_visible] and [deleter] must report what [latest_visible] reports:
   the same version, the same deleter, and the skipped writers in the same
   (chain) order. *)
let check_walk_parity c snap head =
  let skipped = ref [] in
  let found =
    Visibility.find_visible c snap ~skipped:(fun w -> skipped := w :: !skipped) head
  in
  let found = if Heap.is_absent found then None else Some found in
  let skipped = List.rev !skipped in
  match (Visibility.latest_visible c snap head, found) with
  | (Some (t, deleter), conflicts), Some t' ->
      Alcotest.(check bool) "walk: same version" true (t == t');
      let d = Visibility.deleter c snap t' in
      Alcotest.(check (option int)) "walk: same deleter" deleter
        (if d = Heap.invalid_xid then None else Some d);
      Alcotest.(check (list int)) "walk: same skipped writers" conflicts skipped
  | (None, conflicts), None ->
      Alcotest.(check (list int)) "walk: same skipped writers" conflicts skipped
  | (Some _, _), None | (None, _), Some _ -> Alcotest.fail "walk disagrees on visibility"

let test_latest_visible_walk () =
  let c, heap, before, _, snap = fixture () in
  (* Chain: v1 (visible) <- v2 (concurrent writer w). *)
  let v1 = Heap.insert_version heap ~key:(Value.Int 1) ~row:(row 1) ~xmin:before in
  let w = Clog.new_xid c in
  Heap.set_xmax v1 w;
  let v2 = Heap.insert_version heap ~key:(Value.Int 1) ~row:(row 1) ~xmin:w in
  ignore (Clog.commit c w);
  check_walk_parity c snap v2;
  (match Visibility.latest_visible c snap v2 with
  | Some (t, deleter), conflicts ->
      Alcotest.(check bool) "found the old version" true (t == v1);
      Alcotest.(check bool) "deleter conflict" true (deleter = Some w);
      Alcotest.(check (list int)) "creator conflict collected on the way" [ w ] conflicts
  | None, _ -> Alcotest.fail "no visible version");
  (* Two more versions on top: v3 by an aborted writer (skipped without a
     conflict), v4 by an in-progress one.  The walk reports v4's writer
     before v2's. *)
  let a = Clog.new_xid c in
  Heap.set_xmax v2 a;
  let v3 = Heap.insert_version heap ~key:(Value.Int 1) ~row:(row 1) ~xmin:a in
  Clog.abort c a;
  let w2 = Clog.new_xid c in
  Heap.set_xmax v3 w2;
  let v4 = Heap.insert_version heap ~key:(Value.Int 1) ~row:(row 1) ~xmin:w2 in
  check_walk_parity c snap v4;
  match Visibility.latest_visible c snap v4 with
  | Some (t, _), conflicts ->
      Alcotest.(check bool) "still the old version" true (t == v1);
      Alcotest.(check (list int)) "writers in chain order" [ w2; w ] conflicts
  | None, _ -> Alcotest.fail "no visible version"

let test_latest_visible_none () =
  let c, heap, _, _, snap = fixture () in
  let w = Clog.new_xid c in
  let v = Heap.insert_version heap ~key:(Value.Int 1) ~row:(row 1) ~xmin:w in
  ignore (Clog.commit c w);
  check_walk_parity c snap v;
  match Visibility.latest_visible c snap v with
  | None, conflicts -> Alcotest.(check (list int)) "conflict out" [ w ] conflicts
  | Some _, _ -> Alcotest.fail "should be invisible"

let () =
  Alcotest.run "mvcc"
    [
      ( "clog",
        [
          Alcotest.test_case "lifecycle" `Quick test_clog_lifecycle;
          Alcotest.test_case "cseq monotone" `Quick test_clog_cseq_monotone;
          Alcotest.test_case "double resolution" `Quick test_clog_double_resolution;
          Alcotest.test_case "unknown xid" `Quick test_clog_unknown;
        ] );
      ("snapshot", [ Alcotest.test_case "sees" `Quick test_snapshot_sees ]);
      ( "visibility",
        [
          Alcotest.test_case "plain visible" `Quick test_visible_plain;
          Alcotest.test_case "future creator" `Quick test_invisible_future_creator;
          Alcotest.test_case "aborted creator" `Quick test_invisible_aborted_creator;
          Alcotest.test_case "concurrent deleter" `Quick test_visible_with_concurrent_deleter;
          Alcotest.test_case "deleted before snapshot" `Quick test_deleted_before_snapshot;
          Alcotest.test_case "own writes" `Quick test_own_writes;
          Alcotest.test_case "aborted deleter" `Quick test_aborted_deleter_ignored;
          Alcotest.test_case "latest_visible walk" `Quick test_latest_visible_walk;
          Alcotest.test_case "latest_visible none" `Quick test_latest_visible_none;
        ] );
    ]
