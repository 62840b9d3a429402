(* The SSI core, exercised directly against the manager API: conflict
   flagging, dangerous-structure detection with the commit-ordering and
   read-only optimizations, safe-retry victim selection, safe snapshots,
   cleanup and summarization, crash recovery (§3–§6, §7.1). *)

open Ssi_storage
module Mvcc = Ssi_mvcc.Mvcc
module Clog = Mvcc.Clog
module Ssi = Ssi_core.Ssi
module Certifier = Ssi_core.Certifier
module Predlock = Ssi_core.Predlock

let vi i = Value.Int i

type env = { clog : Clog.t; mgr : Ssi.t }

let make_env ?(config = Certifier.default_config) () =
  let clog = Clog.create () in
  { clog; mgr = Ssi.create ~config clog }

let begin_txn ?(ro = false) env =
  let xid = Clog.new_xid env.clog in
  let node =
    Ssi.register env.mgr ~xid ~snap_cseq:(Clog.next_cseq env.clog) ~read_only:ro
      ~deferrable:false
  in
  (xid, node)

let commit env node =
  Ssi.precommit env.mgr node;
  let cseq = Clog.commit env.clog (Ssi.xid_of node) in
  Ssi.committed env.mgr node ~commit_cseq:cseq

let abort env node =
  Clog.abort env.clog (Ssi.xid_of node);
  Ssi.aborted env.mgr node

(* The engine's side of the lock table, on tuple [key] of relation "t"
   (page 0): a tracked read takes a SIREAD lock; a write hands the lock's
   holders to the certifier. *)
let read_tuple env node key =
  Predlock.lock_tuple (Ssi.locks env.mgr) ~owner:(Ssi.xid_of node) ~rel:"t" ~key:(vi key)
    ~page:0

let write_tuple env node key =
  Ssi.conflict_in env.mgr node
    (Predlock.readers_for_write (Ssi.locks env.mgr) ~rel:"t" ~key:(vi key) ~page:0)

(* Make [reader] --rw--> [writer] through the lock-table path: the reader
   reads a tuple, the writer writes it. *)
let read_then_write env (_, reader) (_, writer) key =
  read_tuple env reader key;
  write_tuple env writer key

let expect_failure name f =
  match f () with
  | () -> Alcotest.failf "%s: expected Serialization_failure" name
  | exception Certifier.Serialization_failure _ -> ()

(* ---- Basic dangerous structures --------------------------------------------- *)

let test_single_edge_harmless () =
  (* One rw-antidependency alone never aborts (§3.3). *)
  let env = make_env () in
  let t1 = begin_txn env and t2 = begin_txn env in
  read_then_write env t1 t2 1;
  commit env (snd t2);
  commit env (snd t1)

let test_write_skew_aborts () =
  (* T1 --rw--> T2 and T2 --rw--> T1: whoever commits first dooms the
     other. *)
  let env = make_env () in
  let t1 = begin_txn env and t2 = begin_txn env in
  read_then_write env t1 t2 1;
  read_then_write env t2 t1 2;
  commit env (snd t1);
  Alcotest.(check bool) "t2 doomed" true (Ssi.is_doomed (snd t2));
  expect_failure "t2 commit" (fun () -> commit env (snd t2))

let test_pivot_aborted_preferentially () =
  (* T1 --rw--> T2 --rw--> T3; T3 commits first.  Safe retry (§5.4) says
     abort the pivot T2, not T1. *)
  let env = make_env () in
  let t1 = begin_txn env and t2 = begin_txn env and t3 = begin_txn env in
  read_then_write env t2 t3 1;
  commit env (snd t3);
  (* The structure completes when t2 writes what t1 read; t2 is the acting
     transaction AND the preferred victim, so the failure is raised in it
     immediately. *)
  read_tuple env (snd t1) 2;
  expect_failure "pivot is the victim" (fun () ->
      write_tuple env (snd t2) 2);
  Alcotest.(check bool) "t1 not doomed" false (Ssi.is_doomed (snd t1));
  abort env (snd t2);
  commit env (snd t1)

let test_commit_ordering_optimization () =
  (* The full dangerous structure exists, but T3 is NOT the first to
     commit: no abort is necessary (§3.3.1). *)
  let env = make_env () in
  let t1 = begin_txn env and t2 = begin_txn env and t3 = begin_txn env in
  read_then_write env t1 t2 1;
  read_then_write env t2 t3 2;
  (* Commit order: T1, T2, T3 — matches the apparent serial order. *)
  commit env (snd t1);
  commit env (snd t2);
  commit env (snd t3)

let test_t3_precommit_dooms_pivot () =
  (* Structure complete while all active; T3 tries to commit first: its
     pre-commit check dooms the pivot (§5.4 rule 1). *)
  let env = make_env () in
  let t1 = begin_txn env and t2 = begin_txn env and t3 = begin_txn env in
  read_then_write env t1 t2 1;
  read_then_write env t2 t3 2;
  commit env (snd t3);
  Alcotest.(check bool) "pivot doomed by T3's commit" true (Ssi.is_doomed (snd t2));
  commit env (snd t1)

let test_doomed_checked_on_ops () =
  let env = make_env () in
  let t1 = begin_txn env and t2 = begin_txn env and t3 = begin_txn env in
  read_then_write env t1 t2 1;
  read_then_write env t2 t3 2;
  commit env (snd t3);
  expect_failure "doomed op" (fun () -> Ssi.check_doomed (snd t2));
  abort env (snd t2);
  commit env (snd t1)

let test_abort_clears_conflicts () =
  (* If the writer of the only out-edge aborts, the structure dissolves. *)
  let env = make_env () in
  let t1 = begin_txn env and t2 = begin_txn env and t3 = begin_txn env in
  read_then_write env t2 t3 1;
  abort env (snd t3);
  read_then_write env t1 t2 2;
  commit env (snd t2);
  commit env (snd t1)

let test_mvcc_conflict_out_path () =
  (* Writer committed before the reader even looked: the engine reports it
     through [conflict_out] instead of the lock table. *)
  let env = make_env () in
  let t2 = begin_txn env and t3 = begin_txn env in
  read_then_write env t2 t3 1;
  commit env (snd t3);
  let t1 = begin_txn env in
  (* t1 reads data whose newer version t2 wrote — wait, for the pivot test
     we need t1 --rw--> t2: t1 read around t2's write. *)
  write_tuple env (snd t2) 5;
  Ssi.conflict_out env.mgr (snd t1) ~writer:(fst t2);
  Alcotest.(check bool) "pivot t2 doomed" true (Ssi.is_doomed (snd t2));
  commit env (snd t1)

let test_conflict_out_to_non_serializable_ignored () =
  let env = make_env () in
  let t1 = begin_txn env in
  let plain = Clog.new_xid env.clog in
  ignore (Clog.commit env.clog plain);
  Ssi.conflict_out env.mgr (snd t1) ~writer:plain;
  commit env (snd t1)

(* ---- Read-only optimizations (§4) --------------------------------------------- *)

let test_theorem3_rule () =
  (* Dangerous structure with T1 read-only, but T3 committed AFTER T1's
     snapshot: a false positive that the snapshot-ordering rule avoids. *)
  let env = make_env () in
  let t1 = begin_txn ~ro:true env in
  let t2 = begin_txn env and t3 = begin_txn env in
  read_then_write env t2 t3 1;
  commit env (snd t3) (* commits after t1's snapshot *);
  read_then_write env t1 t2 2;
  Alcotest.(check bool) "no doom: Theorem 3 false positive avoided" false
    (Ssi.is_doomed (snd t2));
  commit env (snd t2);
  commit env (snd t1)

let test_theorem3_disabled () =
  (* The same history without the read-only optimization aborts. *)
  let env = make_env ~config:{ Certifier.default_config with read_only_opt = false } () in
  let t1 = begin_txn ~ro:true env in
  let t2 = begin_txn env and t3 = begin_txn env in
  read_then_write env t2 t3 1;
  commit env (snd t3);
  read_tuple env (snd t1) 2;
  expect_failure "pivot fails without the optimization" (fun () ->
      write_tuple env (snd t2) 2)

let test_theorem3_t3_before_snapshot_aborts () =
  (* If T3 committed before the read-only T1's snapshot, the structure is
     truly dangerous and must be resolved. *)
  let env = make_env () in
  let t2 = begin_txn env and t3 = begin_txn env in
  read_then_write env t2 t3 1;
  commit env (snd t3);
  let t1 = begin_txn ~ro:true env in
  read_tuple env (snd t1) 2;
  expect_failure "truly dangerous: resolved against the pivot" (fun () ->
      write_tuple env (snd t2) 2)

let test_safe_snapshot_immediate () =
  (* No concurrent read/write transaction: immediately safe (§4.2). *)
  let env = make_env () in
  let ro = begin_txn ~ro:true env in
  Alcotest.(check bool) "determined" true (Ssi.safety_determined (snd ro));
  Alcotest.(check bool) "safe" true (Ssi.is_safe (snd ro));
  commit env (snd ro)

let test_safe_snapshot_after_concurrents () =
  let env = make_env () in
  let rw = begin_txn env in
  let ro = begin_txn ~ro:true env in
  Alcotest.(check bool) "not yet determined" false (Ssi.safety_determined (snd ro));
  (* The RO transaction tracks reads meanwhile. *)
  read_tuple env (snd ro) 1;
  Alcotest.(check bool) "tracking" true (Predlock.holds (Ssi.locks env.mgr)
    ~owner:(fst ro) (Predlock.Tuple ("t", vi 1)));
  commit env (snd rw);
  Alcotest.(check bool) "safe once concurrents done" true (Ssi.is_safe (snd ro));
  Alcotest.(check bool) "locks dropped" false
    (Predlock.holds (Ssi.locks env.mgr) ~owner:(fst ro) (Predlock.Tuple ("t", vi 1)));
  commit env (snd ro)

let test_unsafe_snapshot () =
  (* A concurrent read/write transaction commits with a conflict out to a
     transaction that committed before the RO snapshot: unsafe (§4.2). *)
  let env = make_env () in
  let t3 = begin_txn env in
  let t2 = begin_txn env in
  read_tuple env (snd t2) 1;
  write_tuple env (snd t3) 1;
  Ssi.note_write (snd t3);
  commit env (snd t3);
  (* t2 now has a conflict out to committed t3. *)
  let ro = begin_txn ~ro:true env in
  Ssi.note_write (snd t2);
  commit env (snd t2);
  Alcotest.(check bool) "determined" true (Ssi.safety_determined (snd ro));
  Alcotest.(check bool) "unsafe" true (Ssi.is_unsafe (snd ro));
  Alcotest.(check bool) "not safe" false (Ssi.is_safe (snd ro));
  commit env (snd ro)

let test_ro_commit_without_writes_counts_as_ro () =
  (* An undeclared transaction that commits without writing is read-only
     for Theorem 3 purposes. *)
  let env = make_env () in
  let t1 = begin_txn env (* not declared RO *) in
  let t2 = begin_txn env and t3 = begin_txn env in
  read_then_write env t2 t3 1;
  commit env (snd t3);
  (* t1 is still active and could write: the structure is dangerous. *)
  read_tuple env (snd t1) 2;
  expect_failure "dangerous while t1 might write" (fun () ->
      write_tuple env (snd t2) 2)

(* ---- Memory management (§6) ----------------------------------------------------- *)

let test_cleanup_on_no_concurrent () =
  let env = make_env () in
  let t1 = begin_txn env in
  read_tuple env (snd t1) 1;
  commit env (snd t1);
  (* No active transactions: everything can be dropped. *)
  Alcotest.(check int) "no retained committed" 0 (Ssi.committed_retained env.mgr);
  Alcotest.(check int) "no locks" 0 (Predlock.total_lock_count (Ssi.locks env.mgr))

let test_committed_retained_while_concurrent () =
  let env = make_env () in
  let holdopen = begin_txn env in
  let t1 = begin_txn env in
  read_tuple env (snd t1) 1;
  commit env (snd t1);
  Alcotest.(check int) "retained while concurrent active" 1 (Ssi.committed_retained env.mgr);
  commit env (snd holdopen);
  Alcotest.(check int) "released afterwards" 0 (Ssi.committed_retained env.mgr)

let test_summarization_bounds_memory () =
  let env = make_env ~config:{ Certifier.default_config with max_committed_sxacts = 2 } () in
  let holdopen = begin_txn env in
  for i = 1 to 10 do
    let t = begin_txn env in
    read_tuple env (snd t) i;
    Ssi.note_write (snd t);
    commit env (snd t)
  done;
  Alcotest.(check bool) "bounded" true (Ssi.committed_retained env.mgr <= 2);
  Alcotest.(check bool) "summarized counted" true
    (Ssi_obs.Obs.get_counter (Ssi.obs env.mgr) "ssi.summarized" > 0);
  commit env (snd holdopen)

let test_summarized_conflict_in_detected () =
  (* A committed reader is summarized; a new writer touching what it read
     must still see the conflict (via the dummy owner) and, with a
     committed out-edge, abort. *)
  let env = make_env ~config:{ Certifier.default_config with max_committed_sxacts = 0 } () in
  let holdopen = begin_txn env in
  (* t2 reads key 1 and gains an out-edge to t3, which commits first. *)
  let t2 = begin_txn env and t3 = begin_txn env in
  read_tuple env (snd t2) 1;
  read_tuple env (snd t2) 2;
  write_tuple env (snd t3) 2;
  commit env (snd t3);
  Ssi.note_write (snd t2);
  commit env (snd t2) (* summarized immediately: max_committed_sxacts = 0 *);
  Alcotest.(check int) "nothing retained" 0 (Ssi.committed_retained env.mgr);
  (* A new concurrent writer now overwrites what t2 read: structure
     t2(summarized) --rw--> w --rw--> ... is not dangerous, but the
     reverse check — w as pivot with summarized committed reader — must
     fire if w also has a committed out-edge earlier than the reader. *)
  let w = begin_txn env in
  expect_failure "write into summarized readset with dangerous structure" (fun () ->
      (* w gains an out-conflict to t2 via oldserxid (reading around t2's
         write), then writes what t2 read. *)
      Ssi.conflict_out env.mgr (snd w) ~writer:(fst t2);
      write_tuple env (snd w) 1;
      Ssi.precommit env.mgr (snd w));
  abort env (snd w);
  commit env (snd holdopen)

let test_oldserxid_cleanup () =
  let env = make_env ~config:{ Certifier.default_config with max_committed_sxacts = 0 } () in
  let holdopen = begin_txn env in
  for i = 1 to 5 do
    let t = begin_txn env in
    read_tuple env (snd t) i;
    Ssi.note_write (snd t);
    commit env (snd t)
  done;
  Alcotest.(check bool) "oldserxid populated" true (Ssi.oldserxid_size env.mgr > 0);
  commit env (snd holdopen);
  let t = begin_txn env in
  commit env (snd t);
  Alcotest.(check int) "oldserxid cleaned" 0 (Ssi.oldserxid_size env.mgr)

(* ---- Two-phase commit (§7.1) ------------------------------------------------------ *)

let test_prepared_never_victim () =
  (* T_active --rw--> T_prepared --rw--> T_committed: the pivot is
     prepared, so T_active must give way. *)
  let env = make_env () in
  let tp = begin_txn env and tc = begin_txn env in
  read_then_write env (fst tp, snd tp) tc 1;
  commit env (snd tc);
  Ssi.prepare env.mgr (snd tp);
  let ta = begin_txn env in
  (* ta reads around a write of the prepared pivot (MVCC conflict-out):
     the only abortable party is ta itself. *)
  expect_failure "active aborted instead of prepared pivot" (fun () ->
      Ssi.conflict_out env.mgr (snd ta) ~writer:(fst tp));
  abort env (snd ta);
  (* The prepared transaction can still commit. *)
  let cseq = Clog.commit env.clog (fst tp) in
  Ssi.committed env.mgr (snd tp) ~commit_cseq:cseq

let test_prepare_runs_precommit () =
  let env = make_env () in
  let t1 = begin_txn env and t2 = begin_txn env and t3 = begin_txn env in
  read_then_write env t1 t2 1;
  read_then_write env t2 t3 2;
  commit env (snd t3);
  (* t2 is doomed; preparing it must fail. *)
  expect_failure "prepare doomed pivot" (fun () -> Ssi.prepare env.mgr (snd t2))

let test_recover_conservative () =
  let env = make_env () in
  let tp = begin_txn env in
  read_tuple env (snd tp) 1;
  Ssi.note_write (snd tp);
  Ssi.prepare env.mgr (snd tp);
  let t_active = begin_txn env in
  Ssi.recover env.mgr;
  Alcotest.(check int) "only the prepared transaction survives" 1 (Ssi.active_count env.mgr);
  ignore t_active;
  (* After recovery the prepared transaction's SIREAD locks survive and its
     conflicts are conservative: writing what it read fails immediately
     (assumed conflict out). *)
  let w = begin_txn env in
  (* Writing what the recovered transaction read records the conflict; the
     conservative "assume conflicts in and out" flags then fail the writer
     at commit (it would be the first committer of an assumed dangerous
     structure with an unabortable pivot). *)
  write_tuple env (snd w) 1;
  expect_failure "conservative conflict at commit" (fun () ->
      Ssi.precommit env.mgr (snd w))

let test_graph_dump_and_dot () =
  let env = make_env () in
  let t1 = begin_txn env and t2 = begin_txn env in
  read_then_write env t1 t2 1;
  let infos = Ssi.dump_graph env.mgr in
  Alcotest.(check int) "two nodes" 2 (List.length infos);
  Alcotest.(check bool) "edge recorded" true
    (List.exists (fun i -> i.Certifier.info_out = [ fst t2 ]) infos);
  let dot = Certifier.graph_dot Certifier.SSI infos in
  Alcotest.(check bool) "dot has edge" true
    (let needle = Printf.sprintf "t%d -> t%d" (fst t1) (fst t2) in
     let rec contains i =
       i + String.length needle <= String.length dot
       && (String.sub dot i (String.length needle) = needle || contains (i + 1))
     in
     contains 0);
  commit env (snd t2);
  commit env (snd t1)

let () =
  Alcotest.run "ssi-core"
    [
      ( "dangerous structures",
        [
          Alcotest.test_case "single edge harmless" `Quick test_single_edge_harmless;
          Alcotest.test_case "write skew aborts" `Quick test_write_skew_aborts;
          Alcotest.test_case "pivot preferred victim" `Quick test_pivot_aborted_preferentially;
          Alcotest.test_case "commit ordering optimization" `Quick
            test_commit_ordering_optimization;
          Alcotest.test_case "T3 precommit dooms pivot" `Quick test_t3_precommit_dooms_pivot;
          Alcotest.test_case "doomed checked on ops" `Quick test_doomed_checked_on_ops;
          Alcotest.test_case "abort clears conflicts" `Quick test_abort_clears_conflicts;
          Alcotest.test_case "mvcc conflict-out path" `Quick test_mvcc_conflict_out_path;
          Alcotest.test_case "non-serializable writers ignored" `Quick
            test_conflict_out_to_non_serializable_ignored;
          Alcotest.test_case "graph dump and dot" `Quick test_graph_dump_and_dot;
        ] );
      ( "read-only optimizations",
        [
          Alcotest.test_case "Theorem 3 rule" `Quick test_theorem3_rule;
          Alcotest.test_case "rule disabled" `Quick test_theorem3_disabled;
          Alcotest.test_case "T3 before snapshot aborts" `Quick
            test_theorem3_t3_before_snapshot_aborts;
          Alcotest.test_case "immediately safe snapshot" `Quick test_safe_snapshot_immediate;
          Alcotest.test_case "safe after concurrents" `Quick test_safe_snapshot_after_concurrents;
          Alcotest.test_case "unsafe snapshot" `Quick test_unsafe_snapshot;
          Alcotest.test_case "undeclared RO treated as RW while active" `Quick
            test_ro_commit_without_writes_counts_as_ro;
        ] );
      ( "memory",
        [
          Alcotest.test_case "cleanup when idle" `Quick test_cleanup_on_no_concurrent;
          Alcotest.test_case "retained while concurrent" `Quick
            test_committed_retained_while_concurrent;
          Alcotest.test_case "summarization bounds" `Quick test_summarization_bounds_memory;
          Alcotest.test_case "summarized conflict-in" `Quick test_summarized_conflict_in_detected;
          Alcotest.test_case "oldserxid cleanup" `Quick test_oldserxid_cleanup;
        ] );
      ( "two-phase commit",
        [
          Alcotest.test_case "prepared never victim" `Quick test_prepared_never_victim;
          Alcotest.test_case "prepare runs precommit" `Quick test_prepare_runs_precommit;
          Alcotest.test_case "recovery is conservative" `Quick test_recover_conservative;
        ] );
    ]
