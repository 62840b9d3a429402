(* Hot-path optimization parity and complexity tests.

   The O(1) rewrites of the conflict-tracking and lock-acquisition paths
   (intrusive edge lists in the SSI manager, the per-owner coverage cache
   and page-batched SIREAD acquisition in the lock manager, incremental
   undo/WAL length accounting in the engine) must be pure performance
   changes: every observable behavior — locks held, readers reported,
   commits, victims, serialization-graph verdicts — has to match the
   straightforward implementations exactly, on the same seeds, byte for
   byte.  These tests pin that down:

   - a QCheck property driving a batched and a sequential lock manager
     through identical random scripts (promotions, summarization, cleanup
     included) and demanding identical lock tables at every probe;
   - workload-driver replays (sibench, TPC-C) whose full result records —
     commits, victims by reason, latency percentiles — must be identical
     across runs on the virtual clock;
   - a budgeted deep-savepoint test that fails if rollback cost returns
     to quadratic in the undo-log length;
   - allocation budgets for the tracked index scan, the write path
     (WAL append, the write-side SIREAD lookup, the own-lock release, a
     tracked update), the B+-tree point walks, telemetry (spans,
     histogram observations, an untracked read), the simulator kernel
     (a switch, a process start, a wait and wake, an untraced message)
     and a transaction's fixed path (a snapshot safe at BEGIN, an empty
     transaction, the retry loop, a span attribute, an [Rng] draw),
     each a little above what the code allocates. *)

open Ssi_storage
open Ssi_workload
module E = Ssi_engine.Engine
module P = Ssi_core.Predlock

let vi i = Value.Int i

(* ---- Batched vs sequential SIREAD acquisition ------------------------------ *)

(* Tiny promotion thresholds so random scripts cross every granularity
   boundary (tuple->page->relation) within a handful of operations. *)
let small_config =
  {
    P.max_tuple_locks_per_page = 2;
    max_page_locks_per_relation = 2;
    max_page_locks_per_index = 2;
  }

(* Scripts address transactions by slot; the interpreter maps slots to
   fresh xids and retires a slot's xid on release/summarize, matching real
   usage where an xid never returns after its transaction ends. *)
type pop =
  | Batch of int * string * int * int list * int * int
      (** slot, rel, page, keys, and the window [pos, len] of them batched *)
  | Lock_page of int * string * int
  | Lock_index_key of int * string * int
  | Probe of string * int * int  (** rel, key, page *)
  | Release of int
  | Summarize of int
  | Cleanup

let print_pop = function
  | Batch (o, rel, page, keys, pos, len) ->
      Printf.sprintf "Batch(%d,%s,%d,[%s],pos=%d,len=%d)" o rel page
        (String.concat ";" (List.map string_of_int keys))
        pos len
  | Lock_page (o, rel, page) -> Printf.sprintf "Page(%d,%s,%d)" o rel page
  | Lock_index_key (o, idx, k) -> Printf.sprintf "IdxKey(%d,%s,%d)" o idx k
  | Probe (rel, k, page) -> Printf.sprintf "Probe(%s,%d,%d)" rel k page
  | Release o -> Printf.sprintf "Release(%d)" o
  | Summarize o -> Printf.sprintf "Summarize(%d)" o
  | Cleanup -> "Cleanup"

let slots = 4

let pop_gen =
  QCheck.Gen.(
    let slot = int_range 0 (slots - 1) in
    let rel = oneofl [ "r"; "s" ] in
    let page = int_range 0 3 in
    let key = int_range 0 9 in
    frequency
      [
        ( 6,
          (* A window of a longer key array, as the engine hands out one
             page's reads from its scan buffer; every third one the whole
             array, as [lock_tuples_page] does. *)
          list_size (int_range 1 10) key >>= fun ks ->
          let n = List.length ks in
          let part = int_range 0 (n - 1) >>= fun pos -> pair (return pos) (int_range 0 (n - pos)) in
          frequency [ (1, return (0, n)); (2, part) ] >>= fun (pos, len) ->
          map2 (fun (o, r) p -> Batch (o, r, p, ks, pos, len)) (pair slot rel) page );
        (2, map (fun (o, (r, p)) -> Lock_page (o, r, p)) (pair slot (pair rel page)));
        (2, map (fun (o, k) -> Lock_index_key (o, "i", k)) (pair slot key));
        (3, map (fun (r, (k, p)) -> Probe (r, k, p)) (pair rel (pair key page)));
        (1, map (fun o -> Release o) slot);
        (1, map (fun o -> Summarize o) slot);
        (1, return Cleanup);
      ])

let pops_arb =
  QCheck.make
    ~print:QCheck.Print.(list print_pop)
    QCheck.Gen.(list_size (int_range 1 60) pop_gen)

let normalized_dump t =
  List.sort compare
    (List.map (fun (target, xids, oc) -> (target, List.sort compare xids, oc)) (P.dump t))

let normalized_readers (r : P.readers) = (List.sort compare r.P.xids, r.P.old_committed)

(* Run one script against two lock managers: [a] takes every tuple read
   through the one-at-a-time path, [b] through {!P.lock_tuples_slice} on
   the batch's window (through {!P.lock_tuples_page} when the window is
   the whole key list).  The batch path grants a page lock directly when
   the window's fresh keys would cross the promotion threshold, so the
   scripts' duplicate keys and keys held from another page matter.
   Everything else (page/index locks, release, summarization, cleanup) is
   applied identically.  The lock tables must agree at every probe and at
   the end — including the promotion counter, so the batch path is not
   allowed to promote differently. *)
let prop_batch_equals_sequential =
  QCheck.Test.make ~name:"lock_tuples_page ≡ sequential lock_tuple" ~count:300 ~long_factor:50
    pops_arb
    (fun pops ->
      let a = P.create ~config:small_config () in
      let b = P.create ~config:small_config () in
      let next_xid = ref (slots + 1) in
      let owners = Array.init slots (fun i -> i + 1) in
      let cseq = ref 0 in
      let retire slot =
        owners.(slot) <- !next_xid;
        incr next_xid
      in
      let ok = ref true in
      let check_probe ~rel ~key ~page =
        let ra = P.readers_for_write a ~rel ~key ~page in
        let rb = P.readers_for_write b ~rel ~key ~page in
        if normalized_readers ra <> normalized_readers rb then ok := false
      in
      List.iter
        (fun op ->
          match op with
          | Batch (slot, rel, page, keys, pos, len) ->
              let owner = owners.(slot) in
              let keys = Array.of_list (List.map vi keys) in
              for i = pos to pos + len - 1 do
                P.lock_tuple a ~owner ~rel ~key:keys.(i) ~page
              done;
              if pos = 0 && len = Array.length keys then
                P.lock_tuples_page b ~owner ~rel ~page ~keys:(Array.to_list keys)
              else P.lock_tuples_slice b ~owner ~rel ~page keys ~pos ~len
          | Lock_page (slot, rel, page) ->
              P.lock_page a ~owner:owners.(slot) ~rel ~page;
              P.lock_page b ~owner:owners.(slot) ~rel ~page
          | Lock_index_key (slot, index, k) ->
              P.lock_index_key a ~owner:owners.(slot) ~index ~key:(vi k);
              P.lock_index_key b ~owner:owners.(slot) ~index ~key:(vi k)
          | Probe (rel, k, page) -> check_probe ~rel ~key:(vi k) ~page
          | Release slot ->
              P.release_owner a owners.(slot);
              P.release_owner b owners.(slot);
              retire slot
          | Summarize slot ->
              incr cseq;
              P.summarize_owner a owners.(slot) ~cseq:!cseq;
              P.summarize_owner b owners.(slot) ~cseq:!cseq;
              retire slot
          | Cleanup ->
              P.cleanup_old_committed a ~before:(!cseq + 1);
              P.cleanup_old_committed b ~before:(!cseq + 1))
        pops;
      (* Exhaustive final probe over the whole key space. *)
      List.iter
        (fun rel ->
          for k = 0 to 9 do
            for page = 0 to 3 do
              check_probe ~rel ~key:(vi k) ~page
            done
          done)
        [ "r"; "s" ];
      if normalized_dump a <> normalized_dump b then
        QCheck.Test.fail_report "lock tables diverged";
      if P.promotions a <> P.promotions b then
        QCheck.Test.fail_report "promotion counts diverged";
      if P.total_lock_count a <> P.total_lock_count b then
        QCheck.Test.fail_report "lock counts diverged";
      if not !ok then QCheck.Test.fail_report "readers_for_write diverged at a probe";
      true)

(* ---- Scan buffer grouping ---------------------------------------------------- *)

module Scan_buffer = Ssi_engine.Scan_buffer

(* The order batched SIREAD acquisition must keep: pages in the order they
   were first read, each page's keys in the order they were read. *)
let grouped_naively reads =
  let order =
    List.fold_left (fun acc (_, p) -> if List.mem p acc then acc else acc @ [ p ]) [] reads
  in
  List.map (fun p -> (p, List.filter_map (fun (k, q) -> if q = p then Some k else None) reads)) order

let flushed buf reads =
  List.iter (fun (k, page) -> Scan_buffer.add_read buf ~key:(vi k) ~page) reads;
  let out = ref [] in
  Scan_buffer.flush_reads buf (fun ~page keys ~pos ~len ->
      out := (page, List.init len (fun i -> Value.as_int keys.(pos + i))) :: !out);
  List.rev !out

(* Pages from a narrow and a sparse range, so scans revisit pages out of
   order and grow the buffer's page table past its initial size.  One
   buffer serves every scan of a script, as the engine's does. *)
let prop_scan_buffer_grouping =
  QCheck.Test.make ~name:"Scan_buffer.flush_reads groups by first-read page" ~count:300
    QCheck.(
      list_of_size Gen.(int_range 1 4)
        (list_of_size Gen.(int_range 0 120)
           (pair small_nat (oneof [ int_range 0 5; map (fun p -> p * 1009) (int_range 0 60) ]))))
    (fun scans ->
      let buf = Scan_buffer.create () in
      List.for_all (fun reads -> flushed buf reads = grouped_naively reads) scans)

(* ---- Workload-driver replay: full result records --------------------------- *)

let replay_bench mode =
  {
    Driver.default_bench with
    Driver.mode;
    workers = 4;
    duration = 0.3;
    warmup = 0.05;
    cpu_cores = 2;
  }

(* [compare] (not [=]) so a nan latency field — no commits in window —
   still counts as equal to itself. *)
let check_replay name run =
  let r1 : Driver.result = run () in
  let r2 : Driver.result = run () in
  Alcotest.(check bool)
    (name ^ ": identical result records across replays")
    true
    (compare r1 r2 = 0);
  Alcotest.(check bool) (name ^ ": ran transactions") true (r1.Driver.committed > 0)

let test_sibench_replay () =
  List.iter
    (fun mode ->
      check_replay
        ("sibench/" ^ Driver.mode_name mode)
        (fun () ->
          Driver.run ~setup:(Sibench.setup ~rows:40)
            ~specs:(Sibench.specs ~rows:40 ~chunk:10 ())
            (replay_bench mode)))
    [ Driver.SSI; Driver.SSI_no_ro_opt ]

let test_tpcc_replay () =
  check_replay "tpcc/SSI" (fun () ->
      Driver.run
        ~setup:(Tpcc.setup ~warehouses:2)
        ~specs:(Tpcc.specs ~warehouses:2 ~ro_fraction:0.3)
        (replay_bench Driver.SSI))

(* ---- Deep savepoint rollback stays linear ---------------------------------- *)

(* 50 savepoints of 1,000 inserts each, rolled back one level at a time
   from the deepest: 50,000 undo entries total.  A rollback that walked
   the whole undo list per popped entry (say, to recompute its length)
   would take ~1.25e9 list steps for this shape — minutes of CPU.  Popping
   until the savepoint's saved list head is reached takes ~5e4 steps.  The
   generous budget only fails on a complexity regression, not on a slow
   machine. *)
let test_deep_savepoint_rollback_linear () =
  let levels = 50 and per_level = 1_000 in
  let db = E.create () in
  E.create_table db ~name:"big" ~cols:[ "k"; "v" ] ~key:"k";
  let sp i = Printf.sprintf "sp%d" i in
  let elapsed = ref 0. in
  E.with_txn ~isolation:E.Read_committed db (fun t ->
      for i = 0 to levels - 1 do
        E.savepoint t (sp i);
        for j = 0 to per_level - 1 do
          E.insert t ~table:"big" [| vi ((i * per_level) + j); vi i |]
        done
      done;
      let t0 = Sys.time () in
      for i = levels - 1 downto 0 do
        E.rollback_to_savepoint t (sp i)
      done;
      elapsed := Sys.time () -. t0;
      Alcotest.(check bool)
        "all inserts undone" true
        (E.read t ~table:"big" ~key:(vi 0) = None
        && E.read t ~table:"big" ~key:(vi ((levels * per_level) - 1)) = None);
      (* The transaction is still usable after unwinding everything. *)
      E.insert t ~table:"big" [| vi 0; vi 42 |]);
  E.with_txn db (fun t ->
      match E.read t ~table:"big" ~key:(vi 0) with
      | Some row -> Alcotest.(check int) "post-rollback insert committed" 42 (Value.as_int row.(1))
      | None -> Alcotest.fail "post-rollback insert lost");
  Alcotest.(check bool)
    (Printf.sprintf "deep rollback linear (%.2fs for %d entries)" !elapsed
       (levels * per_level))
    true (!elapsed < 5.0)

(* ---- A tracked index scan allocates only its result --------------------------- *)

(* A serializable (SIREAD-tracked) index scan allocates the rows it
   returns — each row's copy and the list cell that carries it — plus a
   constant per call, most of it the B+-tree walk's cursor (the
   operation's span allocates nothing).
   Its per-row bookkeeping (the version lookup, the visibility walk, the
   page-batched SIREAD acquisition and the result buffer) and its
   callbacks reuse the engine's scan state.  The scan is measured warm:
   the same 50-row range again in the same transaction, whose locks are
   held, so lock-table growth is not counted.  [slack] is the per-call
   constant (35 words) with headroom short of 50 words, so one word more
   per row exceeds it.  With [deleted], a committed transaction deleted
   the range first: the scan returns nothing and reports each deletion it
   saw to the certifier through a chain walk that allocates nothing. *)
let test_tracked_scan_allocation ~deleted () =
  let nrows = 50 and width = 2 and slack = 60. in
  let db = E.create () in
  E.create_table db ~name:"t" ~cols:[ "k"; "v" ] ~key:"k";
  E.with_txn ~isolation:E.Read_committed db (fun t ->
      for k = 0 to 999 do
        E.insert t ~table:"t" [| vi k; vi (-k) |]
      done);
  if deleted then
    E.with_txn db (fun t ->
        for k = 100 to 100 + nrows - 1 do
          ignore (E.delete t ~table:"t" ~key:(vi k))
        done);
  let nrows_seen = if deleted then 0 else nrows in
  let txn = E.begin_txn db in
  let scan () = E.index_scan txn ~table:"t" ~index:"t_pkey" ~lo:(vi 100) ~hi:(vi (100 + nrows - 1)) in
  Alcotest.(check int) "rows" nrows_seen (List.length (scan ()));
  Alcotest.(check bool) "SIREAD-tracked" true
    (P.owner_lock_count (E.predicate_locks db) (E.xid txn) > 0);
  let rounds = 100 in
  let before = Gc.minor_words () in
  for _ = 1 to rounds do
    ignore (Sys.opaque_identity (scan ()))
  done;
  let words = (Gc.minor_words () -. before) /. float rounds in
  E.commit txn;
  (* A row copy is a header and [width] fields; a list cell is three
     words. *)
  let result = float (nrows_seen * (1 + width + 3)) in
  if words > result +. slack then
    Alcotest.failf "%.1f words per %d-row tracked scan (budget %.0f + %.0f)" words nrows result slack

(* ---- The write path allocates what it stores ---------------------------------- *)

module Wal = Ssi_wal.Wal
module Sim = Ssi_sim.Sim

(* Words allocated by [f ()], less the float [Gc.minor_words] itself
   boxes. *)
let words_of f =
  let w0 = Gc.minor_words () in
  f ();
  let w1 = Gc.minor_words () in
  let w2 = Gc.minor_words () in
  w1 -. w0 -. (w2 -. w1)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a.(Array.length a / 2)

(* The commit record of the WAL layer probe: ten 4-column stock
   updates, 713 bytes framed. *)
let commit_record =
  Wal.Commit
    {
      c_xid = 7;
      c_cseq = 7;
      c_gid = None;
      c_ops =
        List.init 10 (fun k ->
            Wal.Update { table = "stock"; key = vi k; row = [| vi k; vi 3; vi 1; vi 50 |] });
      c_safe = true;
    }

(* Fail unless [words] is within [budget]. *)
let within what ~budget words =
  if words > budget then Alcotest.failf "%s: %.0f words (budget %.0f)" what words budget

(* Staged under the simulator, with the pending bytes already grown by an
   earlier batch, an append encodes straight into them: it allocates only
   the boxed [wal.pending_records] gauge value, not the record.  Outside a
   simulation every append also flushes, which copies the 713 framed
   bytes once (a 91-word block and its list cell) and boxes the
   group-size sample and the gauge. *)
let test_wal_append_allocation () =
  let n = 64 in
  let staged = Wal.create ~flush_interval:1e9 () in
  let words = ref [] in
  ignore
    (Sim.run (fun () ->
         for _ = 1 to n do
           ignore (Wal.append staged commit_record)
         done;
         Wal.flush staged;
         words :=
           List.init n (fun _ -> words_of (fun () -> ignore (Wal.append staged commit_record)))));
  Alcotest.(check int) "frame bytes" (2 * n * 713) (Wal.durable_size staged);
  within "staged append" ~budget:6. (median !words);
  let direct = Wal.create () in
  within "append and flush" ~budget:115.
    (median (List.init n (fun _ -> words_of (fun () -> ignore (Wal.append direct commit_record)))))

(* The write-side SIREAD lookup (paper §5.2) of a tuple nobody holds a
   lock on allocates only the three lock tags it looks up. *)
let test_readers_for_write_allocation () =
  let pl = P.create () in
  for owner = 1 to 8 do
    P.lock_tuple pl ~owner ~rel:"t" ~key:(vi (1000 + owner)) ~page:(owner mod 4)
  done;
  within "readers_for_write" ~budget:12.
    (median
       (List.init 32 (fun k ->
            words_of (fun () ->
                ignore (Sys.opaque_identity (P.readers_for_write pl ~rel:"t" ~key:(vi k) ~page:7))))))

(* Releasing a writer's own tuple SIREAD lock (§7.3) touches the list of
   the one page that holds it: an owner with tuple locks on 20 pages pays
   what an owner with locks on one page pays. *)
let test_unlock_tuple_allocation () =
  let unlock_words ~pages =
    let pl = P.create () and owner = 1 in
    for p = 0 to pages - 1 do
      for k = 0 to 2 do
        P.lock_tuple pl ~owner ~rel:"t" ~key:(vi ((100 * p) + k)) ~page:p
      done
    done;
    median
      (List.init 32 (fun i ->
           let key = vi (10_000 + i) in
           P.lock_tuple pl ~owner ~rel:"t" ~key ~page:0;
           words_of (fun () -> P.unlock_tuple pl ~owner ~rel:"t" ~key)))
  in
  let one = unlock_words ~pages:1 and twenty = unlock_words ~pages:20 in
  Alcotest.(check (float 0.)) "same words at 1 and 20 pages" one twenty;
  within "unlock_tuple" ~budget:12. twenty

(* One SIREAD-tracked update of a 4-column row, warm: the transaction has
   already written other rows, so its lock and undo state exist.  The
   new heap version and its redo op share the row [f] returned. *)
let test_update_allocation () =
  let db = E.create () in
  E.create_table db ~name:"t" ~cols:[ "k"; "a"; "b"; "c" ] ~key:"k";
  E.with_txn db (fun t ->
      for k = 0 to 99 do
        E.insert t ~table:"t" [| vi k; vi 0; vi 0; vi 0 |]
      done);
  let txn = E.begin_txn db in
  let bump row = [| row.(0); vi 1; row.(2); row.(3) |] in
  for k = 0 to 15 do
    ignore (E.update txn ~table:"t" ~key:(vi k) ~f:bump)
  done;
  let words =
    median
      (List.init 32 (fun i ->
           words_of (fun () -> ignore (E.update txn ~table:"t" ~key:(vi (16 + i)) ~f:bump))))
  in
  E.commit txn;
  within "tracked update" ~budget:195. words

(* ---- B+-tree walks allocate nothing ------------------------------------------- *)

module Btree = Ssi_btree.Btree

(* 100,000 warm point walks over a 1,000-key tree, keys boxed and
   callbacks built beforehand: the walk itself builds no closure, pair or
   probe record. *)
let test_point_walk_allocation () =
  let t = Btree.create ~name:"t_pkey" () in
  let keys = Array.init 1000 vi in
  Array.iter (fun k -> ignore (Btree.insert t ~key:k ~pk:k)) keys;
  let pages = ref 0 and hits = ref 0 in
  let page _ = incr pages and entry _ _ = incr hits in
  let walks f = words_of (fun () -> for i = 0 to 99_999 do f keys.(i mod 1000) done) in
  within "100,000 point walks" ~budget:0.
    (walks (fun k -> Btree.walk t ~lo:k ~hi:k ~page ~entry));
  Alcotest.(check int) "every key found once per walk" 100_000 !hits;
  within "100,000 point page walks" ~budget:0.
    (walks (fun k -> Btree.walk_pages t ~lo:k ~hi:k ~page));
  Alcotest.(check bool) "pages announced" true (!pages >= 200_000)

(* ---- Telemetry allocates nothing ---------------------------------------------- *)

module Obs = Ssi_obs.Obs

(* A registry whose span store has reached its steady state: more spans
   finished than its table retains, so each finish drops the oldest and
   frees its slot for the next start. *)
let warm_registry () =
  let obs = Obs.create ~span_capacity:64 () in
  for _ = 1 to 200 do
    Obs.Span.finish obs (Obs.Span.start obs "warmup")
  done;
  obs

let spans_words f = median (List.init 32 (fun _ -> words_of f))

(* An engine operation's child span, opened through the hot-path entry
   (no [Some parent] to box) and finished. *)
let test_child_span_allocation () =
  let obs = warm_registry () in
  let root = Obs.Span.start obs "txn" in
  let ctx = Obs.Span.ctx root in
  within "child span start/finish" ~budget:0.
    (spans_words (fun () -> Obs.Span.finish obs (Obs.Span.child obs ctx "op.read")));
  Alcotest.(check bool) "root still open" true (Obs.Span.is_open root)

let test_root_span_allocation () =
  let obs = warm_registry () in
  within "root span start/finish" ~budget:0.
    (spans_words (fun () -> Obs.Span.finish obs (Obs.Span.start obs "txn")))

(* [observe] of a float the caller already holds boxed. *)
let test_observe_allocation () =
  let obs = Obs.create () in
  let h = Obs.histogram obs "engine.latency.read" in
  let x = Sys.opaque_identity 1.5e-4 in
  Obs.observe h x;
  within "observe" ~budget:0. (spans_words (fun () -> Obs.observe h x));
  Alcotest.(check int) "every observation counted" 33 (Ssi_util.Bhist.count (Obs.histogram_hist h))

(* The engine's per-operation close: finish the op span and observe its
   duration into the latency histogram. *)
let test_op_finish_allocation () =
  let obs = warm_registry () in
  let h = Obs.histogram obs "engine.latency.read" in
  let ctx = Obs.Span.ctx (Obs.Span.start obs "txn") in
  Obs.Span.finish_observe obs (Obs.Span.child obs ctx "op.read") h;
  let words =
    spans_words (fun () ->
        let sp = Obs.Span.child obs ctx "op.read" in
        Obs.Span.finish_observe obs sp h)
  in
  within "op finish-and-observe" ~budget:0. words;
  Alcotest.(check int) "one observation per op" 33 (Ssi_util.Bhist.count (Obs.histogram_hist h))

(* A warm snapshot-isolation point read of a present row: no SIREAD
   lock, no span or histogram allocation.  What is left is the read
   itself — the returned row's copy and its option — and the lookup's
   B+-tree and visibility walk. *)
let test_untracked_read_allocation () =
  let db = E.create () in
  E.create_table db ~name:"t" ~cols:[ "k"; "v" ] ~key:"k";
  E.with_txn db (fun t ->
      for k = 0 to 99 do
        E.insert t ~table:"t" [| vi k; vi (-k) |]
      done);
  let txn = E.begin_txn ~isolation:E.Repeatable_read db in
  for k = 0 to 99 do
    ignore (E.read txn ~table:"t" ~key:(vi k))
  done;
  let words =
    median
      (List.init 32 (fun i ->
           let key = vi (i + 10) in
           words_of (fun () -> ignore (Sys.opaque_identity (E.read txn ~table:"t" ~key)))))
  in
  E.commit txn;
  within "untracked read" ~budget:26. words

(* ---- The 2PL baseline allocates what REPEATABLE READ does --------------------- *)

(* A table of 100 rows and a committed 2PL transaction that read every
   one and took the lock records, holdings and owner entry a transaction
   of that size needs; its commit returned them to the lock manager's
   pools. *)
let s2pl_table () =
  let db = E.create () in
  E.create_table db ~name:"t" ~cols:[ "k"; "v" ] ~key:"k";
  E.with_txn db (fun t ->
      for k = 0 to 99 do
        E.insert t ~table:"t" [| vi k; vi (-k) |]
      done);
  E.with_txn ~isolation:E.Serializable_2pl db (fun t ->
      for k = 0 to 99 do
        ignore (E.read t ~table:"t" ~key:(vi k))
      done);
  db

(* Median words of a point read of [key i] for i in 0..31, in [txn]. *)
let read_words txn key =
  median
    (List.init 32 (fun i ->
         let key = key i in
         words_of (fun () -> ignore (Sys.opaque_identity (E.read txn ~table:"t" ~key)))))

(* A 2PL re-read of a row the transaction holds: the relation, leaf and
   tuple locks are covered, so beyond what the REPEATABLE READ read
   allocates (16 words) there are only the tuple and leaf targets the
   read builds; the B+-tree is walked once and the walk allocates
   nothing, the statement snapshot is kept while no commit happens, and
   no deadlock handler is a closure. *)
let test_2pl_reread_allocation () =
  let db = s2pl_table () in
  let txn = E.begin_txn ~isolation:E.Serializable_2pl db in
  for k = 0 to 99 do
    ignore (E.read txn ~table:"t" ~key:(vi k))
  done;
  let words = read_words txn (fun i -> vi (i + 10)) in
  E.commit txn;
  within "warm 2PL re-read" ~budget:24. words

(* A 2PL read of a row not locked yet, on a leaf that is: the new tuple
   lock's record and holding come from the pools. *)
let test_2pl_fresh_read_allocation () =
  let db = s2pl_table () in
  let txn = E.begin_txn ~isolation:E.Serializable_2pl db in
  for k = 0 to 49 do
    ignore (E.read txn ~table:"t" ~key:(vi (2 * k)))
  done;
  let words = read_words txn (fun i -> vi ((2 * i) + 1)) in
  E.commit txn;
  within "2PL read of a fresh row" ~budget:28. words

(* A transaction that scans 20 rows through the primary key: under 2PL
   the scan S-locks the leaves and each row, which the transaction takes
   from the pools and gives back at commit, and its entries stay in the
   engine's probe buffer; it allocates at most twice what the same
   transaction does under REPEATABLE READ. *)
let test_2pl_scan_allocation () =
  let db = s2pl_table () in
  let txn_words isolation =
    let run () =
      E.with_txn ~isolation db (fun t ->
          ignore
            (Sys.opaque_identity
               (E.index_scan t ~table:"t" ~index:"t_pkey" ~lo:(vi 40) ~hi:(vi 59))))
    in
    run ();
    median (List.init 32 (fun _ -> words_of run))
  in
  let rr = txn_words E.Repeatable_read and s2pl = txn_words E.Serializable_2pl in
  within
    (Printf.sprintf "20-row 2PL scan transaction (REPEATABLE READ: %.0f words)" rr)
    ~budget:(2. *. rr) s2pl

(* ---- A cold tracked scan grants its page lock directly ------------------------ *)

(* The same 50-row scan, cold: each round is a new transaction's first
   read, of 50 rows on one heap page (64 rows to a page).  Its SIREAD
   locks are new: the index leaves it reaches and, since 50 rows exceed
   the 4 tuple locks a page may hold, the heap page.  The batch grants
   the page lock directly; granting 5 tuple locks first and dropping
   them again at the promotion cost 140 words more.  [slack] is the
   measured constant (182 words: the warm scan's 35, the index-leaf and
   heap-page lock grants) with headroom short of 50. *)
let test_cold_scan_allocation () =
  let nrows = 50 and width = 2 and slack = 210. in
  let db = E.create () in
  E.create_table db ~name:"t" ~cols:[ "k"; "v" ] ~key:"k";
  E.with_txn ~isolation:E.Read_committed db (fun t ->
      for k = 0 to 999 do
        E.insert t ~table:"t" [| vi k; vi (-k) |]
      done);
  let lo = vi 128 and hi = vi (128 + nrows - 1) in
  let one_round () =
    let txn = E.begin_txn db in
    let rows = ref [] in
    let words = words_of (fun () -> rows := E.index_scan txn ~table:"t" ~index:"t_pkey" ~lo ~hi) in
    Alcotest.(check int) "rows" nrows (List.length !rows);
    Alcotest.(check bool) "one heap page lock" true
      (P.holds (E.predicate_locks db) ~owner:(E.xid txn) (P.Page ("t", 2)));
    E.commit txn;
    words
  in
  ignore (one_round ());
  let words = median (List.init 32 (fun _ -> one_round ())) in
  Alcotest.(check int) "every lock released" 0 (P.total_lock_count (E.predicate_locks db));
  let result = float (nrows * (1 + width + 3)) in
  if words > result +. slack then
    Alcotest.failf "%.1f words per cold %d-row tracked scan (budget %.0f + %.0f)" words nrows
      result slack

(* ---- The simulator kernel ----------------------------------------------------- *)

module Net = Ssi_net.Net
module Waitq = Ssi_util.Waitq

let calls = 100_000

(* Words per call of [f ()], a process making [calls] calls, measured
   inside the simulation so that its start-up does not count. *)
let per_call f =
  let words = ref 0. in
  ignore (Sim.run (fun () -> words := words_of f));
  !words /. float calls

(* A switch allocates the runtime's continuation and its [Resume] cell. *)
let test_switch_allocation () =
  within "Sim.yield" ~budget:4.
    (per_call (fun () ->
         for _ = 1 to calls do
           Sim.yield ()
         done));
  within "Sim.delay" ~budget:4.
    (per_call (fun () ->
         for _ = 1 to calls do
           Sim.delay 1e-6
         done))

(* A start allocates its [Start] cell and the runtime's effect closure. *)
let test_spawn_allocation () =
  let body () = () in
  within "Sim.spawn" ~budget:12.
    (per_call (fun () ->
         for _ = 1 to calls do
           Sim.spawn body
         done;
         Sim.yield ()));
  within "Sim.at" ~budget:12.
    (per_call (fun () ->
         for _ = 1 to calls do
           Sim.at ~after:1e-6 body
         done;
         Sim.delay 1e-3))

(* A waiter woken by [wake_one], then the waker's yield. *)
let test_wait_wake_allocation () =
  let q = Waitq.create () in
  within "Sim.wait + Waitq.wake_one" ~budget:22.
    (per_call (fun () ->
         Sim.spawn (fun () ->
             for _ = 1 to calls do
               Sim.wait q
             done);
         Sim.yield ();
         for _ = 1 to calls do
           if not (Waitq.wake_one q) then Alcotest.fail "no waiter";
           Sim.yield ()
         done))

(* An untraced message: the delivery timer and its closure. *)
let test_send_allocation () =
  let net = Net.create ~seed:1 () in
  let delivered = ref 0 in
  Net.add_node net "a" ~handler:(fun ~src:_ _ -> ());
  Net.add_node net "b" ~handler:(fun ~src:_ _ -> incr delivered);
  within "Net.send + delivery" ~budget:34.
    (per_call (fun () ->
         for i = 1 to calls do
           Net.send net ~src:"a" ~dst:"b" i
         done;
         Sim.delay 1.;
         Alcotest.(check int) "all delivered" calls !delivered))

(* ---- A transaction's fixed path ------------------------------------------------- *)

module Rng = Ssi_util.Rng
module Certifier = Ssi_core.Certifier

(* A 1,000-row table, and the boxed keys of the rows the reads visit. *)
let fixed_path_db () =
  let db = E.create () in
  E.create_table db ~name:"t" ~cols:[ "k"; "v" ] ~key:"k";
  E.with_txn ~isolation:E.Read_committed db (fun t ->
      for k = 0 to 999 do
        E.insert t ~table:"t" [| vi k; vi (-k) |]
      done);
  db

let read_keys = Array.init 10 (fun i -> vi (100 * i))

(* Median words of a READ ONLY BEGIN+COMMIT making [reads] point reads. *)
let ro_txn_words db isolation ~reads =
  let run () =
    let txn = E.begin_txn ~isolation ~read_only:true db in
    for i = 0 to reads - 1 do
      ignore (Sys.opaque_identity (E.read txn ~table:"t" ~key:read_keys.(i)))
    done;
    E.commit txn
  in
  run ();
  median (List.init 32 (fun _ -> words_of run))

(* §4.2: a READ ONLY SERIALIZABLE transaction whose snapshot is safe at
   BEGIN drops all SSI overhead.  It has no certifier node and allocates
   exactly what the same REPEATABLE READ transaction does, plus the
   [ssi.safe_snapshot] event, whose words are measured here too. *)
let test_safe_snapshot_allocation () =
  let db = fixed_path_db () in
  let obs = E.obs db in
  let xid = Sys.opaque_identity 7 in
  let event =
    median
      (List.init 32 (fun _ ->
           words_of (fun () -> Obs.trace obs "ssi.safe_snapshot" ~fields:[ ("xid", Obs.I xid) ])))
  in
  let txn = E.begin_txn ~read_only:true db in
  let (Certifier.Cert ((module C), c)) = E.certifier db in
  Alcotest.(check bool) "safe at BEGIN" true (E.snapshot_is_safe txn);
  Alcotest.(check bool) "no certifier node" true (C.info c (E.xid txn) = None);
  E.commit txn;
  List.iter
    (fun reads ->
      let rr = ro_txn_words db E.Repeatable_read ~reads
      and ssi = ro_txn_words db E.Serializable ~reads in
      Alcotest.(check (float 0.))
        (Printf.sprintf "%d reads: REPEATABLE READ %.0f words + event %.0f" reads rr event)
        (rr +. event) ssi)
    [ 0; 10 ]

(* An empty REPEATABLE READ BEGIN+COMMIT: the floor under every
   workload's transactions.  ROADMAP item 10 aims at 84 words. *)
let test_empty_txn_allocation () =
  let words = ro_txn_words (fixed_path_db ()) E.Repeatable_read ~reads:0 in
  Printf.printf "empty REPEATABLE READ transaction: %.0f words, %.0f above 84\n" words
    (words -. 84.);
  within "empty REPEATABLE READ BEGIN+COMMIT" ~budget:150. words

(* The retry loop under a client span adds the attempt span and its
   handle over the transaction it runs. *)
let test_retry_overhead () =
  let db = fixed_path_db () in
  let obs = E.obs db in
  let body _ = () in
  let under_span f =
    let sp = Obs.Span.start obs "txn" in
    f sp;
    Obs.Span.finish obs sp
  in
  let words f =
    under_span f;
    median (List.init 32 (fun _ -> words_of (fun () -> under_span f)))
  in
  let plain = words (fun sp -> E.with_txn ~isolation:E.Repeatable_read ~span:sp db body)
  and retried = words (fun sp -> E.retry_with ~isolation:E.Repeatable_read ~span:sp db body) in
  Printf.printf "with_txn %.0f words, retry_with %.0f\n" plain retried;
  within
    (Printf.sprintf "retry_with over with_txn (with_txn: %.0f words)" plain)
    ~budget:12. (retried -. plain)

(* A new key costs its cell and pair; nothing is copied. *)
let test_span_add_allocation () =
  let obs = warm_registry () in
  let sp = Obs.Span.start obs "txn" ~attrs:[ ("spec", Obs.S "s"); ("worker", Obs.I 1) ] in
  let keys = Array.init 32 (fun i -> "k" ^ string_of_int i) and v = Obs.I 1 in
  let i = ref 0 in
  let words =
    spans_words (fun () ->
        Obs.Span.add sp keys.(!i) v;
        incr i)
  in
  within "Span.add of a new key" ~budget:6. words;
  Alcotest.(check int) "every key kept" 34 (List.length (Obs.Span.attrs sp))

(* A draw keeps the generator's state unboxed: [int] allocates nothing,
   [float] only its boxed result. *)
let test_rng_allocation () =
  let r = Rng.make 1 in
  let draws f = words_of (fun () -> for _ = 1 to calls do f () done) /. float calls in
  within "Rng.int" ~budget:0. (draws (fun () -> ignore (Sys.opaque_identity (Rng.int r 1000))));
  within "Rng.float" ~budget:2. (draws (fun () -> ignore (Sys.opaque_identity (Rng.float r 1.0))))

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "perf"
    [
      qsuite "parity"
        [ prop_batch_equals_sequential; prop_scan_buffer_grouping ];
      ( "replay",
        [
          Alcotest.test_case "sibench driver replay" `Quick test_sibench_replay;
          Alcotest.test_case "tpcc driver replay" `Quick test_tpcc_replay;
        ] );
      ( "complexity",
        [
          Alcotest.test_case "deep savepoint rollback linear" `Quick
            test_deep_savepoint_rollback_linear;
          Alcotest.test_case "tracked index scan allocates its result" `Quick
            (test_tracked_scan_allocation ~deleted:false);
          Alcotest.test_case "tracked scan of deleted rows allocates no row" `Quick
            (test_tracked_scan_allocation ~deleted:true);
          Alcotest.test_case "cold tracked scan grants its page lock directly" `Quick
            test_cold_scan_allocation;
        ] );
      ( "btree",
        [ Alcotest.test_case "warm point walk" `Quick test_point_walk_allocation ] );
      ( "telemetry",
        [
          Alcotest.test_case "child span through the hot-path entry" `Quick
            test_child_span_allocation;
          Alcotest.test_case "root span without attributes" `Quick test_root_span_allocation;
          Alcotest.test_case "observe of a boxed float" `Quick test_observe_allocation;
          Alcotest.test_case "op span finish-and-observe" `Quick test_op_finish_allocation;
          Alcotest.test_case "warm untracked point read" `Quick test_untracked_read_allocation;
        ] );
      ( "2pl",
        [
          Alcotest.test_case "warm 2PL re-read of a held row" `Quick test_2pl_reread_allocation;
          Alcotest.test_case "2PL read of a fresh row on a locked leaf" `Quick
            test_2pl_fresh_read_allocation;
          Alcotest.test_case "20-row 2PL scan transaction" `Quick test_2pl_scan_allocation;
        ] );
      ( "write path",
        [
          Alcotest.test_case "warm WAL append encodes in place" `Quick test_wal_append_allocation;
          Alcotest.test_case "readers_for_write with no holder" `Quick
            test_readers_for_write_allocation;
          Alcotest.test_case "unlock_tuple touches one page list" `Quick
            test_unlock_tuple_allocation;
          Alcotest.test_case "tracked update of a 4-column row" `Quick test_update_allocation;
        ] );
      ( "fixed path",
        [
          Alcotest.test_case "safe-at-BEGIN snapshot costs what REPEATABLE READ does" `Quick
            test_safe_snapshot_allocation;
          Alcotest.test_case "empty REPEATABLE READ transaction" `Quick test_empty_txn_allocation;
          Alcotest.test_case "retry_with over with_txn" `Quick test_retry_overhead;
          Alcotest.test_case "Span.add of a new key" `Quick test_span_add_allocation;
          Alcotest.test_case "Rng draws" `Quick test_rng_allocation;
        ] );
      ( "simulator",
        [
          Alcotest.test_case "switch" `Quick test_switch_allocation;
          Alcotest.test_case "process start" `Quick test_spawn_allocation;
          Alcotest.test_case "wait and wake_one" `Quick test_wait_wake_allocation;
          Alcotest.test_case "untraced send and delivery" `Quick test_send_allocation;
        ] );
    ]
