(* Memory-usage mitigation at the engine level (§6): aggressive cleanup,
   the read-only-only optimization, summarization under pressure, lock
   granularity promotion, and correctness under constant summarization. *)

open Ssi_storage
module E = Ssi_engine.Engine
module Certifier = Ssi_core.Certifier
module Predlock = Ssi_core.Predlock

let vi i = Value.Int i

let config ?(max_committed = 64) ?(predlock = Predlock.default_config) () =
  {
    E.default_config with
    E.certifier = { Certifier.default_config with max_committed_sxacts = max_committed; predlock };
  }

let fresh ?max_committed ?predlock () =
  let db = E.create ~config:(config ?max_committed ?predlock ()) () in
  E.create_table db ~name:"kv" ~cols:[ "k"; "v" ] ~key:"k";
  E.with_txn db (fun t ->
      for k = 0 to 19 do
        E.insert t ~table:"kv" [| vi k; vi 0 |]
      done);
  db

let bump t k = ignore (E.update t ~table:"kv" ~key:(vi k) ~f:(fun r -> [| r.(0); vi 1 |]))

let total_locks db = Predlock.total_lock_count (E.predicate_locks db)

let committed_retained db =
  let (Certifier.Cert ((module C), c)) = E.certifier db in
  C.committed_retained c

let oldserxid_size db =
  let (Certifier.Cert ((module C), c)) = E.certifier db in
  C.oldserxid_size c

let test_locks_released_when_no_concurrent () =
  let db = fresh () in
  E.with_txn db (fun t -> ignore (E.seq_scan t ~table:"kv" ()));
  Alcotest.(check int) "no SIREAD locks survive an idle system" 0 (total_locks db);
  Alcotest.(check int) "no committed nodes retained" 0
    (committed_retained db)

let test_locks_retained_while_concurrent () =
  let db = fresh () in
  let holdopen = E.begin_txn db in
  ignore (E.read holdopen ~table:"kv" ~key:(vi 0));
  E.with_txn db (fun t -> ignore (E.read t ~table:"kv" ~key:(vi 1)));
  Alcotest.(check bool) "committed reader's locks retained" true (total_locks db > 0);
  Alcotest.(check int) "node retained" 1 (committed_retained db);
  E.commit holdopen;
  Alcotest.(check int) "released after the concurrent commit" 0 (total_locks db)

let test_ro_only_cleanup () =
  (* §6.1: when only read-only transactions remain active, committed
     transactions' SIREAD locks can all be dropped. *)
  let db = fresh () in
  let ro = E.begin_txn ~read_only:true db in
  let rw = E.begin_txn db in
  ignore (E.read rw ~table:"kv" ~key:(vi 1));
  bump rw 2;
  E.commit rw;
  (* rw committed while ro (declared READ ONLY) is the only active txn:
     its SIREAD locks are discarded even though ro is still running. *)
  Alcotest.(check int) "committed locks dropped" 0 (total_locks db);
  ignore (E.read ro ~table:"kv" ~key:(vi 3));
  E.commit ro

let test_summarization_under_pressure () =
  let db = fresh ~max_committed:1 () in
  let holdopen = E.begin_txn db in
  ignore (E.read holdopen ~table:"kv" ~key:(vi 0));
  for k = 1 to 10 do
    E.with_txn db (fun t ->
        ignore (E.read t ~table:"kv" ~key:(vi k));
        bump t k)
  done;
  Alcotest.(check bool) "bounded retention" true (committed_retained db <= 1);
  Alcotest.(check bool) "summarized" true
    (Ssi_obs.Obs.get_counter (E.obs db) "ssi.summarized" > 0);
  E.commit holdopen

let test_write_skew_prevented_under_summarization () =
  (* Correctness must survive max_committed_sxacts = 0: every committed
     transaction is immediately summarized, so conflicts flow through the
     dummy owner and the oldserxid table. *)
  let db = fresh ~max_committed:0 () in
  let t1 = E.begin_txn db and t2 = E.begin_txn db in
  let count t =
    List.length (E.seq_scan t ~table:"kv" ~filter:(fun r -> Value.as_int r.(1) = 0) ())
  in
  let c1 = count t1 and c2 = count t2 in
  Alcotest.(check int) "both see 20 zeros" 20 (min c1 c2);
  bump t1 1;
  bump t2 2;
  let ok1 = (try E.commit t1; true with E.Error (E.Serialization_failure _) -> false) in
  let ok2 = (try E.commit t2; true with E.Error (E.Serialization_failure _) -> false) in
  Alcotest.(check bool) "one of the two write-skew txns fails" true (ok1 <> ok2)

let test_lock_promotion_bounds_memory () =
  (* With a page threshold of 2, scanning many tuples must not hold one
     lock per tuple. *)
  let predlock =
    {
      Predlock.max_tuple_locks_per_page = 2;
      max_page_locks_per_relation = 2;
      max_page_locks_per_index = 2;
    }
  in
  let db = fresh ~predlock () in
  let holdopen = E.begin_txn db in
  ignore (E.read holdopen ~table:"kv" ~key:(vi 0));
  let reader = E.begin_txn db in
  for k = 0 to 19 do
    ignore (E.read reader ~table:"kv" ~key:(vi k))
  done;
  let held = Predlock.owner_lock_count (E.predicate_locks db) (E.xid reader) in
  Alcotest.(check bool)
    (Printf.sprintf "promotion keeps the lock count small (%d)" held)
    true (held <= 6);
  Alcotest.(check bool) "promotions happened" true
    (Predlock.promotions (E.predicate_locks db) > 0);
  E.commit reader;
  E.commit holdopen

let test_promoted_locks_still_detect_conflicts () =
  let predlock =
    {
      Predlock.max_tuple_locks_per_page = 1;
      max_page_locks_per_relation = 1;
      max_page_locks_per_index = 1;
    }
  in
  let db = fresh ~predlock () in
  let t1 = E.begin_txn db and t2 = E.begin_txn db in
  (* t1 reads enough to promote everything to relation level. *)
  for k = 0 to 9 do
    ignore (E.read t1 ~table:"kv" ~key:(vi k))
  done;
  (* t2 writes a key t1 never read: the promoted lock still flags it. *)
  bump t2 15;
  ignore (E.read t2 ~table:"kv" ~key:(vi 16));
  let t3 = E.begin_txn db in
  bump t3 16;
  E.commit t3;
  (* Dangerous structure t1 -> t2 -> t3 (t3 first committer). *)
  let ok2 = (try E.commit t2; true with E.Error (E.Serialization_failure _) -> false) in
  Alcotest.(check bool) "promoted lock produced the conflict" false ok2;
  E.commit t1

let test_oldserxid_bounded () =
  let db = fresh ~max_committed:0 () in
  let holdopen = E.begin_txn db in
  ignore (E.read holdopen ~table:"kv" ~key:(vi 0));
  for round = 1 to 20 do
    E.with_txn db (fun t ->
        ignore (E.read t ~table:"kv" ~key:(vi (round mod 20)));
        bump t (round mod 20))
  done;
  Alcotest.(check bool) "oldserxid populated under pressure" true
    (oldserxid_size db > 0);
  E.commit holdopen;
  E.with_txn db (fun t -> ignore (E.read t ~table:"kv" ~key:(vi 1)));
  Alcotest.(check int) "oldserxid drained once idle" 0 (oldserxid_size db)

(* ---- Bounded retention under SSN and ESSN --------------------------------- *)

(* SSN keeps a committed reader's locks past SSI's horizon, for as long as
   some reachable π can still fall to its stamp.  A long contended history
   must still keep retained nodes within the budget and the lock table
   small, and leave nothing behind once idle. *)
let test_ssn_retention_bounded kind budget () =
  let peak_nodes = ref 0 and peak_entries = ref 0 and last = ref None in
  let after_op db =
    last := Some db;
    peak_nodes := max !peak_nodes (committed_retained db);
    peak_entries := max !peak_entries (List.length (Predlock.dump (E.predicate_locks db)))
  in
  ignore
    (Test_oracle.Oracle.run_history ~after_op ~isolation:E.Serializable
       {
         Test_oracle.Oracle.contended_cfg with
         txns_per_worker = 3000;
         seed = 5;
         certifier = kind;
         max_committed_sxacts = budget;
       });
  let db = Option.get !last in
  let name = Certifier.kind_to_string kind in
  Alcotest.(check bool)
    (Printf.sprintf "%s: peak retained %d within budget %d" name !peak_nodes budget)
    true (!peak_nodes <= budget);
  Alcotest.(check bool)
    (Printf.sprintf "%s: peak lock-table entries %d stay small" name !peak_entries)
    true (!peak_entries <= 32);
  Alcotest.(check int) (name ^ ": idle lock table empty") 0
    (List.length (Predlock.dump (E.predicate_locks db)));
  Alcotest.(check int) (name ^ ": idle retains nothing") 0 (committed_retained db);
  Alcotest.(check int) (name ^ ": idle oldserxid empty") 0 (oldserxid_size db)

(* ---- Bounded histograms (telemetry memory, §6 in spirit) ------------------ *)

module Obs = Ssi_obs.Obs
module Bhist = Ssi_util.Bhist

(* The always-on telemetry must not be its own memory-usage problem: a
   log-bucketed histogram's footprint is O(buckets), a function of the
   value range and accuracy — never of the observation count.  Growing a
   latency histogram from 100k to 1M observations must leave both the
   bucket count and the reachable heap words essentially flat. *)
let test_histogram_memory_bounded () =
  let obs = Obs.create () in
  let h = Obs.histogram obs "lat" in
  let rng = Ssi_util.Rng.make 11 in
  (* Six decades of latency values: 100ns .. 0.1s. *)
  let observe_many n =
    for _ = 1 to n do
      let decade = Ssi_util.Rng.int rng 6 in
      let v = 1e-7 *. (10. ** float_of_int decade) *. (1. +. Ssi_util.Rng.float rng 9.) in
      Obs.observe h v
    done
  in
  observe_many 100_000;
  let sketch = Obs.histogram_hist h in
  let buckets_100k = Bhist.bucket_count sketch in
  let words_100k = Obj.reachable_words (Obj.repr sketch) in
  observe_many 900_000;
  let buckets_1m = Bhist.bucket_count sketch in
  let words_1m = Obj.reachable_words (Obj.repr sketch) in
  Alcotest.(check int) "count" 1_000_000 (Bhist.count sketch);
  (* log_gamma(1e6 value range) ≈ 690 buckets at alpha = 0.01; leave
     headroom but stay orders of magnitude under the sample count. *)
  Alcotest.(check bool)
    (Printf.sprintf "bucket count bounded (%d)" buckets_1m)
    true (buckets_1m <= 1200);
  Alcotest.(check bool)
    (Printf.sprintf "buckets saturate, not grow (%d -> %d)" buckets_100k buckets_1m)
    true
    (buckets_1m - buckets_100k < buckets_100k / 2);
  Alcotest.(check bool)
    (Printf.sprintf "heap words flat under 10x observations (%d -> %d)" words_100k
       words_1m)
    true
    (float_of_int words_1m <= 1.5 *. float_of_int words_100k);
  (* And the percentiles still honor the accuracy contract at that size. *)
  let p99 = Bhist.percentile sketch 0.99 in
  Alcotest.(check bool) "p99 inside the observed range" true
    (p99 >= Bhist.min_value sketch && p99 <= Bhist.max_value sketch)

let () =
  Alcotest.run "memory"
    [
      ( "aggressive cleanup (§6.1)",
        [
          Alcotest.test_case "idle releases everything" `Quick
            test_locks_released_when_no_concurrent;
          Alcotest.test_case "retained while concurrent" `Quick
            test_locks_retained_while_concurrent;
          Alcotest.test_case "read-only-only cleanup" `Quick test_ro_only_cleanup;
        ] );
      ( "summarization (§6.2)",
        [
          Alcotest.test_case "bounded retention" `Quick test_summarization_under_pressure;
          Alcotest.test_case "write skew still prevented" `Quick
            test_write_skew_prevented_under_summarization;
          Alcotest.test_case "oldserxid lifecycle" `Quick test_oldserxid_bounded;
        ] );
      ( "SSN retention",
        List.concat_map
          (fun kind ->
            List.map
              (fun budget ->
                Alcotest.test_case
                  (Printf.sprintf "%s bounded at budget %d"
                     (Certifier.kind_to_string kind) budget)
                  `Quick
                  (test_ssn_retention_bounded kind budget))
              [ 1; 64 ])
          [ Certifier.SSN; Certifier.ESSN ] );
      ( "granularity promotion (§5.2.1)",
        [
          Alcotest.test_case "bounds lock count" `Quick test_lock_promotion_bounds_memory;
          Alcotest.test_case "conflicts survive promotion" `Quick
            test_promoted_locks_still_detect_conflicts;
        ] );
      ( "bounded telemetry",
        [
          Alcotest.test_case "histogram memory O(buckets)" `Quick
            test_histogram_memory_bounded;
        ] );
    ]
