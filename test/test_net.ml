(* The adversarial message network and the WAL streaming protocol over it:
   delivery, loss, duplication, reordering, partitions; sequence-numbered
   streaming with gap detection and retransmission; quorum-synchronous
   commit degradation; epoch fencing at failover. *)

open Ssi_storage
module E = Ssi_engine.Engine
module R = Ssi_replication.Replica
module Stream = Ssi_replication.Stream
module Net = Ssi_net.Net
module Obs = Ssi_obs.Obs
module Sim = Ssi_sim.Sim

let vi i = Value.Int i
let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

(* ---- raw network --------------------------------------------------------- *)

let two_nodes ?default_link ~seed () =
  let net = Net.create ?default_link ~seed () in
  let inbox = ref [] in
  Net.add_node net "a" ~handler:(fun ~src:_ _ -> ());
  Net.add_node net "b" ~handler:(fun ~src:_ m -> inbox := m :: !inbox);
  (net, inbox)

let test_delivery () =
  let net, inbox = two_nodes ~seed:1 () in
  let elapsed =
    Sim.run (fun () ->
        Net.send net ~src:"a" ~dst:"b" 1;
        Net.send net ~src:"a" ~dst:"b" 2)
  in
  Alcotest.(check (list int)) "both delivered in order" [ 1; 2 ] (List.rev !inbox);
  Alcotest.(check bool) "delivery takes virtual time" true (elapsed > 0.)

let test_drop_everything () =
  let link = { Net.default_link with Net.drop = 1.0 } in
  let net, inbox = two_nodes ~default_link:link ~seed:1 () in
  ignore (Sim.run (fun () -> for i = 1 to 10 do Net.send net ~src:"a" ~dst:"b" i done));
  Alcotest.(check (list int)) "all lost" [] !inbox;
  Alcotest.(check int) "drops counted" 10 (List.assoc "net.dropped" (Net.stats net))

let test_duplicate_everything () =
  let link = { Net.default_link with Net.duplicate = 1.0 } in
  let net, inbox = two_nodes ~default_link:link ~seed:1 () in
  ignore (Sim.run (fun () -> Net.send net ~src:"a" ~dst:"b" 7));
  Alcotest.(check (list int)) "delivered twice" [ 7; 7 ] !inbox

let test_partition_and_heal () =
  let net, inbox = two_nodes ~seed:1 () in
  ignore
    (Sim.run (fun () ->
         Net.send net ~src:"a" ~dst:"b" 1;
         (* In-flight when the partition starts: the wire is cut, not
            flushed, so this one still lands. *)
         Net.partition net "a" "b";
         Alcotest.(check bool) "partitioned" true (Net.partitioned net "a" "b");
         Net.send net ~src:"a" ~dst:"b" 2;
         Sim.delay 0.01;
         Net.heal net "a" "b";
         Net.send net ~src:"a" ~dst:"b" 3));
  Alcotest.(check (list int)) "partitioned send lost" [ 1; 3 ] (List.rev !inbox);
  Alcotest.(check int) "partition drop counted" 1
    (List.assoc "net.partition_drops" (Net.stats net))

let test_isolate_rejoin () =
  let net = Net.create ~seed:3 () in
  let got = ref 0 in
  Net.add_node net "p" ~handler:(fun ~src:_ _ -> ());
  Net.add_node net "r1" ~handler:(fun ~src:_ _ -> incr got);
  Net.add_node net "r2" ~handler:(fun ~src:_ _ -> incr got);
  ignore
    (Sim.run (fun () ->
         Net.isolate net "p";
         Net.send net ~src:"p" ~dst:"r1" 0;
         Net.send net ~src:"p" ~dst:"r2" 0;
         Sim.delay 0.01;
         Alcotest.(check int) "isolated from all" 0 !got;
         Net.rejoin net "p";
         Net.send net ~src:"p" ~dst:"r1" 0));
  Alcotest.(check int) "rejoined" 1 !got

let chaotic_trace seed =
  let link = { Net.default_link with Net.drop = 0.2; duplicate = 0.2; reorder = 0.4 } in
  let net = Net.create ~default_link:link ~seed () in
  let trace = ref [] in
  Net.add_node net "a" ~handler:(fun ~src:_ _ -> ());
  Net.add_node net "b" ~handler:(fun ~src:_ m -> trace := (Sim.now (), m) :: !trace);
  ignore (Sim.run (fun () -> for i = 1 to 100 do Net.send net ~src:"a" ~dst:"b" i done));
  List.rev !trace

let test_seeded_determinism () =
  Alcotest.(check bool) "same seed, same delivery schedule" true
    (chaotic_trace 42 = chaotic_trace 42);
  Alcotest.(check bool) "different seed, different schedule" true
    (chaotic_trace 42 <> chaotic_trace 43)

(* ---- streaming ----------------------------------------------------------- *)

let fresh_primary net ?quorum () =
  let db = E.create () in
  E.create_table db ~name:"kv" ~cols:[ "k"; "v" ] ~key:"k";
  let p = Stream.make_primary net ~node:"p" ~epoch:1 ?quorum db in
  (db, p)

let sorted_rows scan =
  List.sort compare (List.map (fun r -> (Value.as_int r.(0), Value.as_int r.(1))) scan)

let primary_rows db = sorted_rows (E.with_txn db (fun t -> E.seq_scan t ~table:"kv" ()))

let replica_rows core =
  sorted_rows (R.scan (R.begin_read core `Latest_applied) ~table:"kv" ())

(* Drive retransmission until every subscriber catches up with the
   primary's retained log (bounded, so a wedged protocol fails the test
   instead of hanging it). *)
let catch_up p subs =
  let converged () =
    List.for_all (fun s -> R.applied_cseq (Stream.core s) >= Stream.last_cseq p) subs
  in
  let rounds = ref 0 in
  while (not (converged ())) && !rounds < 50 do
    incr rounds;
    Stream.retransmit_unacked p;
    Sim.delay 0.01
  done

let test_stream_basic () =
  let net = Net.create ~seed:5 () in
  ignore
    (Sim.run (fun () ->
         let db, p = fresh_primary net () in
         let s1 = Stream.subscribe net ~node:"r1" ~primary_node:"p" ~epoch:1 (R.create ~name:"r1" ()) in
         let s2 = Stream.subscribe net ~node:"r2" ~primary_node:"p" ~epoch:1 (R.create ~name:"r2" ()) in
         Sim.delay 0.01;
         for i = 1 to 20 do
           E.with_txn db (fun t -> E.insert t ~table:"kv" [| vi i; vi (i * 10) |]);
           Sim.delay 0.001
         done;
         Sim.delay 0.05;
         Alcotest.(check bool) "r1 converged" true
           (R.applied_cseq (Stream.core s1) >= Stream.last_cseq p);
         let rows = primary_rows db in
         Alcotest.(check bool) "r1 state identical" true (replica_rows (Stream.core s1) = rows);
         Alcotest.(check bool) "r2 state identical" true (replica_rows (Stream.core s2) = rows);
         List.iter
           (fun (_, acked) ->
             Alcotest.(check bool) "acks advanced the frontier" true (acked > 0))
           (Stream.subscribers p)))

let test_stream_lossy_convergence () =
  let net = Net.create ~seed:6 () in
  ignore
    (Sim.run (fun () ->
         let db, p = fresh_primary net () in
         let core = R.create ~name:"r1" () in
         let s = Stream.subscribe net ~node:"r1" ~primary_node:"p" ~epoch:1 core in
         Sim.delay 0.01;
         Net.set_chaos net ~drop:0.3 ~duplicate:0.3 ~reorder:0.4 ();
         for i = 1 to 60 do
           E.with_txn db (fun t -> E.insert t ~table:"kv" [| vi i; vi i |]);
           Sim.delay 0.0005
         done;
         Net.set_chaos net ~drop:0. ~duplicate:0. ~reorder:0. ();
         catch_up p [ s ];
         Alcotest.(check bool) "converged through loss/dup/reorder" true
           (R.applied_cseq core >= Stream.last_cseq p);
         Alcotest.(check bool) "state identical" true (replica_rows core = primary_rows db);
         let dups = Obs.get_counter (R.obs core) "stream.r1.dups_dropped" in
         let nacks = Obs.get_counter (R.obs core) "stream.r1.nacks" in
         Alcotest.(check bool) "duplicates were dropped" true (dups > 0);
         Alcotest.(check bool) "gaps triggered nacks" true (nacks > 0)))

let test_quorum_wait_and_degrade () =
  let net = Net.create ~seed:7 () in
  ignore
    (Sim.run (fun () ->
         let db, _p = fresh_primary net ~quorum:{ Stream.k = 1; deadline = 0.005 } () in
         let obs = E.obs db in
         let _s = Stream.subscribe net ~node:"r1" ~primary_node:"p" ~epoch:1 (R.create ~name:"r1" ()) in
         Sim.delay 0.01;
         E.with_txn db (fun t -> E.insert t ~table:"kv" [| vi 1; vi 1 |]);
         Alcotest.(check bool) "commit waited for the quorum" true
           (Obs.get_counter obs "stream.quorum_waits" > 0);
         Alcotest.(check int) "no timeout while connected" 0
           (Obs.get_counter obs "stream.quorum_timeouts");
         (* Cut the only replica off: the next commit must degrade to
            asynchronous after the deadline instead of blocking forever. *)
         Net.isolate net "p";
         E.with_txn db (fun t -> E.insert t ~table:"kv" [| vi 2; vi 2 |]);
         Alcotest.(check bool) "commit degraded on timeout" true
           (Obs.get_counter obs "stream.quorum_timeouts" > 0)))

let test_fencing_after_failover () =
  let net = Net.create ~seed:8 () in
  ignore
    (Sim.run (fun () ->
         let db, p = fresh_primary net () in
         let c1 = R.create ~name:"r1" () in
         let c2 = R.create ~name:"r2" () in
         let s1 = Stream.subscribe net ~node:"r1" ~primary_node:"p" ~epoch:1 c1 in
         let s2 = Stream.subscribe net ~node:"r2" ~primary_node:"p" ~epoch:1 c2 in
         Sim.delay 0.01;
         for i = 1 to 10 do
           E.with_txn db (fun t -> E.insert t ~table:"kv" [| vi i; vi i |]);
           Sim.delay 0.001
         done;
         Sim.delay 0.05;
         (* The primary is cut off; r1 takes over at epoch 2. *)
         Net.isolate net "p";
         let fo = Stream.promote s1 ~schema_from:db `Latest_applied in
         let np = fo.Stream.new_primary in
         Alcotest.(check int) "new epoch" 2 (Stream.epoch np);
         Alcotest.(check int) "nothing applied was discarded" 0
           fo.Stream.promotion.R.discarded_commits;
         Stream.resubscribe s2 ~primary_node:"r1" ~epoch:2;
         Sim.delay 0.05;
         let commits_on np_db n =
           for i = 1 to n do
             E.with_txn np_db (fun t -> E.insert t ~table:"kv" [| vi (100 + i); vi i |])
           done
         in
         commits_on (Stream.engine np) 5;
         Sim.delay 0.05;
         (* Partition heals: the deposed primary ships its stale stream,
            r2 rejects it, and the old primary is fenced. *)
         Net.rejoin net "p";
         Alcotest.(check bool) "not deposed before contact" false (Stream.is_deposed p);
         E.with_txn db (fun t -> E.insert t ~table:"kv" [| vi 999; vi 999 |]);
         Sim.delay 0.05;
         Alcotest.(check bool) "old primary fenced after heal" true (Stream.is_deposed p);
         let fenced = Obs.get_counter (R.obs c2) "stream.r2.fenced_rejects" in
         Alcotest.(check bool) "replica rejected the stale stream" true (fenced > 0);
         (* Every commit on the fenced primary is refused with a retryable
            fault, and nothing from it reached the new era's replicas. *)
         (try
            E.with_txn db (fun t -> E.insert t ~table:"kv" [| vi 1000; vi 0 |]);
            Alcotest.fail "fenced primary accepted a commit"
          with E.Error (E.Transient_fault _) -> ());
         catch_up np [ s2 ];
         Alcotest.(check bool) "r2 converged to the new primary" true
           (replica_rows c2 = primary_rows (Stream.engine np));
         Alcotest.(check bool) "fenced-era write absent from the new era" true
           (not (List.mem_assoc 999 (replica_rows c2)))))

let test_late_subscriber_base_snapshot () =
  let net = Net.create ~seed:9 () in
  ignore
    (Sim.run (fun () ->
         let db, p = fresh_primary net () in
         for i = 1 to 15 do
           E.with_txn db (fun t -> E.insert t ~table:"kv" [| vi i; vi i |])
         done;
         (* Subscribes long after the history started: bootstrapped by the
            base snapshot, then streamed the rest. *)
         let core = R.create ~name:"late" () in
         let s = Stream.subscribe net ~node:"late" ~primary_node:"p" ~epoch:1 core in
         Sim.delay 0.05;
         for i = 16 to 20 do
           E.with_txn db (fun t -> E.insert t ~table:"kv" [| vi i; vi i |]);
           Sim.delay 0.001
         done;
         Sim.delay 0.05;
         catch_up p [ s ];
         Alcotest.(check bool) "late subscriber caught up" true
           (replica_rows core = primary_rows db)))

(* ---- property: seeded dup/reorder interleavings converge ---------------- *)

(* One full adversarial run: a workload of inserts and updates streamed
   through a chaotic network from [seed].  Returns (primary rows, replica
   rows, replica frontier = primary frontier).  Every seed draws a
   different interleaving of losses, duplicates and reorderings within the
   retransmission window; all of them must collapse to the same replica
   state. *)
let adversarial_run seed =
  let result = ref ([], [], false) in
  ignore
    (Sim.run (fun () ->
         let net = Net.create ~seed () in
         let db, p = fresh_primary net () in
         let core = R.create ~name:"r1" () in
         let s = Stream.subscribe net ~node:"r1" ~primary_node:"p" ~epoch:1 core in
         Sim.delay 0.01;
         Net.set_chaos net ~drop:0.25 ~duplicate:0.25 ~reorder:0.4 ();
         for i = 1 to 40 do
           E.with_txn db (fun t ->
               if i mod 3 = 0 && i > 3 then
                 ignore
                   (E.update t ~table:"kv" ~key:(vi (i / 2)) ~f:(fun r ->
                        [| r.(0); vi (Value.as_int r.(1) + 100) |]))
               else E.insert t ~table:"kv" [| vi i; vi i |]);
           Sim.delay 0.0005
         done;
         Net.set_chaos net ~drop:0. ~duplicate:0. ~reorder:0. ();
         catch_up p [ s ];
         result :=
           ( primary_rows db,
             replica_rows core,
             R.applied_cseq core >= Stream.last_cseq p )));
  !result

let prop_convergence =
  QCheck.Test.make ~name:"every chaos interleaving converges to the primary state"
    ~count:25
    QCheck.(int_bound 100_000)
    (fun seed ->
      let prows, rrows, caught_up = adversarial_run seed in
      caught_up && rrows = prows)

let prop_determinism =
  QCheck.Test.make ~name:"an interleaving replays identically from its seed" ~count:10
    QCheck.(int_bound 100_000)
    (fun seed -> adversarial_run seed = adversarial_run seed)

let () =
  Alcotest.run "net"
    [
      ( "network",
        [
          Alcotest.test_case "delivery" `Quick test_delivery;
          Alcotest.test_case "drop" `Quick test_drop_everything;
          Alcotest.test_case "duplicate" `Quick test_duplicate_everything;
          Alcotest.test_case "partition and heal" `Quick test_partition_and_heal;
          Alcotest.test_case "isolate and rejoin" `Quick test_isolate_rejoin;
          Alcotest.test_case "seeded determinism" `Quick test_seeded_determinism;
        ] );
      ( "streaming",
        [
          Alcotest.test_case "fan-out and convergence" `Quick test_stream_basic;
          Alcotest.test_case "lossy convergence" `Quick test_stream_lossy_convergence;
          Alcotest.test_case "quorum wait and degrade" `Quick test_quorum_wait_and_degrade;
          Alcotest.test_case "fencing after failover" `Quick test_fencing_after_failover;
          Alcotest.test_case "late subscriber base snapshot" `Quick
            test_late_subscriber_base_snapshot;
        ] );
      qsuite "properties" [ prop_convergence; prop_determinism ];
    ]
