(* Cross-shard SSI: the hash partitioner, fast path vs 2PC, the
   coordinator's cross-shard dangerous-structure abort, in-doubt
   resolution, the shards' recorded histories joined on gids as one DSG,
   and byte-identical replay of the sharded chaos harness. *)

module E = Ssi_engine.Engine
module Shard = Ssi_shard.Shard
module Sharded = Ssi_harness.Sharded
module Scenario = Ssi_harness.Scenario
module Sim = Ssi_sim.Sim
module Value = Ssi_storage.Value
module Driver = Ssi_workload.Driver

let table = "t"
let vi k = Value.Int k

let with_sys ?(shards = 2) ?(seed = 7) f =
  ignore
    (Sim.run (fun () ->
         let sys = Shard.create ~shards ~seed () in
         Shard.create_table sys ~name:table ~cols:[ "k"; "writer" ] ~key:"k";
         f sys))

(* First [n] integer keys owned by shard [s]. *)
let keys_on sys s n =
  let rec go k acc left =
    if left = 0 then List.rev acc
    else if Shard.shard_of_key sys (vi k) = s then go (k + 1) (k :: acc) (left - 1)
    else go (k + 1) acc left
  in
  go 0 [] n

let seed_keys sys ks =
  Shard.seed_rows sys ~table ~rows:(List.map (fun k -> [| vi k; vi 1 |]) ks)

let stat sys name = List.assoc name (Shard.stats sys)

let stamp_of g k =
  match Shard.read g ~table ~key:(vi k) with
  | Some row -> Value.as_int row.(1)
  | None -> 0

let write g k =
  ignore (Shard.update g ~table ~key:(vi k) ~f:(fun row -> [| row.(0); vi (Shard.gxid g) |]))

(* ---- Partitioner ---------------------------------------------------------- *)

let test_partitioner () =
  with_sys ~shards:4 (fun sys ->
      let seen = Array.make 4 false in
      for k = 0 to 63 do
        let s = Shard.shard_of_key sys (vi k) in
        Alcotest.(check bool) "in range" true (s >= 0 && s < 4);
        Alcotest.(check int) "stable" s (Shard.shard_of_key sys (vi k));
        seen.(s) <- true
      done;
      Alcotest.(check bool) "all shards hit within 64 keys" true
        (Array.for_all Fun.id seen))

(* ---- Fast path and 2PC ----------------------------------------------------- *)

let test_fastpath_single_shard () =
  with_sys (fun sys ->
      let k = List.hd (keys_on sys 0 1) in
      seed_keys sys [ k ];
      let g = Shard.begin_txn sys in
      Alcotest.(check int) "seed stamp" 1 (stamp_of g k);
      write g k;
      let gxid = Shard.gxid g in
      let cts = Shard.commit g in
      Alcotest.(check (list int)) "one shard touched" [ 0 ] (Shard.touched g);
      Alcotest.(check bool) "cts assigned" true (cts > 0);
      Alcotest.(check int) "fast path taken" 1 (stat sys "shard.fastpath");
      Alcotest.(check int) "no 2PC" 0 (stat sys "shard.twopc");
      let g2 = Shard.begin_txn sys in
      Alcotest.(check int) "write visible" gxid (stamp_of g2 k);
      let cts2 = Shard.commit g2 in
      Alcotest.(check bool) "cts monotone" true (cts2 > cts))

let test_multi_shard_2pc_commits () =
  with_sys (fun sys ->
      let k0 = List.hd (keys_on sys 0 1) and k1 = List.hd (keys_on sys 1 1) in
      seed_keys sys [ k0; k1 ];
      let g = Shard.begin_txn sys in
      write g k0;
      write g k1;
      let gxid = Shard.gxid g in
      let cts = Shard.commit g in
      Alcotest.(check (list int)) "both shards touched" [ 0; 1 ] (Shard.touched g);
      Alcotest.(check int) "2PC taken" 1 (stat sys "shard.twopc");
      Alcotest.(check int) "committed" 1 (stat sys "shard.commits");
      (match Shard.decided sys ~gid:(Printf.sprintf "g%d" gxid) with
      | Some (`Commit c) -> Alcotest.(check int) "decision logged with cts" cts c
      | _ -> Alcotest.fail "expected a logged commit decision");
      let g2 = Shard.begin_txn sys in
      Alcotest.(check int) "shard 0 write visible" gxid (stamp_of g2 k0);
      Alcotest.(check int) "shard 1 write visible" gxid (stamp_of g2 k1);
      ignore (Shard.commit g2);
      Array.iter
        (fun e -> Alcotest.(check (list string)) "nothing left prepared" [] (E.prepared_gids e))
        (Shard.engines sys))

let test_multi_shard_readonly_skips_2pc () =
  with_sys (fun sys ->
      let k0 = List.hd (keys_on sys 0 1) and k1 = List.hd (keys_on sys 1 1) in
      seed_keys sys [ k0; k1 ];
      let g = Shard.begin_txn sys in
      ignore (stamp_of g k0);
      ignore (stamp_of g k1);
      ignore (Shard.commit g);
      Alcotest.(check int) "read-only path" 1 (stat sys "shard.readonly");
      Alcotest.(check int) "no 2PC for pure readers" 0 (stat sys "shard.twopc"))

(* ---- Cross-shard dangerous structure ---------------------------------------- *)

let test_cross_shard_pivot_aborted () =
  (* The split pivot no local certifier can see: P reads x (shard 0) and
     writes y (shard 1).  R overwrites x and commits, giving P an
     out-conflict on shard 0; Q reads y before P's write, giving P an
     in-conflict on shard 1.  Each shard sees one harmless edge; the
     coordinator sees in(1) && out(0) on different shards and must abort
     P at prepare time. *)
  with_sys (fun sys ->
      let x = List.hd (keys_on sys 0 1) and y = List.hd (keys_on sys 1 1) in
      seed_keys sys [ x; y ];
      let q = Shard.begin_txn sys in
      Alcotest.(check int) "Q reads y" 1 (stamp_of q y);
      let p = Shard.begin_txn sys in
      Alcotest.(check int) "P reads x" 1 (stamp_of p x);
      write p y;
      let r = Shard.begin_txn sys in
      write r x;
      ignore (Shard.commit r);
      (match Shard.commit p with
      | (_ : int) -> Alcotest.fail "cross-shard pivot must not commit"
      | exception E.Error (E.Serialization_failure _) -> ());
      Alcotest.(check int) "cross-shard abort counted" 1 (stat sys "shard.cross_aborts");
      Alcotest.(check int) "decision was abort" 1 (stat sys "shard.aborts");
      (match Shard.decided sys ~gid:(Printf.sprintf "g%d" (Shard.gxid p)) with
      | Some `Abort -> ()
      | _ -> Alcotest.fail "expected a logged abort decision");
      Shard.abort q;
      Array.iter
        (fun e -> Alcotest.(check (list string)) "branches rolled back" [] (E.prepared_gids e))
        (Shard.engines sys);
      (* The abort must have released P's branches: y is writable again. *)
      let g = Shard.begin_txn sys in
      write g y;
      ignore (Shard.commit g))

let test_same_shard_conflicts_stay_local () =
  (* In/out conflicts on the SAME shard are the local certifier's
     business: a multi-shard transaction whose only conflict pair sits on
     one shard must not be aborted by the coordinator's cross-shard
     rule. *)
  with_sys (fun sys ->
      let x0, x1 =
        match keys_on sys 0 2 with [ a; b ] -> (a, b) | _ -> assert false
      in
      let y = List.hd (keys_on sys 1 1) in
      seed_keys sys [ x0; x1; y ];
      let p = Shard.begin_txn sys in
      Alcotest.(check int) "P reads x0" 1 (stamp_of p x0);
      write p y;
      (* R overwrites x0: P gains an out-conflict on shard 0 only. *)
      let r = Shard.begin_txn sys in
      write r x0;
      ignore (Shard.commit r);
      let cts = Shard.commit p in
      Alcotest.(check bool) "committed" true (cts > 0);
      Alcotest.(check int) "no cross-shard abort" 0 (stat sys "shard.cross_aborts"))

(* ---- In-doubt resolution ----------------------------------------------------- *)

let test_indoubt_presumed_abort () =
  with_sys (fun sys ->
      let k = List.hd (keys_on sys 0 1) in
      seed_keys sys [ k ];
      (* An orphaned prepared branch — as if its coordinator vanished
         before reaching a decision.  No logged decision: presumed abort. *)
      let e = (Shard.engines sys).(0) in
      let txn = E.begin_txn e in
      ignore (E.update txn ~table ~key:(vi k) ~f:(fun row -> [| row.(0); vi 99 |]));
      E.prepare txn ~gid:"orphan";
      Alcotest.(check (list string)) "prepared" [ "orphan" ] (E.prepared_gids e);
      Alcotest.(check (list int)) "scan touched shard 0" [ 0 ] (Shard.resolve_indoubt sys);
      Alcotest.(check (list string)) "rolled back" [] (E.prepared_gids e);
      Alcotest.(check int) "presumed abort counted" 1 (stat sys "shard.indoubt_aborts");
      Alcotest.(check (list int)) "scan idempotent" [] (Shard.resolve_indoubt sys);
      (* The rollback released the write lock and kept the old version. *)
      let g = Shard.begin_txn sys in
      Alcotest.(check int) "old version survives" 1 (stamp_of g k);
      write g k;
      ignore (Shard.commit g))

(* ---- Multi-shard DSG: histories joined on gids ------------------------------- *)

module Rec = Ssi_engine.Recorded

let entry ?gid ~xid ~cseq ?(reads = []) ?(writes = []) () =
  let rel = "t" in
  {
    Rec.xid;
    gid;
    cseq;
    reads =
      List.map (fun k -> Rec.Point { rel; key = Value.Int k; version = Some 1; horizon = 0 }) reads;
    writes =
      List.map
        (fun k ->
          { Rec.rel; key = Value.Int k; old_keys = []; new_keys = [ ("t_pkey", Value.Int k) ] })
        writes;
  }

(* Cross-shard write skew: g2 reads x (shard 0) and writes y (shard 1); g3
   reads y (shard 1) and writes x (shard 0).  Each shard's history is one
   harmless edge; joined on the gids they are the cycle g2 -rw-> g3 -rw->
   g2.  The branches carry their shard's local xids. *)
let cross_shard_histories () =
  ( [ entry ~gid:"g3" ~xid:7 ~cseq:2 ~writes:[ 10 ] (); entry ~gid:"g2" ~xid:8 ~cseq:3 ~reads:[ 10 ] () ],
    [ entry ~gid:"g3" ~xid:4 ~cseq:2 ~reads:[ 20 ] (); entry ~gid:"g2" ~xid:5 ~cseq:3 ~writes:[ 20 ] () ] )

let test_join_detects_cross_shard_cycle () =
  let shard0, shard1 = cross_shard_histories () in
  (match Ssi_check.Dsg.check [ shard0 ] with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "shard 0 alone must look serializable");
  (match Ssi_check.Dsg.check [ shard1 ] with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "shard 1 alone must look serializable");
  match Ssi_check.Dsg.check [ shard0; shard1 ] with
  | Ok () -> Alcotest.fail "the joined histories must expose the cross-shard cycle"
  | Error cycle ->
      Alcotest.(check (list string)) "cycle over g2/g3" [ "g2"; "g3" ]
        (List.sort compare (Ssi_check.Dsg.cycle_nodes cycle))

let test_join_merges_branches () =
  let shard0, shard1 = cross_shard_histories () in
  match Ssi_check.Dsg.check [ shard0; shard1 ] with
  | Ok () -> Alcotest.fail "expected the cross-shard cycle"
  | Error cycle ->
      (* One node per global transaction, and its report lists both
         branches: both shards' footprints belong to it. *)
      let text = Ssi_check.Dsg.pp_cycle cycle in
      Alcotest.(check int) "two transactions" 2 (List.length (Ssi_check.Dsg.cycle_nodes cycle));
      List.iter
        (fun branch ->
          Alcotest.(check bool) (branch ^ " listed") true
            (List.exists
               (String.starts_with ~prefix:branch)
               (List.map String.trim (String.split_on_char '\n' text))))
        [ "txn g3 (xid 7"; "txn g3 (xid 4"; "txn g2 (xid 8"; "txn g2 (xid 5" ]

(* ---- Sharded chaos harness ---------------------------------------------------- *)

let check_clean o name =
  match o.Sharded.violation with
  | None -> ()
  | Some v -> Alcotest.failf "%s: %s" name v

let test_harness_acceptance () =
  let o = Sharded.run Sharded.default_cfg in
  check_clean o "default cfg";
  Alcotest.(check bool) "commits happened" true (o.Sharded.commits > 50);
  Alcotest.(check bool) "2PC exercised" true (o.Sharded.twopc > 0);
  Alcotest.(check bool) "fast path exercised" true (o.Sharded.fastpath > 0);
  Alcotest.(check int) "crash executed" 1 o.Sharded.crashes

let test_harness_deterministic_replay () =
  let cfg = { Sharded.default_cfg with Sharded.seed = 11; shards = 3 } in
  let v = Scenario.replay (module Sharded) cfg in
  check_clean v.outcome "seed 11";
  Alcotest.(check bool) "byte-identical replay" true v.identical;
  Alcotest.(check int) "exit code" 0 v.exit_code

let test_harness_seed_matrix () =
  List.iter
    (fun (seed, shards) ->
      let cfg =
        { Sharded.default_cfg with Sharded.seed; shards; txns_per_worker = 25 }
      in
      let o = Sharded.run cfg in
      check_clean o (Printf.sprintf "seed %d shards %d" seed shards))
    [ (2, 1); (3, 2); (4, 4); (5, 2) ]

(* ---- Bench scaling ------------------------------------------------------------ *)

let test_bench_throughput_scales () =
  let tput shards =
    (Sharded.bench ~duration:0.2 ~shards ~seed:5 ()).Driver.throughput
  in
  let t1 = tput 1 and t2 = tput 2 and t4 = tput 4 in
  Alcotest.(check bool)
    (Printf.sprintf "throughput monotone 1->2->4 shards (%.0f, %.0f, %.0f)" t1 t2 t4)
    true
    (t1 < t2 && t2 < t4)

let () =
  Alcotest.run "shard"
    [
      ( "routing",
        [
          Alcotest.test_case "partitioner" `Quick test_partitioner;
          Alcotest.test_case "single-shard fast path" `Quick test_fastpath_single_shard;
          Alcotest.test_case "multi-shard 2PC" `Quick test_multi_shard_2pc_commits;
          Alcotest.test_case "multi-shard read-only fast path" `Quick
            test_multi_shard_readonly_skips_2pc;
        ] );
      ( "certification",
        [
          Alcotest.test_case "cross-shard pivot aborted" `Quick
            test_cross_shard_pivot_aborted;
          Alcotest.test_case "same-shard conflicts stay local" `Quick
            test_same_shard_conflicts_stay_local;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "in-doubt presumed abort" `Quick test_indoubt_presumed_abort;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "gid join exposes cross-shard cycle" `Quick
            test_join_detects_cross_shard_cycle;
          Alcotest.test_case "gid join merges branches" `Quick test_join_merges_branches;
        ] );
      ( "chaos-harness",
        [
          Alcotest.test_case "acceptance" `Quick test_harness_acceptance;
          Alcotest.test_case "deterministic replay" `Quick test_harness_deterministic_replay;
          Alcotest.test_case "seed matrix" `Quick test_harness_seed_matrix;
        ] );
      ( "bench",
        [
          Alcotest.test_case "throughput scales with shards" `Quick
            test_bench_throughput_scales;
        ] );
    ]
