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

let with_sys ?config ?(shards = 2) ?(seed = 7) f =
  ignore
    (Sim.run (fun () ->
         let sys = Shard.create ?config ~shards ~seed () in
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

(* ---- Summarized conflict partners (§6.2) ----------------------------------- *)

(* Record every shard's history from now on; the returned thunk checks
   them, joined on gids, as one DSG. *)
let record sys =
  let h = Array.make (Shard.shards sys) [] in
  Array.iteri
    (fun s e -> E.set_recorder e (Some (fun t -> h.(s) <- t :: h.(s))))
    (Shard.engines sys);
  fun () -> Ssi_check.Dsg.check (Array.to_list (Array.map List.rev h))

let acyclic = function
  | Ok () -> ()
  | Error cycle -> Alcotest.failf "joined DSG is cyclic:\n%s" (Ssi_check.Dsg.pp_cycle cycle)

let test_summarized_partners_split_pivot () =
  (* The split pivot G with both partners summarized as soon as they
     commit (no retained committed transactions).  G reads b (shard 1)
     and d (shard 0, taking its snapshot there).  T3 overwrites b and c
     and commits: G --rw--> T3 on shard 1.  T1 reads T3's c and reads a,
     and commits: T3 --wr--> T1.  G then writes a: T1 --rw--> G on shard
     0.  The cycle G -> T3 -> T1 -> G has each rw edge running to a
     summarized partner, which a branch must still report. *)
  with_sys ~config:(Shard_sweep.config ~budget:0) (fun sys ->
      let a, c, d = match keys_on sys 0 3 with [ a; c; d ] -> (a, c, d) | _ -> assert false in
      let b = List.hd (keys_on sys 1 1) in
      seed_keys sys [ a; b; c; d ];
      let dsg = record sys in
      let g = Shard.begin_txn sys in
      ignore (stamp_of g b);
      ignore (stamp_of g d);
      let t3 = Shard.begin_txn sys in
      write t3 b;
      write t3 c;
      ignore (Shard.commit t3);
      let t1 = Shard.begin_txn sys in
      Alcotest.(check int) "T1 reads T3's c" (Shard.gxid t3) (stamp_of t1 c);
      ignore (stamp_of t1 a);
      ignore (Shard.commit t1);
      write g a;
      (match Shard.commit g with
      | (_ : int) -> Alcotest.fail "the split pivot must not commit"
      | exception E.Error (E.Serialization_failure { reason; _ }) ->
          Alcotest.(check string) "cross-shard abort"
            "cross-shard pivot: conflict in on shard 0, out on shard 1" reason);
      acyclic (dsg ()))

let test_summarization_sweep () =
  List.iter
    (fun budget ->
      for seed = 1 to 50 do
        match Shard_sweep.cycle ~budget ~seed with
        | None -> ()
        | Some cycle ->
            Alcotest.failf "budget %d seed %d: joined DSG is cyclic:\n%s" budget seed
              (Ssi_check.Dsg.pp_cycle cycle)
      done)
    [ 0; 1 ]

(* ---- Wound-wait --------------------------------------------------------------- *)

(* Run [body g] in its own process and commit; the outcome and the virtual
   time it came at land in [cell]. *)
let session cell g body =
  Sim.spawn (fun () ->
      let outcome =
        match
          body g;
          Shard.commit g
        with
        | (_ : int) -> "committed"
        | exception E.Error e when E.retryable e ->
            Shard.abort g;
            E.message e
      in
      cell := Some (outcome, Sim.now ()))

let wounded = "could not serialize access: wounded by an older transaction"

let outcome name cell =
  match !cell with Some (o, at) -> (o, at) | None -> Alcotest.failf "%s never finished" name

let test_opposite_orders_older_wins () =
  (* G1 (older) and G2 update x on shard 0 and y on shard 1 in opposite
     orders: a cycle neither engine sees.  G2 waits for G1's x; then G1
     wants G2's y and wounds G2, which is waiting, at once. *)
  with_sys (fun sys ->
      let x = List.hd (keys_on sys 0 1) and y = List.hd (keys_on sys 1 1) in
      seed_keys sys [ x; y ];
      let g1 = Shard.begin_txn sys and g2 = Shard.begin_txn sys in
      let r1 = ref None and r2 = ref None in
      session r1 g1 (fun g ->
          write g x;
          Sim.delay 1e-3;
          write g y);
      session r2 g2 (fun g ->
          write g y;
          Sim.delay 5e-4;
          write g x);
      Sim.delay 0.01;
      let o1, at1 = outcome "G1" r1 and o2, at2 = outcome "G2" r2 in
      Alcotest.(check string) "older commits" "committed" o1;
      Alcotest.(check string) "the younger is wounded" wounded o2;
      Alcotest.(check bool)
        (Printf.sprintf "resolved in %.2f ms, not 50" (1e3 *. Float.max at1 at2))
        true
        (Float.max at1 at2 < 5e-3);
      Alcotest.(check int) "one wound" 1 (stat sys "shard.wounds");
      let g = Shard.begin_txn sys in
      Alcotest.(check (pair int int)) "G1's writes stand" (Shard.gxid g1, Shard.gxid g1)
        (stamp_of g x, stamp_of g y);
      ignore (Shard.commit g))

let test_three_gtxn_cycle () =
  (* A < C < B by gxid.  A holds a on shard 1, C holds c and B holds b on
     shard 0.  B waits for C on shard 0 and C for A on shard 1: both
     younger-waits-for-older, so both wait.  Then A wants b: B is younger,
     so A wounds it, and B's wait for C must end now, or B never fails,
     A never gets b and C never gets a. *)
  with_sys (fun sys ->
      let b, c = match keys_on sys 0 2 with [ b; c ] -> (b, c) | _ -> assert false in
      let a = List.hd (keys_on sys 1 1) in
      seed_keys sys [ a; b; c ];
      let ga = Shard.begin_txn sys in
      let gc = Shard.begin_txn sys in
      let gb = Shard.begin_txn sys in
      let ra = ref None and rb = ref None and rc = ref None in
      session ra ga (fun g ->
          write g a;
          Sim.delay 1.5e-3;
          write g b);
      session rc gc (fun g ->
          write g c;
          Sim.delay 1e-3;
          write g a);
      session rb gb (fun g ->
          write g b;
          Sim.delay 5e-4;
          write g c);
      Sim.delay 0.04;
      let oa, at = outcome "A" ra and ob, _ = outcome "B" rb and oc, _ = outcome "C" rc in
      Alcotest.(check string) "A commits" "committed" oa;
      Alcotest.(check string) "B is wounded" wounded ob;
      Alcotest.(check string) "C loses to A's committed a"
        "could not serialize access: could not serialize access due to concurrent update" oc;
      Alcotest.(check bool) (Printf.sprintf "A done at %.2f ms" (1e3 *. at)) true (at < 5e-3);
      Alcotest.(check int) "one wound" 1 (stat sys "shard.wounds"))

let test_prepared_holder_not_wounded () =
  (* Y (younger) inserts z on shard 0 and prepares there, but cannot
     reach shard 1, so its 2PC times out.  O (older) then inserts z too: a
     prepared branch waits for nothing, so O waits instead of wounding,
     and inserts z once Y's abort reaches shard 0. *)
  with_sys (fun sys ->
      let z = List.hd (keys_on sys 0 1) and y = List.hd (keys_on sys 1 1) in
      seed_keys sys [ y ];
      (Shard.net_ops sys).Ssi_net.Net.o_partition "coord" "s1";
      let go = Shard.begin_txn sys and gy = Shard.begin_txn sys in
      let insert g k = Shard.insert g ~table [| vi k; vi (Shard.gxid g) |] in
      let ro = ref None and ry = ref None in
      session ry gy (fun g ->
          insert g z;
          write g y);
      session ro go (fun g ->
          Sim.delay 5e-3;
          Alcotest.(check (list string)) "Y prepared on shard 0"
            [ Printf.sprintf "g%d" (Shard.gxid gy) ]
            (E.prepared_gids (Shard.engines sys).(0));
          insert g z);
      Sim.delay 0.2;
      let oo, at_o = outcome "O" ro and oy, at_y = outcome "Y" ry in
      Alcotest.(check string) "O commits" "committed" oo;
      Alcotest.(check string) "Y's 2PC times out"
        "shard.commit: prepare timeout: participant unreachable" oy;
      Alcotest.(check bool)
        (Printf.sprintf "O (%.1f ms) waited for Y's abort (%.1f ms)" (1e3 *. at_o) (1e3 *. at_y))
        true (at_o > 0.03);
      Alcotest.(check int) "no wound" 0 (stat sys "shard.wounds");
      let g = Shard.begin_txn sys in
      Alcotest.(check int) "O's insert stands" (Shard.gxid go) (stamp_of g z);
      ignore (Shard.commit g))

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
          Alcotest.test_case "summarized partners still split a pivot" `Quick
            test_summarized_partners_split_pivot;
          Alcotest.test_case "summarization sweep, seeds 1-50" `Quick test_summarization_sweep;
        ] );
      ( "wound-wait",
        [
          Alcotest.test_case "opposite orders: the older commits" `Quick
            test_opposite_orders_older_wins;
          Alcotest.test_case "three-gtxn cycle through two shards" `Quick test_three_gtxn_cycle;
          Alcotest.test_case "a prepared holder is never wounded" `Quick
            test_prepared_holder_not_wounded;
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
