(* The acceptance scenario for partition-tolerant WAL streaming: a seeded
   chaos run in which the network drops/duplicates/reorders traffic, a
   partition isolates the primary, a replica is promoted behind its back
   (fenced failover at a higher epoch), and the partition heals.

   Checked invariants:
   - the surviving lineage — the old primary's commit prefix the promoted
     replica had applied, followed by every commit on the new primary — has
     an acyclic serialization graph: each primary records its history, each
     history is acyclic (Ssi_check.Dsg), and the promoted primary starts
     from the old one's state at the promotion point, so no dependency
     leads from the new era back into the old;
   - the deposed primary is fenced on first contact after the heal, its
     post-heal commit attempts are refused, and none of its
     partition-era writes appear anywhere in the new era;
   - all replicas converge to a byte-identical copy of the acting
     primary's state;
   - the entire run — chaos log included — replays identically from the
     seed. *)

open Ssi_storage
module E = Ssi_engine.Engine
module R = Ssi_replication.Replica
module Stream = Ssi_replication.Stream
module Net = Ssi_net.Net
module Obs = Ssi_obs.Obs
module Sim = Ssi_sim.Sim
module F = Ssi_fault.Fault
module Rng = Ssi_util.Rng

let vi i = Value.Int i
let table = "kv"
let keys = 16
let workers = 4
let txns_per_worker = 60

(* New-era writers stamp rows with their xid offset into a disjoint space,
   so the final state tells which era wrote each row. *)
let era_offset = 1_000_000

type scenario_result = {
  old_era : Ssi_check.Dsg.history;  (** the original primary's recorded history *)
  new_era : Ssi_check.Dsg.history;  (** the promoted primary's *)
  violation : string option;  (** a cycle in either era, or a wrong promoted state *)
  final_rows : (int * int) list;  (** acting primary's state, sorted *)
  r2_rows : (int * int) list;
  promote_cseq : int;
  discarded : int;
  old_deposed : bool;
  fenced_refusals : int;  (** commit attempts refused by the fence *)
  old_commits_total : int;
  new_commits_total : int;
  chaos_log : string list;
  partition_drops : int;
}

let sorted_rows scan =
  List.sort compare (List.map (fun r -> (Value.as_int r.(0), Value.as_int r.(1))) scan)

(* A worker transaction: random point reads and writes, every write
   stamped with the transaction's era-qualified id. *)
let txn_body rng off t =
  let me = off + E.xid t in
  for _ = 1 to 4 do
    let k = Rng.int rng keys in
    if Rng.chance rng 0.5 then begin
      if not (E.update t ~table ~key:(vi k) ~f:(fun row -> [| row.(0); vi me |])) then
        try E.insert t ~table [| vi k; vi me |] with E.Error (E.Unique_violation _) -> ()
    end
    else ignore (E.read t ~table ~key:(vi k))
  done

let run_scenario seed =
  let costs =
    { E.zero_costs with E.cpu_per_op = 60e-6; cpu_per_tuple = 3e-6; io_commit = 30e-6 }
  in
  let config = { E.default_config with E.costs } in
  let db = E.create ~scheduler:Sim.scheduler ~config () in
  let net = Net.create ~obs:(E.obs db) ~seed () in
  let old_era = ref [] and new_era = ref [] and promoted_rows = ref [] in
  let current = ref None in (* set after failover: (engine, offset) *)
  let failed_over = ref None in
  let old_p = ref None in
  let s2_ref = ref None in
  let fenced_refusals = ref 0 in
  let chaos_lines = ref [] in
  let plan =
    {
      F.seed;
      events =
        [
          { F.at = 0.02; kind = F.Net_chaos { drop = 0.08; dup = 0.08; reorder = 0.15; duration = 0.06 } };
          { F.at = 0.05; kind = F.Partition { victim = 0; duration = 0.03 } };
          { F.at = 0.06; kind = F.Failover };
        ];
    }
  in
  ignore
    (Sim.run (fun () ->
         E.create_table db ~name:table ~cols:[ "k"; "writer" ] ~key:"k";
         E.with_txn db (fun t ->
             assert (E.xid t = 1);
             for k = 0 to (keys / 2) - 1 do
               E.insert t ~table [| vi k; vi (E.xid t) |]
             done);
         E.set_recorder db (Some (fun entry -> old_era := entry :: !old_era));
         let p = Stream.make_primary net ~node:"p" ~epoch:1 db in
         old_p := Some p;
         let c1 = R.create ~obs:(E.obs db) ~name:"r1" () in
         let c2 = R.create ~obs:(E.obs db) ~name:"r2" () in
         let s1 = Stream.subscribe net ~node:"r1" ~primary_node:"p" ~epoch:1 c1 in
         let s2 = Stream.subscribe net ~node:"r2" ~primary_node:"p" ~epoch:1 c2 in
         s2_ref := Some s2;
         let observer phase (ev : F.event) =
           match (phase, ev.F.kind) with
           | `After, F.Failover ->
               let fo = Stream.promote s1 `Latest_applied in
               failed_over := Some fo;
               let ne = fo.Stream.new_primary in
               promoted_rows :=
                 sorted_rows (E.with_txn (Stream.engine ne) (fun t -> E.seq_scan t ~table ()));
               E.set_recorder (Stream.engine ne) (Some (fun entry -> new_era := entry :: !new_era));
               Stream.resubscribe s2 ~primary_node:(Stream.sub_node s1)
                 ~epoch:(Stream.epoch ne);
               current := Some (Stream.engine ne, era_offset)
           | _ -> ()
         in
         Sim.spawn (fun () ->
             F.execute ~observer
               { F.engine = db; injector = None; replica = None; fleet = []; net = Some net; net_ops = None }
               plan
               ~log:(fun l -> chaos_lines := l :: !chaos_lines));
         for w = 1 to workers do
           (* Worker [workers] stays pinned to the original primary: the
              deposed node's clients, still writing through the partition
              and after the heal. *)
           let pinned = w = workers in
           let rng = Rng.make (Hashtbl.hash (seed, w)) in
           Sim.spawn (fun () ->
               for _ = 1 to txns_per_worker do
                 let eng, off =
                   if pinned then (db, 0)
                   else match !current with Some c -> c | None -> (db, 0)
                 in
                 (try E.with_txn ~isolation:E.Serializable eng (fun t -> txn_body rng off t) with
                 | E.Error (E.Serialization_failure _) -> ()
                 | E.Error (E.Transient_fault { reason; _ }) ->
                     if String.length reason >= 7 && String.sub reason 0 7 = "primary" then
                       incr fenced_refusals);
                 Sim.delay (Rng.float rng 0.003)
               done)
         done;
         (* Quiesce well past the last worker, then drive the catch-up. *)
         Sim.at ~after:0.5 (fun () ->
             Net.set_chaos net ~drop:0. ~duplicate:0. ~reorder:0. ();
             Net.heal_all net;
             match !failed_over with
             | None -> ()
             | Some fo ->
                 let np = fo.Stream.new_primary in
                 let rounds = ref 0 in
                 while
                   R.applied_cseq c2 < Stream.last_cseq np && !rounds < 100
                 do
                   incr rounds;
                   (* From both ends: a subscribe request the faults
                      swallowed leaves the new primary unaware of r2. *)
                   Stream.retransmit_unacked np;
                   Option.iter Stream.sync !s2_ref;
                   Sim.delay 0.01
                 done)));
  let fo = match !failed_over with Some fo -> fo | None -> Alcotest.fail "no failover ran" in
  let np = fo.Stream.new_primary in
  let promote_cseq = fo.Stream.promotion.R.promote_cseq in
  let old_era = List.rev !old_era and new_era = List.rev !new_era in
  (* The old era's state at the promotion point, by writer stamp: what the
     promoted primary must start from. *)
  let state_at_promotion =
    let stamp = Hashtbl.create keys in
    for k = 0 to (keys / 2) - 1 do
      Hashtbl.replace stamp k 1
    done;
    List.iter
      (fun (t : Ssi_engine.Recorded.txn) ->
        if t.cseq <= promote_cseq then
          List.iter
            (fun (w : Ssi_engine.Recorded.write) -> Hashtbl.replace stamp (Value.as_int w.key) t.xid)
            t.writes)
      old_era;
    List.sort compare (Hashtbl.fold (fun k x acc -> (k, x) :: acc) stamp [])
  in
  let writer (t : Ssi_engine.Recorded.txn) = t.writes <> [] in
  let cyclic name h =
    match Ssi_check.Dsg.check [ h ] with
    | Ok () -> None
    | Error c -> Some (Printf.sprintf "%s: %s" name (Ssi_check.Dsg.pp_cycle c))
  in
  let final_rows =
    sorted_rows (E.with_txn (Stream.engine np) (fun t -> E.seq_scan t ~table ()))
  in
  let r2 = match !s2_ref with Some s -> Stream.core s | None -> assert false in
  {
    old_era;
    new_era;
    violation =
      List.find_map Fun.id
        [
          cyclic "old era" old_era;
          cyclic "new era" new_era;
          (if !promoted_rows = state_at_promotion then None
           else Some "the promoted state is not the old era's state at the promotion point");
        ];
    final_rows;
    r2_rows = sorted_rows (E.seq_scan (R.begin_read r2 `Latest_applied) ~table ());
    promote_cseq;
    discarded = fo.Stream.promotion.R.discarded_commits;
    old_deposed = (match !old_p with Some p -> Stream.is_deposed p | None -> false);
    fenced_refusals = !fenced_refusals;
    old_commits_total = List.length (List.filter writer old_era);
    new_commits_total = List.length (List.filter writer new_era);
    chaos_log = List.rev !chaos_lines;
    partition_drops = List.assoc "net.partition_drops" (Net.stats net);
  }

let test_acceptance () =
  let r = run_scenario 1234 in
  Alcotest.(check bool) "old era produced commits" true (r.old_commits_total > 0);
  Alcotest.(check bool) "new era produced commits" true (r.new_commits_total > 0);
  Alcotest.(check bool) "partition actually cut traffic" true (r.partition_drops > 0);
  Alcotest.(check bool) "promotion found a prefix" true (r.promote_cseq > 0);
  Option.iter (Alcotest.failf "the failover lineage is not serializable: %s") r.violation;
  Alcotest.(check bool) "old primary saw it was deposed" true r.old_deposed;
  Alcotest.(check bool) "fenced primary refused post-heal commits" true
    (r.fenced_refusals > 0);
  (* Zero accepted writes from the fenced era: every old-era stamp in the
     surviving state belongs to the promoted prefix. *)
  List.iter
    (fun (k, stamp) ->
      if stamp <> 0 && stamp <> 1 && stamp < era_offset then
        let in_prefix =
          List.exists
            (fun (t : Ssi_engine.Recorded.txn) -> t.xid = stamp && t.cseq <= r.promote_cseq)
            r.old_era
        in
        if not in_prefix then
          Alcotest.failf "key %d carries fenced-era stamp %d" k stamp)
    r.final_rows;
  Alcotest.(check bool) "replica converged byte-identically" true
    (r.r2_rows = r.final_rows)

let test_deterministic_replay () =
  let a = run_scenario 777 in
  let b = run_scenario 777 in
  Alcotest.(check (list string)) "chaos log replays" a.chaos_log b.chaos_log;
  Alcotest.(check bool) "histories replay" true (a.old_era = b.old_era && a.new_era = b.new_era);
  Alcotest.(check bool) "final state replays" true
    (a.final_rows = b.final_rows && a.r2_rows = b.r2_rows);
  Alcotest.(check int) "fence refusals replay" a.fenced_refusals b.fenced_refusals

let test_seed_matrix () =
  (* A small in-test matrix: the scenario's invariants hold across seeds,
     not just a lucky one.  CI runs a wider sweep via `pg_ssi chaos`. *)
  List.iter
    (fun seed ->
      let r = run_scenario seed in
      Option.iter (Alcotest.failf "seed %d: %s" seed) r.violation;
      if r.r2_rows <> r.final_rows then Alcotest.failf "seed %d: replica diverged" seed)
    [ 2; 3; 5; 8 ]

let () =
  Alcotest.run "net-chaos"
    [
      ( "partition-failover-heal",
        [
          Alcotest.test_case "acceptance scenario" `Quick test_acceptance;
          Alcotest.test_case "deterministic replay" `Quick test_deterministic_replay;
          Alcotest.test_case "seed matrix" `Quick test_seed_matrix;
        ] );
    ]
