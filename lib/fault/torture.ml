open Ssi_storage
module E = Ssi_engine.Engine
module Wal = Ssi_wal.Wal
module Sim = Ssi_sim.Sim
module R = Ssi_replication.Replica
module Stream = Ssi_replication.Stream
module Net = Ssi_net.Net
module Rng = Ssi_util.Rng

let table = "kv"
let keys = 16
let vi i = Value.Int i

(* Same cost model as the chaos suite: operations take virtual time, so
   flushes batch, commits overlap, and a kill point lands mid-flush. *)
let sim_costs =
  { E.zero_costs with E.cpu_per_op = 80e-6; cpu_per_tuple = 4e-6; io_commit = 40e-6 }

let config ~certifier =
  {
    E.default_config with
    E.costs = sim_costs;
    certifier = { Ssi_core.Certifier.default_config with kind = certifier };
  }

let flush_interval = 2e-4
let workers = 4
let txns_per_worker = 12
let ops_per_txn = 4
let sentinels = 3

type txn_log = {
  l_xid : int;
  l_cseq : int;
  l_reads : (int * int) list;
  l_writes : int list;
}

type resolution = Committed | Rolled_back

type outcome = {
  o_seed : int;
  o_kill_point : int;
  o_crashed : bool;
  o_damage : string option;
  o_acked : int list;
  o_lost_acked : int list;
  o_dense_prefix : bool;
  o_truncated : int;
  o_replayed : int;
  o_prepared_pending : (string * resolution) list;
  o_prepared_ok : bool;
  o_state_ok : bool;
  o_replica_ok : bool;
  o_epoch : int;
  o_history : txn_log list;
  o_final : (int * int) list;
}

let invariants_ok o =
  o.o_lost_acked = [] && o.o_dense_prefix && o.o_prepared_ok && o.o_state_ok && o.o_replica_ok

let describe_damage = function
  | Wal.Torn_write n -> Printf.sprintf "torn-write:%d" n
  | Wal.Short_write n -> Printf.sprintf "short-write:%d" n
  | Wal.Bit_flip n -> Printf.sprintf "bit-flip:%d" n

let pp_outcome o =
  Printf.sprintf
    "seed=%d kill=%d crashed=%b damage=%s acked=%d lost=%d dense=%b truncated=%d \
     replayed=%d pending=%d prepared_ok=%b state_ok=%b replica_ok=%b epoch=%d"
    o.o_seed o.o_kill_point o.o_crashed
    (Option.value o.o_damage ~default:"none")
    (List.length o.o_acked) (List.length o.o_lost_acked) o.o_dense_prefix o.o_truncated
    o.o_replayed
    (List.length o.o_prepared_pending)
    o.o_prepared_ok o.o_state_ok o.o_replica_ok o.o_epoch

(* One transaction of the torture workload: stamped updates and point
   reads over the shared keys, logging which writer each read observed. *)
let txn_body rng t =
  let reads = ref [] and writes = ref [] in
  let me = E.xid t in
  for _ = 1 to ops_per_txn do
    let k = Rng.int rng keys in
    if Rng.float rng 1.0 < 0.5 then begin
      if E.update t ~table ~key:(vi k) ~f:(fun row -> [| row.(0); vi me |]) then
        writes := k :: !writes
    end
    else
      match E.read t ~table ~key:(vi k) with
      | Some row -> reads := (k, Value.as_int row.(1)) :: !reads
      | None -> ()
  done;
  (me, List.rev !reads, List.rev !writes)

let scan_rows eng =
  List.sort compare
    (List.map
       (fun row -> (Value.as_int row.(0), Value.as_int row.(1)))
       (E.with_txn ~isolation:E.Repeatable_read eng (fun t -> E.seq_scan t ~table ())))

let run_one ?wal_out ?(certifier = Ssi_core.Certifier.SSI) ~seed ~kill_point ~with_damage () =
  let config = config ~certifier in
  let dmg_rng = Rng.make (Hashtbl.hash (seed, kill_point, "torture-damage")) in
  let wal = Wal.create ~flush_interval () in
  let crashed = ref false in
  let fault_count = ref 0 in
  let damage_desc = ref None in
  let acked = ref [] in
  (* Every session's reads/writes by xid — consulted after recovery to give
     unacknowledged-but-durable commits their history entries. *)
  let logs_by_xid : (int, (int * int) list * int list) Hashtbl.t = Hashtbl.create 256 in
  let cseq_of : (int, int) Hashtbl.t = Hashtbl.create 256 in
  (* ---- First life: workload until the kill point destroys the device. *)
  ignore
    (Sim.run (fun () ->
         let db = E.create ~scheduler:Sim.scheduler ~config () in
         E.attach_wal db wal;
         E.set_on_commit db (fun r -> Hashtbl.replace cseq_of r.E.wal_xid r.E.wal_cseq);
         E.create_table db ~name:table ~cols:[ "k"; "writer" ] ~key:"k";
         (* The seeding transaction is the engine's first (xid 1) — the
            oracle's [setup_writer] convention: it stays out of the
            reported history, and reads of its versions are treated as
            reads of the seeded state. *)
         E.with_txn db (fun t ->
             for k = 0 to keys - 1 do
               E.insert t ~table [| vi k; vi (E.xid t) |]
             done);
         E.checkpoint db;
         (* A (subscriber-less) streaming primary: adopts and persists epoch
            1, so the recovered node must resume at a higher epoch. *)
         let net_a : Stream.net = Net.create ~seed:(Hashtbl.hash (seed, "net-a")) () in
         ignore (Stream.make_primary net_a ~node:"p" ~epoch:1 db);
         (* The kill switch: the [kill_point]-th engine fault point crashes
            the durable device mid-flush; afterwards every operation fails
            (the server is down until recovery). *)
         E.set_fault_injector db
           (Some
              (fun ~op ->
                if !crashed then
                  raise (E.Error (E.Transient_fault { op; reason = "server down" }));
                incr fault_count;
                if !fault_count = kill_point then begin
                  crashed := true;
                  let damage =
                    if not with_damage then None
                    else begin
                      let pending = Wal.pending_size wal in
                      if pending = 0 then None
                      else
                        Some
                          (match Rng.int dmg_rng 3 with
                          | 0 -> Wal.Torn_write (Rng.int dmg_rng (pending + 1))
                          | 1 -> Wal.Short_write (1 + Rng.int dmg_rng pending)
                          | _ -> Wal.Bit_flip (Rng.int dmg_rng (pending * 8)))
                    end
                  in
                  damage_desc := Option.map describe_damage damage;
                  Wal.crash ?damage wal;
                  raise (E.Error (E.Transient_fault { op; reason = "server crashed at kill point" }))
                end));
         (* 2PC sentinels: prepared mid-workload, committed a while later —
            a kill between the two leaves an in-doubt transaction for
            recovery to reinstate. *)
         for n = 1 to sentinels do
           Sim.at
             ~after:(float_of_int n *. 4e-4)
             (fun () ->
               try
                 let gid = Printf.sprintf "tort-%d" n in
                 let t = E.begin_txn db in
                 E.insert t ~table [| vi (1000 + n); vi (E.xid t) |];
                 Hashtbl.replace logs_by_xid (E.xid t) ([], [ 1000 + n ]);
                 E.prepare t ~gid;
                 Sim.at ~after:1.5e-3 (fun () ->
                     if (not !crashed) && List.mem gid (E.prepared_gids db) then
                       try E.commit_prepared db ~gid with E.Error (E.Transient_fault _) -> ())
               with
               | E.Error (E.Transient_fault _ | E.Serialization_failure _ | E.Unique_violation _) ->
                   ())
         done;
         for w = 1 to workers do
           let rng = Rng.make (Hashtbl.hash (seed, "torture-worker", w)) in
           Sim.spawn (fun () ->
               for _ = 1 to txns_per_worker do
                 (try
                    let xid, reads, writes =
                      E.with_txn db (fun t ->
                          let ((xid, reads, writes) as r) = txn_body rng t in
                          Hashtbl.replace logs_by_xid xid (reads, writes);
                          r)
                    in
                    (* [with_txn] returned: the commit was acknowledged, so
                       it must survive the crash. *)
                    match Hashtbl.find_opt cseq_of xid with
                    | Some cseq ->
                        acked := { l_xid = xid; l_cseq = cseq; l_reads = reads; l_writes = writes } :: !acked
                    | None -> ()
                  with E.Error e when E.retryable e -> ());
                 Sim.delay (Rng.float rng 3e-4)
               done)
         done));
  (* ---- Second life: cold-start recovery from the (damaged) log, in-doubt
     resolution, more workload, and a streaming replica resync. *)
  let report = ref None in
  let pending_resolved = ref [] in
  let prepared_ok = ref false in
  let state_ok = ref false in
  let replica_ok = ref false in
  let epoch_b = ref 0 in
  let final = ref [] in
  let recovered = ref [] in
  let post_history = ref [] in
  ignore
    (Sim.run (fun () ->
         let db2, rr = E.recover ~scheduler:Sim.scheduler ~config wal in
         report := Some rr;
         let records, _ = Wal.read_all wal in
         let commits =
           List.filter_map
             (function
               | Wal.Commit { c_cseq; c_xid; c_ops; _ } -> Some (c_cseq, c_xid, c_ops)
               | _ -> None)
             records
           |> List.sort compare
         in
         recovered := commits;
         (* In-doubt set per the log: prepared with no later commit/abort. *)
         let in_doubt =
           List.fold_left
             (fun acc r ->
               match r with
               | Wal.Prepare p -> p.Wal.p_gid :: acc
               | Wal.Commit { c_gid = Some g; _ } | Wal.Abort { a_gid = g; _ } ->
                   List.filter (fun x -> x <> g) acc
               | _ -> acc)
             [] records
           |> List.sort compare
         in
         prepared_ok := in_doubt = List.sort compare (E.prepared_gids db2);
         (* Durable-state invariant: the recovered table equals the replay
            of the recovered commit records in cseq order (prepared
            transactions are reinstated but not visible). *)
         let model : (int, int) Hashtbl.t = Hashtbl.create 64 in
         List.iter
           (fun (_, _, ops) ->
             List.iter
               (function
                 | Wal.Insert { key; row; _ } | Wal.Update { key; row; _ } ->
                     Hashtbl.replace model (Value.as_int key) (Value.as_int row.(1))
                 | Wal.Delete { key; _ } -> Hashtbl.remove model (Value.as_int key))
               ops)
           commits;
         let expected =
           List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) model [])
         in
         state_ok := scan_rows db2 = expected;
         (* Resume streaming at a fenced, higher epoch; a fresh subscriber
            takes the normal base-snapshot bootstrap path. *)
         let cseq_of2 : (int, int) Hashtbl.t = Hashtbl.create 64 in
         E.set_on_commit db2 (fun r -> Hashtbl.replace cseq_of2 r.E.wal_xid r.E.wal_cseq);
         let net : Stream.net = Net.create ~seed:(Hashtbl.hash (seed, "net-b")) () in
         let primary = Stream.make_primary net ~node:"p" ~epoch:(rr.rr_epoch + 1) db2 in
         epoch_b := Stream.epoch primary;
         let core = R.create () in
         let sub = Stream.subscribe net ~node:"r" ~primary_node:"p" ~epoch:0 core in
         (* Resolve every in-doubt transaction, alternating coordinator
            verdicts so both COMMIT PREPARED and ROLLBACK PREPARED recovery
            paths are exercised. *)
         List.iteri
           (fun i gid ->
             if i mod 2 = 0 then begin
               E.commit_prepared db2 ~gid;
               pending_resolved := (gid, Committed) :: !pending_resolved
             end
             else begin
               E.rollback_prepared db2 ~gid;
               pending_resolved := (gid, Rolled_back) :: !pending_resolved
             end)
           in_doubt;
         (* Post-recovery workload on the recovered primary. *)
         let done_workers = ref 0 in
         let all_done = Ssi_util.Waitq.create () in
         let post_workers = 2 in
         for w = 1 to post_workers do
           let rng = Rng.make (Hashtbl.hash (seed, "torture-post", w)) in
           Sim.spawn (fun () ->
               for _ = 1 to txns_per_worker do
                 (try
                    let xid, reads, writes =
                      E.with_txn db2 (fun t ->
                          let ((xid, reads, writes) as r) = txn_body rng t in
                          Hashtbl.replace logs_by_xid xid (reads, writes);
                          r)
                    in
                    match Hashtbl.find_opt cseq_of2 xid with
                    | Some cseq ->
                        post_history :=
                          { l_xid = xid; l_cseq = cseq; l_reads = reads; l_writes = writes }
                          :: !post_history
                    | None -> ()
                  with E.Error e when E.retryable e -> ());
                 Sim.delay (Rng.float rng 3e-4)
               done;
               incr done_workers;
               if !done_workers = post_workers then Ssi_util.Waitq.wake_all all_done)
         done;
         while !done_workers < post_workers do
           Sim.wait all_done
         done;
         (* Resolved COMMIT PREPARED transactions join the history with the
            reads/writes their first life logged. *)
         let prep_xid_of_gid =
           List.filter_map
             (function Wal.Prepare p -> Some (p.Wal.p_gid, p.Wal.p_xid) | _ -> None)
             records
         in
         List.iter
           (fun (gid, res) ->
             if res = Committed then
               match List.assoc_opt gid prep_xid_of_gid with
               | Some xid -> (
                   match (Hashtbl.find_opt cseq_of2 xid, Hashtbl.find_opt logs_by_xid xid) with
                   | Some cseq, Some (reads, writes) ->
                       post_history :=
                         { l_xid = xid; l_cseq = cseq; l_reads = reads; l_writes = writes }
                         :: !post_history
                   | _ -> ())
               | None -> ())
           !pending_resolved;
         final := scan_rows db2;
         (* Replica convergence: drain the stream, then both ends must be
            identical — including rows recovered from before the crash. *)
         Stream.sync sub;
         Sim.delay 5e-3;
         let rt = R.begin_read core `Latest_applied in
         let replica_rows =
           List.sort compare
             (List.map
                (fun row -> (Value.as_int row.(0), Value.as_int row.(1)))
                (R.scan rt ~table ()))
         in
         replica_ok := replica_rows = !final));
  (match wal_out with Some path -> Wal.save wal path | None -> ());
  let rr =
    match !report with Some r -> r | None -> assert false (* Sim.run completed *)
  in
  let recovered_cseqs = List.map (fun (c, _, _) -> c) !recovered in
  let dense =
    List.for_all Fun.id (List.mapi (fun i c -> c = i + 1) recovered_cseqs)
    && recovered_cseqs <> []
  in
  let acked = List.sort (fun a b -> compare a.l_cseq b.l_cseq) !acked in
  let lost_acked =
    List.filter_map
      (fun l -> if List.mem l.l_cseq recovered_cseqs then None else Some l.l_cseq)
      acked
  in
  (* The combined history: every recovered first-life commit that has a
     session log (acknowledged or not — durable is durable), then the
     second life's commits, in commit-sequence order. *)
  let hist_a =
    List.filter_map
      (fun (cseq, xid, _) ->
        match Hashtbl.find_opt logs_by_xid xid with
        | Some (reads, writes) ->
            Some { l_xid = xid; l_cseq = cseq; l_reads = reads; l_writes = writes }
        | None -> None)
      !recovered
  in
  let history =
    List.sort (fun a b -> compare a.l_cseq b.l_cseq) (hist_a @ !post_history)
  in
  {
    o_seed = seed;
    o_kill_point = kill_point;
    o_crashed = !crashed;
    o_damage = !damage_desc;
    o_acked = List.map (fun l -> l.l_cseq) acked;
    o_lost_acked = lost_acked;
    o_dense_prefix = dense;
    o_truncated = rr.E.rr_truncated;
    o_replayed = rr.E.rr_records;
    o_prepared_pending = List.rev !pending_resolved;
    o_prepared_ok = !prepared_ok;
    o_state_ok = !state_ok;
    o_replica_ok = !replica_ok;
    o_epoch = !epoch_b;
    o_history = history;
    o_final = !final;
  }

let sweep ?wal_out ?certifier ?(max_kills = 64) ?(kill_every = 1) ~seed ~with_damage () =
  let rec go n kill acc =
    if n > max_kills then List.rev acc
    else begin
      let wal_out = if n = 1 then wal_out else None in
      let o = run_one ?wal_out ?certifier ~seed ~kill_point:kill ~with_damage () in
      if o.o_crashed then go (n + 1) (kill + kill_every) (o :: acc) else List.rev (o :: acc)
    end
  in
  go 1 kill_every []

module Sweep = struct
  type cfg = {
    seed : int;
    certifier : Ssi_core.Certifier.kind;
    kill_points : int;
    kill_every : int;
    torn_writes : bool;
    wal_out : string option;
  }

  type nonrec outcome = { runs : outcome list; saved_to : string option }

  let header c =
    Printf.sprintf "recovery torture seed=%d certifier=%s kill-points=%d stride=%d torn-writes=%b\n"
      c.seed
      (Ssi_core.Certifier.kind_to_string c.certifier)
      c.kill_points c.kill_every c.torn_writes

  let run c =
    {
      runs =
        sweep ?wal_out:c.wal_out ~certifier:c.certifier ~max_kills:c.kill_points
          ~kill_every:c.kill_every ~seed:c.seed ~with_damage:c.torn_writes ();
      saved_to = c.wal_out;
    }

  let ok o = List.for_all invariants_ok o.runs

  let pp ppf o =
    let count p = List.length (List.filter p o.runs) in
    List.iter (fun r -> Format.fprintf ppf "  %s@." (pp_outcome r)) o.runs;
    Format.fprintf ppf "ran %d recoveries: %d crashed, %d damaged tails, %d truncations@."
      (List.length o.runs)
      (count (fun r -> r.o_crashed))
      (count (fun r -> r.o_damage <> None))
      (count (fun r -> r.o_truncated > 0));
    Option.iter (Format.fprintf ppf "first run's log saved to %s@.") o.saved_to;
    match List.filter (fun r -> not (invariants_ok r)) o.runs with
    | [] -> Format.fprintf ppf "all durability invariants held@."
    | bad ->
        Format.fprintf ppf "INVARIANT VIOLATIONS:@.";
        List.iter (fun r -> Format.fprintf ppf "  %s@." (pp_outcome r)) bad
end
