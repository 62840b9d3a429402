(* Sharded chaos harness: drive hash-partitioned engines behind the 2PC
   coordinator through seeded partitions, message chaos and participant
   crashes, then check the combined multi-shard history with the spliced
   DSG oracle.  See sharded.mli. *)

module E = Ssi_engine.Engine
module Shard = Ssi_shard.Shard
module Net = Ssi_net.Net
module F = Ssi_fault.Fault
module Sim = Ssi_sim.Sim
module Rng = Ssi_util.Rng
module Waitq = Ssi_util.Waitq
module Obs = Ssi_obs.Obs
module Value = Ssi_storage.Value
module Oracle = Test_oracle.Oracle
module Driver = Ssi_workload.Driver

type cfg = {
  seed : int;
  shards : int;
  keys : int;
  workers : int;
  txns_per_worker : int;
  ops_per_txn : int;
  write_bias : float;
  partitions : int;
  net_chaos : int;
  crashes : int;
}

let default_cfg =
  {
    seed = 1;
    shards = 2;
    keys = 16;
    workers = 4;
    txns_per_worker = 40;
    ops_per_txn = 3;
    write_bias = 0.5;
    partitions = 1;
    net_chaos = 1;
    crashes = 1;
  }

type outcome = {
  commits : int;
  client_aborts : int;
  fastpath : int;
  readonly : int;
  twopc : int;
  cross_aborts : int;
  participant_aborts : int;
  conservative_fallbacks : int;
  window_edges : int;
  retransmits : int;
  indoubt_commits : int;
  indoubt_aborts : int;
  wounds : int;
  crashes : int;
  violation : string option;
  chaos_log : string list;
  final_rows : (int * int) list;
}

let table = "accounts"
let horizon = 1.0

let run cfg =
  let commits = ref 0 and client_aborts = ref 0 and crash_count = ref 0 in
  let chaos_log = ref [] in
  let log line = chaos_log := line :: !chaos_log in
  let violation = ref None in
  let note_violation v = if !violation = None then violation := Some v in
  (* Per-shard branch logs: one [Oracle.committed] entry per shard a
     transaction touched, spliced after the run. *)
  let shard_log = Array.make cfg.shards ([] : Oracle.committed list) in
  let final_rows = ref [] in
  let stats = ref [] in
  ignore
    (Sim.run (fun () ->
      let sys = Shard.create ~shards:cfg.shards ~seed:cfg.seed () in
      Shard.create_table sys ~name:table ~cols:[ "k"; "writer" ] ~key:"k";
      Shard.seed_rows sys ~table
        ~rows:(List.init cfg.keys (fun k -> [| Value.Int k; Value.Int 1 |]));
      (* Network adversity from the shared fault planner, retargeted at
         the coordinator network via its type-erased control surface. *)
      let plan =
        F.gen_plan ~seed:cfg.seed ~horizon ~crashes:0 ~bursts:0 ~pressures:0
          ~lag_spikes:0 ~partitions:cfg.partitions ~net_chaos:cfg.net_chaos ()
      in
      let target =
        {
          F.engine = (Shard.engines sys).(0);
          injector = None;
          replica = None;
          fleet = [];
          net = None;
          net_ops = Some (Shard.net_ops sys);
        }
      in
      Sim.spawn (fun () -> F.execute target plan ~log);
      (* Participant crashes: seeded times, round-robin victims.  The
         engine's kill-point ([simulate_connection_loss]) vaporises
         in-flight branches and leaves prepared ones for recovery. *)
      let crash_rng = Rng.make (Hashtbl.hash (cfg.seed, "shard-crash")) in
      for i = 0 to cfg.crashes - 1 do
        let at = 0.15 *. horizon +. Rng.float crash_rng (0.65 *. horizon) in
        let victim = i mod cfg.shards in
        Sim.spawn (fun () ->
            Sim.delay at;
            Shard.crash_shard sys victim;
            incr crash_count;
            log (Printf.sprintf "t=%.4f crash shard=%d" (Sim.now ()) victim))
      done;
      let workers_left = ref cfg.workers in
      let done_q = Waitq.create () in
      (* Coordinator recovery daemon: periodically finish orphaned
         prepared branches (presumed abort unless a commit decision was
         logged), so their write locks cannot stall the workload for the
         rest of the run. *)
      Sim.spawn (fun () ->
          while !workers_left > 0 do
            Sim.delay 0.05;
            match Shard.resolve_indoubt sys with
            | [] -> ()
            | shards ->
                log
                  (Printf.sprintf "t=%.4f indoubt resolved shards=[%s]" (Sim.now ())
                     (String.concat ";" (List.map string_of_int shards)))
          done);
      for w = 0 to cfg.workers - 1 do
        Sim.spawn (fun () ->
            let rng = Rng.make (Hashtbl.hash (cfg.seed, "worker", w)) in
            for _ = 1 to cfg.txns_per_worker do
              Sim.delay (Rng.float rng (horizon /. float_of_int cfg.txns_per_worker));
              let g = Shard.begin_txn sys in
              let gxid = Shard.gxid g in
              (* Footprint per shard, for the spliced oracle entries. *)
              let reads = Array.make cfg.shards []
              and writes = Array.make cfg.shards [] in
              (try
                 for _ = 1 to cfg.ops_per_txn do
                   let k = Rng.int rng cfg.keys in
                   let key = Value.Int k in
                   let s = Shard.shard_of_key sys key in
                   if Rng.chance rng cfg.write_bias then begin
                     let (_ : bool) =
                       Shard.update g ~table ~key ~f:(fun row ->
                           [| row.(0); Value.Int gxid |])
                     in
                     writes.(s) <- k :: writes.(s)
                   end
                   else
                     let stamp =
                       match Shard.read g ~table ~key with
                       | Some row -> Value.as_int row.(1)
                       | None -> 0
                     in
                     reads.(s) <- (k, stamp) :: reads.(s)
                 done;
                 let cts = Shard.commit g in
                 incr commits;
                 for s = 0 to cfg.shards - 1 do
                   if reads.(s) <> [] || writes.(s) <> [] then
                     shard_log.(s) <-
                       {
                         Oracle.xid = gxid;
                         reads = List.rev reads.(s);
                         writes = List.rev writes.(s);
                         order = cts;
                       }
                       :: shard_log.(s)
                 done
               with E.Error e when E.retryable e ->
                 Shard.abort g;
                 incr client_aborts)
            done;
            decr workers_left;
            Waitq.wake_all done_q)
      done;
      while !workers_left > 0 do
        Sim.wait done_q
      done;
      (* Quiesce: heal everything, drain in-flight messages, then run the
         final recovery scan and read the authoritative state. *)
      let o = Shard.net_ops sys in
      o.Net.o_heal_all ();
      o.Net.o_set_chaos ~drop:0. ~duplicate:0. ~reorder:0. ();
      Sim.delay 0.1;
      (match Shard.resolve_indoubt sys with
      | [] -> ()
      | shards ->
          log
            (Printf.sprintf "t=%.4f final indoubt sweep shards=[%s]" (Sim.now ())
               (String.concat ";" (List.map string_of_int shards))));
      Array.iteri
        (fun s e ->
          match E.prepared_gids e with
          | [] -> ()
          | gids ->
              note_violation
                (Printf.sprintf "shard %d still has prepared transactions after recovery: %s"
                   s (String.concat "," gids)))
        (Shard.engines sys);
      let g = Shard.begin_txn sys in
      for k = 0 to cfg.keys - 1 do
        match Shard.read g ~table ~key:(Value.Int k) with
        | Some row -> final_rows := (k, Value.as_int row.(1)) :: !final_rows
        | None -> note_violation (Printf.sprintf "key %d missing after the run" k)
      done;
      ignore (Shard.commit g);
      stats := Shard.stats sys));
  let final_rows = List.sort compare !final_rows in
  (* Combined multi-shard DSG: splice the branch logs on the coordinator
     commit timestamps and look for a cycle. *)
  let histories =
    Array.to_list
      (Array.map (fun l -> { Oracle.committed = List.rev l }) shard_log)
  in
  let spliced = Oracle.splice_shards histories in
  (match Oracle.check_serializable spliced with
  | Ok () -> ()
  | Error cycle ->
      note_violation
        (Printf.sprintf "combined multi-shard DSG is cyclic\n%s"
           (Oracle.pp_cycle spliced cycle)));
  (* Exactness: final stamps equal the last committed writer per key. *)
  let expected = Hashtbl.create cfg.keys in
  List.iter
    (fun c ->
      List.iter
        (fun k ->
          match Hashtbl.find_opt expected k with
          | Some (_, o) when o >= c.Oracle.order -> ()
          | _ -> Hashtbl.replace expected k (c.Oracle.xid, c.Oracle.order))
        c.Oracle.writes)
    spliced.Oracle.committed;
  List.iter
    (fun (k, got) ->
      let want = match Hashtbl.find_opt expected k with Some (x, _) -> x | None -> 1 in
      if got <> want then
        note_violation
          (Printf.sprintf "key %d: final writer %d, last committed writer %d" k got want))
    final_rows;
  let stat name = try List.assoc name !stats with Not_found -> 0 in
  {
    commits = !commits;
    client_aborts = !client_aborts;
    fastpath = stat "shard.fastpath";
    readonly = stat "shard.readonly";
    twopc = stat "shard.twopc";
    cross_aborts = stat "shard.cross_aborts";
    participant_aborts = stat "shard.participant_aborts";
    conservative_fallbacks = stat "shard.conservative_fallbacks";
    window_edges = stat "shard.window_edges";
    retransmits = stat "shard.retransmits";
    indoubt_commits = stat "shard.indoubt_commits";
    indoubt_aborts = stat "shard.indoubt_aborts";
    wounds = stat "shard.wounds";
    crashes = !crash_count;
    violation = !violation;
    chaos_log = List.rev !chaos_log;
    final_rows;
  }

let header cfg =
  Printf.sprintf "sharded chaos seed=%d shards=%d workers=%d partitions=%d net-chaos=%d\n"
    cfg.seed cfg.shards cfg.workers cfg.partitions cfg.net_chaos

let ok o = o.violation = None

let pp ppf o =
  Format.fprintf ppf "commits %d  client aborts %d@." o.commits o.client_aborts;
  Format.fprintf ppf
    "fastpath %d  readonly %d  2pc %d  cross aborts %d  participant aborts %d@."
    o.fastpath o.readonly o.twopc o.cross_aborts o.participant_aborts;
  Format.fprintf ppf
    "conservative %d  window edges %d  retransmits %d  indoubt %d/%d  wounds %d  crashes %d@."
    o.conservative_fallbacks o.window_edges o.retransmits o.indoubt_commits
    o.indoubt_aborts o.wounds o.crashes;
  (match o.violation with
  | None -> Format.fprintf ppf "oracle: serializable (combined DSG acyclic)@."
  | Some v -> Format.fprintf ppf "VIOLATION: %s@." v);
  Format.fprintf ppf "chaos log:@.";
  List.iter (fun l -> Format.fprintf ppf "  %s@." l) o.chaos_log

(* ---- Bench preset ----------------------------------------------------------- *)

let bench ?(keys = 256) ?(workers = 16) ?(duration = 1.0) ?(ops_per_txn = 4)
    ?(write_bias = 0.5) ?(op_cost = 2e-5) ~shards ~seed () =
  let committed = ref 0 and failures = ref 0 in
  let ser_aborts = ref 0 and faults = ref 0 in
  let latencies = ref [] in
  let busy = ref 0. in
  let ssi_conflicts = ref 0 and ssi_summarized = ref 0 and ssi_safe = ref 0 in
  ignore
    (Sim.run (fun () ->
      let sys = Shard.create ~shards ~seed () in
      Shard.create_table sys ~name:table ~cols:[ "k"; "writer" ] ~key:"k";
      Shard.seed_rows sys ~table
        ~rows:(List.init keys (fun k -> [| Value.Int k; Value.Int 1 |]));
      (* One capacity-1 CPU per shard: data-plane ops contend for their
         owning shard's CPU, so the single-shard ceiling is real and
         extra shards add genuine parallel capacity. *)
      let cpus = Array.init shards (fun _ -> Sim.resource ~capacity:1) in
      let workers_left = ref workers in
      let done_q = Waitq.create () in
      for w = 0 to workers - 1 do
        Sim.spawn (fun () ->
            let rng = Rng.make (Hashtbl.hash (seed, "bench", w)) in
            while Sim.now () < duration do
              let started = Sim.now () in
              let g = Shard.begin_txn sys in
              let gxid = Shard.gxid g in
              try
                for _ = 1 to ops_per_txn do
                  let key = Value.Int (Rng.int rng keys) in
                  let s = Shard.shard_of_key sys key in
                  Sim.use cpus.(s) op_cost;
                  if Rng.chance rng write_bias then
                    ignore
                      (Shard.update g ~table ~key ~f:(fun row ->
                           [| row.(0); Value.Int gxid |]))
                  else ignore (Shard.read g ~table ~key)
                done;
                ignore (Shard.commit g);
                incr committed;
                latencies := (Sim.now () -. started) :: !latencies
              with
              | E.Error (E.Serialization_failure _) ->
                  Shard.abort g;
                  incr failures;
                  incr ser_aborts
              | E.Error (E.Transient_fault _) ->
                  Shard.abort g;
                  incr failures;
                  incr faults
            done;
            decr workers_left;
            Waitq.wake_all done_q)
      done;
      while !workers_left > 0 do
        Sim.wait done_q
      done;
      busy := Array.fold_left (fun acc r -> acc +. Sim.busy_time r) 0. cpus;
      let sobs = Shard.obs sys in
      ssi_conflicts := Obs.get_counter sobs "ssi.conflicts";
      ssi_summarized := Obs.get_counter sobs "ssi.summarized";
      ssi_safe := Obs.get_counter sobs "ssi.safe_snapshots"));
  let committed = !committed and failures = !failures in
  let lat = List.sort compare !latencies in
  let n = List.length lat in
  let pct p =
    if n = 0 then nan
    else List.nth lat (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1))
  in
  let mean = if n = 0 then nan else List.fold_left ( +. ) 0. lat /. float_of_int n in
  let reasons =
    List.filter
      (fun (_, c) -> c > 0)
      [ ("serialization_failure", !ser_aborts); ("transient_fault", !faults) ]
  in
  {
    Driver.committed;
    failures;
    deadlocks = 0;
    sim_seconds = duration;
    throughput = float_of_int committed /. duration;
    failure_rate =
      (if committed + failures = 0 then 0.
       else float_of_int failures /. float_of_int (committed + failures));
    cpu_busy = !busy /. (float_of_int shards *. duration);
    ssi_summarized = !ssi_summarized;
    ssi_safe_snapshots = !ssi_safe;
    ssi_conflicts = !ssi_conflicts;
    retries = 0;
    giveups = 0;
    injected_faults = 0;
    attempts_per_commit = (if committed = 0 then 0. else 1.);
    latency_mean = mean;
    latency_p50 = pct 0.50;
    latency_p95 = pct 0.95;
    latency_p99 = pct 0.99;
    abort_reasons = List.sort (fun (_, a) (_, b) -> compare b a) reasons;
  }
