(* Read-fleet chaos scenarios: a streaming primary, N replica cores fed
   over an adversarial network, a read router in front of all of them,
   and a seeded fault plan underneath.  See readfleet.mli for the checked
   invariants.  Each primary records its history, and the replicas record
   their reads into the history of the primary they follow. *)

open Ssi_storage
module E = Ssi_engine.Engine
module R = Ssi_replication.Replica
module Router = Ssi_replication.Router
module Stream = Ssi_replication.Stream
module Net = Ssi_net.Net
module Obs = Ssi_obs.Obs
module Scrape = Ssi_obs.Scrape
module Watchdog = Ssi_obs.Watchdog
module Sim = Ssi_sim.Sim
module F = Ssi_fault.Fault
module Rng = Ssi_util.Rng

type cfg = {
  seed : int;
  replicas : int;
  read_mix : float;
  workers : int;
  txns_per_worker : int;
  partitions : int;
  lag_spikes : int;
  net_chaos : int;
  failover : bool;
}

let default_cfg =
  {
    seed = 1;
    replicas = 2;
    read_mix = 0.9;
    workers = 4;
    txns_per_worker = 50;
    partitions = 1;
    lag_spikes = 2;
    net_chaos = 1;
    failover = true;
  }

type outcome = {
  commits_old : int;
  commits_new : int;
  reads_ok : int;
  read_giveups : int;
  write_giveups : int;
  session_violations : int;
  replica_routed : int;
  primary_routed : int;
  fallbacks : int;
  degraded : int;
  markdowns : int;
  probes : int;
  readmits : int;
  too_stale : int;
  session_resets : int;
  session_waits : int;
  primary_switches : int;
  promote_cseq : int option;
  violation : string option;
  chaos_log : string list;
  alerts : string list;
  final_rows : (int * int) list;
}

let vi i = Value.Int i
let table = "kv"
let keys = 16

let sorted_rows scan =
  List.sort compare (List.map (fun r -> (Value.as_int r.(0), Value.as_int r.(1))) scan)

let run cfg =
  let horizon = 0.1 in
  let costs =
    { E.zero_costs with E.cpu_per_op = 60e-6; cpu_per_tuple = 3e-6; io_commit = 30e-6 }
  in
  let db = E.create ~scheduler:Sim.scheduler ~config:{ E.default_config with E.costs } () in
  let net = Net.create ~obs:(E.obs db) ~seed:cfg.seed () in
  let failover = cfg.failover && cfg.replicas > 0 in
  (* The recorded histories of the original primary and, after a
     failover, of the promoted one (newest first); the replicas' reads go
     to the history of the primary they follow.  [era] tells the session
     check which primary's token a read's horizon is held to. *)
  let old_hist = ref [] and new_hist = ref [] in
  let following = ref old_hist in
  let follow entry = !following := entry :: !(!following) in
  let era = ref 0 in
  let era_of e = if e == db then 0 else 1 in
  let failed_over = ref None in
  let promoted_core = ref None in
  let reads_ok = ref 0 and read_giveups = ref 0 and write_giveups = ref 0 in
  let session_violations = ref 0 in
  let workers_done = ref 0 in
  let chaos_lines = ref [] in
  let plan =
    F.gen_plan ~seed:cfg.seed ~horizon ~crashes:0 ~bursts:0 ~pressures:0
      ~lag_spikes:cfg.lag_spikes ~failover ~partitions:cfg.partitions
      ~net_chaos:cfg.net_chaos ()
  in
  let router_policy =
    {
      Router.default_policy with
      Router.max_staleness = 1000;
      markdown_base = 5e-3;
      markdown_max = 0.1;
      session_deadline = Some 0.02;
      retry =
        {
          E.default_retry_policy with
          E.max_attempts = 50;
          backoff_base = 1e-5;
          backoff_multiplier = 2.0;
          backoff_max = 1e-3;
          jitter = 0.5;
        };
    }
  in
  let final_rows = ref [] in
  let convergence_error = ref None in
  let watchdog = ref None in
  ignore
    (Sim.run (fun () ->
         E.create_table db ~name:table ~cols:[ "k"; "writer" ] ~key:"k";
         E.with_txn db (fun t ->
             (* The oracle treats xid 1 as the seed writer. *)
             assert (E.xid t = 1);
             for k = 0 to (keys / 2) - 1 do
               E.insert t ~table [| vi k; vi (E.xid t) |]
             done);
         E.set_recorder db (Some (fun entry -> old_hist := entry :: !old_hist));
         let p = Stream.make_primary net ~node:"p" ~epoch:1 db in
         let subs =
           List.init cfg.replicas (fun i ->
               let name = Printf.sprintf "r%d" (i + 1) in
               let core = R.create ~obs:(E.obs db) ~name () in
               Stream.subscribe net ~node:name ~primary_node:"p" ~epoch:1 core)
         in
         let cores = List.map Stream.core subs in
         List.iter (fun c -> R.set_recorder c (Some follow)) cores;
         let router = Router.create ~policy:router_policy ~seed:cfg.seed ~primary:db () in
         List.iter (Router.add_replica router) cores;
         (* Always-on telemetry: scrape the shared registry every 4ms of
            virtual time across the chaos horizon and run the SLO
            watchdog over the windows.  Thresholds are tuned to the
            harness's scale (a single mark-down or a 3-deep lag spike is
            churn worth alerting on here); firings land in the outcome
            and must replay byte-identically. *)
         let scrape = Scrape.create ~capacity:64 (E.obs db) in
         watchdog :=
           Some
             (Watchdog.create scrape
                (Watchdog.default_rules
                   ~replicas:(List.map R.name cores)
                   ~abort_rate:100. ~markdown_rate:5. ~lag_threshold:2.
                   ~lag_windows:2 ()));
         Scrape.run scrape ~interval:(horizon /. 25.) ~until:horizon;
         let observer phase (ev : F.event) =
           match (phase, ev.F.kind) with
           | `After, F.Failover ->
               let s1 = List.hd subs in
               let fo = Stream.promote s1 `Latest_safe in
               failed_over := Some fo;
               promoted_core := Some (Stream.core s1);
               let np = fo.Stream.new_primary in
               let ne = Stream.engine np in
               E.set_recorder ne (Some (fun entry -> new_hist := entry :: !new_hist));
               following := new_hist;
               Router.remove_replica router (Stream.core s1);
               Router.set_primary router ne;
               List.iter
                 (fun s ->
                   if s != s1 then
                     Stream.resubscribe s ~primary_node:(Stream.sub_node s1)
                       ~epoch:(Stream.epoch np))
                 subs;
               era := 1
           | _ -> ()
         in
         Sim.spawn (fun () ->
             F.execute ~observer
               { F.engine = db; injector = None; replica = None; fleet = cores; net = Some net; net_ops = None }
               plan
               ~log:(fun l -> chaos_lines := l :: !chaos_lines));
         for w = 1 to cfg.workers do
           let rng = Rng.make (Hashtbl.hash (cfg.seed, "worker", w)) in
           let backoff = Rng.make (Hashtbl.hash (cfg.seed, "backoff", w)) in
           Sim.spawn (fun () ->
               let session = Router.session router in
               (* Shadow of the session's read-your-writes token, with
                  the era it was minted in: lets the harness assert the
                  guarantee without chasing the router's era resets. *)
               let tok = ref 0 and tok_era = ref 0 in
               let do_read () =
                 let consistency =
                   let p = Rng.float rng 1.0 in
                   if p < 0.8 then `Latest_safe
                   else if p < 0.9 then `Bounded (1 + Rng.int rng 8)
                   else `Deferrable
                 in
                 let ks = ref [] in
                 for _ = 1 to 3 do
                   ks := Rng.int rng keys :: !ks
                 done;
                 let res = ref None in
                 try
                   Router.read_only ~session ~consistency router (fun ro ->
                       let txn = Router.txn ro in
                       List.iter (fun k -> ignore (E.read txn ~table ~key:(vi k))) !ks;
                       let e = if E.engine_of txn == db then 0 else !era in
                       res := Some (e, Router.ro_cseq ro));
                   incr reads_ok;
                   match !res with
                   | Some (e, horizon) when e = !tok_era && horizon < !tok ->
                       incr session_violations
                   | Some _ | None -> ()
                 with E.Error e when E.retryable e -> incr read_giveups
               in
               let do_write () =
                 try
                   (* The engine of the attempt that committed: which era's
                      cseqs the session token now counts in. *)
                   let committed_on = ref db in
                   Router.write ~session ~rng:backoff router (fun t ->
                       committed_on := E.engine_of t;
                       let me = E.xid t in
                       for _ = 1 to 2 do
                         let k = Rng.int rng keys in
                         if not (E.update t ~table ~key:(vi k) ~f:(fun row -> [| row.(0); vi me |]))
                         then
                           try E.insert t ~table [| vi k; vi me |]
                           with E.Error (E.Unique_violation _) -> ()
                       done);
                   tok := Router.session_token session;
                   tok_era := era_of !committed_on
                 with E.Error e when E.retryable e -> incr write_giveups
               in
               for _ = 1 to cfg.txns_per_worker do
                 if Rng.chance rng cfg.read_mix then do_read () else do_write ();
                 Sim.delay (Rng.float rng 0.003)
               done;
               incr workers_done)
         done;
         (* Once the workload quiesces: stop the chaos floor, heal every
            partition, and drive replica catch-up from the acting
            primary until the fleet converges. *)
         Sim.spawn (fun () ->
             while !workers_done < cfg.workers do
               Sim.delay 0.01
             done;
             Net.set_chaos net ~drop:0. ~duplicate:0. ~reorder:0. ();
             Net.heal_all net;
             let acting =
               match !failed_over with Some fo -> fo.Stream.new_primary | None -> p
             in
             let live s =
               match !promoted_core with
               | Some c -> Stream.core s != c
               | None -> true
             in
             let behind s = live s && R.applied_cseq (Stream.core s) < Stream.last_cseq acting in
             let rounds = ref 0 in
             (* Syncing from the subscriber side also reaches one whose
                subscribe request the faults swallowed. *)
             while List.exists behind subs && !rounds < 300 do
               incr rounds;
               List.iter (fun s -> if behind s then Stream.sync s) subs;
               Sim.delay 0.01
             done;
             let acting_engine = Stream.engine acting in
             final_rows :=
               sorted_rows (E.with_txn acting_engine (fun t -> E.seq_scan t ~table ()));
             List.iter
               (fun s ->
                 if live s then
                   let core = Stream.core s in
                   let rows =
                     match R.begin_read core `Latest_applied with
                     | txn -> sorted_rows (E.seq_scan txn ~table ())
                     | exception E.Error _ -> []
                   in
                   if rows <> !final_rows && !convergence_error = None then
                     convergence_error :=
                       Some
                         (Printf.sprintf "replica %s diverged from the acting primary"
                            (R.name core)))
               subs)));
  (* ---- Verdict ----------------------------------------------------------- *)
  let old_hist = List.rev !old_hist and new_hist = List.rev !new_hist in
  let promote_cseq =
    match !failed_over with
    | Some fo -> Some fo.Stream.promotion.R.promote_cseq
    | None -> None
  in
  (* The old era's history, replica reads included, must be acyclic and
     every read exact for its snapshot; so must the lineage the failover
     leaves, the old era up to the promotion point and then the new. *)
  let violation =
    List.find_map
      (fun check -> check ())
      [
        (fun () -> Scenario.history_violation "old-era" [ old_hist ]);
        (fun () ->
          Option.bind promote_cseq (fun promote_cseq ->
              Scenario.history_violation "lineage"
                [ Scenario.lineage old_hist ~promote_cseq new_hist ]));
        (fun () -> !convergence_error);
      ]
  in
  let c name = Obs.get_counter (E.obs db) name in
  {
    commits_old = List.length (List.filter (fun (t : Ssi_engine.Recorded.txn) -> t.writes <> []) old_hist);
    commits_new = List.length (List.filter (fun (t : Ssi_engine.Recorded.txn) -> t.writes <> []) new_hist);
    reads_ok = !reads_ok;
    read_giveups = !read_giveups;
    write_giveups = !write_giveups;
    session_violations = !session_violations;
    replica_routed = c "fleet.route.replica";
    primary_routed = c "fleet.route.primary";
    fallbacks = c "fleet.fallbacks";
    degraded = c "fleet.degraded";
    markdowns = c "fleet.markdowns";
    probes = c "fleet.probes";
    readmits = c "fleet.readmits";
    too_stale = c "fleet.too_stale";
    session_resets = c "fleet.session_resets";
    session_waits = c "fleet.session_waits";
    primary_switches = c "fleet.primary_switches";
    promote_cseq;
    violation;
    chaos_log = List.rev !chaos_lines;
    alerts =
      (match !watchdog with
      | Some wd -> List.map Watchdog.render_alert (Watchdog.alerts wd)
      | None -> []);
    final_rows = !final_rows;
  }

let header cfg =
  Printf.sprintf "read-fleet chaos seed=%d replicas=%d read-mix=%.2f workers=%d failover=%b\n"
    cfg.seed cfg.replicas cfg.read_mix cfg.workers cfg.failover

let ok o =
  o.violation = None && o.read_giveups = 0 && o.write_giveups = 0 && o.session_violations = 0

let pp ppf o =
  let f fmt = Format.fprintf ppf fmt in
  f "commits: %d old-era, %d new-era@." o.commits_old o.commits_new;
  f "reads: %d ok, %d giveups; writes: %d giveups; session violations: %d@." o.reads_ok
    o.read_giveups o.write_giveups o.session_violations;
  f "routing: %d replica, %d primary (%d degraded), %d fallbacks, %d too-stale@."
    o.replica_routed o.primary_routed o.degraded o.fallbacks o.too_stale;
  f "health: %d markdowns, %d probes, %d readmits@." o.markdowns o.probes o.readmits;
  f "sessions: %d waits, %d resets; primary switches: %d@." o.session_waits
    o.session_resets o.primary_switches;
  (match o.promote_cseq with
  | Some pc -> f "failover: promoted at cseq %d@." pc
  | None -> f "failover: none@.");
  List.iter (fun l -> f "  chaos %s@." l) o.chaos_log;
  List.iter (fun l -> f "  alert %s@." l) o.alerts;
  match o.violation with
  | None -> f "oracle: clean@."
  | Some v -> f "oracle: VIOLATION: %s@." v
