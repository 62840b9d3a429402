(* Read-fleet chaos scenarios: a streaming primary, N replica cores fed
   over an adversarial network, a read router in front of all of them,
   and a seeded fault plan underneath.  See readfleet.mli for the checked
   invariants; the era bookkeeping (offsets, per-engine cseq tables,
   lineage cut at the promotion point) follows the net-chaos acceptance
   test so one oracle history can span a fenced failover. *)

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
module Oracle = Test_oracle.Oracle

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

(* New-era ids live in a disjoint space so one history can span the
   failover (same convention as the net-chaos test). *)
let era_offset = 1_000_000

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
  (* Era bookkeeping: engine identity -> id offset, plus a per-engine
     xid -> cseq table (the harness's own unguarded commit hooks — the
     router's frontier tracking is not a substitute, it stops recording
     for a switched-out primary). *)
  let engine_offs = ref [ (db, 0) ] in
  let old_cseq = Hashtbl.create 512 in
  let new_cseq = Hashtbl.create 512 in
  let cur_off = ref 0 in
  let old_log = ref [] and new_log = ref [] in
  let old_rreads = ref [] and new_rreads = ref [] in
  let initial_new = ref [] in
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
         E.set_on_commit db (fun r -> Hashtbl.replace old_cseq r.E.wal_xid r.E.wal_cseq);
         let p = Stream.make_primary net ~node:"p" ~epoch:1 db in
         let subs =
           List.init cfg.replicas (fun i ->
               let name = Printf.sprintf "r%d" (i + 1) in
               let core = R.create ~obs:(E.obs db) ~name () in
               Stream.subscribe net ~node:name ~primary_node:"p" ~epoch:1 core)
         in
         let cores = List.map Stream.core subs in
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
               let fo = Stream.promote s1 ~schema_from:db `Latest_safe in
               failed_over := Some fo;
               promoted_core := Some (Stream.core s1);
               let np = fo.Stream.new_primary in
               let ne = Stream.engine np in
               engine_offs := (ne, era_offset) :: !engine_offs;
               E.set_on_commit ne (fun r ->
                   Hashtbl.replace new_cseq r.E.wal_xid r.E.wal_cseq);
               (* Stamps visible in the promoted snapshot: the "initial"
                  values of the new era, before any new-era write. *)
               initial_new :=
                 sorted_rows (E.with_txn ne (fun t -> E.seq_scan t ~table ()));
               Router.remove_replica router (Stream.core s1);
               Router.set_primary router ne;
               List.iter
                 (fun s ->
                   if s != s1 then
                     Stream.resubscribe s ~primary_node:(Stream.sub_node s1)
                       ~epoch:(Stream.epoch np))
                 subs;
               cur_off := era_offset
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
               let tok = ref 0 and tok_off = ref 0 in
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
                       let off =
                         match Router.ro_engine ro with
                         | Some e -> ( try List.assq e !engine_offs with Not_found -> 0)
                         | None -> !cur_off
                       in
                       let rds =
                         List.map
                           (fun k ->
                             ( k,
                               match Router.read ro ~table ~key:(vi k) with
                               | Some row -> Value.as_int row.(1)
                               | None -> 0 ))
                           !ks
                       in
                       res := Some (off, Router.backend ro, Router.ro_cseq ro, rds));
                   incr reads_ok;
                   match !res with
                   | None -> ()
                   | Some (off, backend, horizon, rds) ->
                       if off = !tok_off && horizon < !tok then incr session_violations;
                       let r =
                         { Oracle.rr_backend = backend; rr_horizon = horizon; rr_reads = rds }
                       in
                       if off = 0 then old_rreads := r :: !old_rreads
                       else new_rreads := r :: !new_rreads
                 with E.Error e when E.retryable e -> incr read_giveups
               in
               let do_write () =
                 try
                   let writes, wi =
                     Router.write_info ~session ~rng:backoff router (fun t ->
                         let off =
                           try List.assq (E.engine_of t) !engine_offs with Not_found -> 0
                         in
                         let me = off + E.xid t in
                         let ws = ref [] in
                         for _ = 1 to 2 do
                           let k = Rng.int rng keys in
                           let wrote =
                             E.update t ~table ~key:(vi k) ~f:(fun row ->
                                 [| row.(0); vi me |])
                             ||
                             try
                               E.insert t ~table [| vi k; vi me |];
                               true
                             with E.Error (E.Unique_violation _) -> false
                           in
                           if wrote then ws := k :: !ws
                         done;
                         List.sort_uniq compare !ws)
                   in
                   let off =
                     try List.assq wi.Router.wi_backend !engine_offs with Not_found -> 0
                   in
                   (if writes <> [] then
                      let tbl = if off = 0 then old_cseq else new_cseq in
                      match Hashtbl.find_opt tbl wi.Router.wi_xid with
                      | None -> ()
                      | Some cseq ->
                          let entry =
                            {
                              Oracle.xid = off + wi.Router.wi_xid;
                              reads = [];
                              writes;
                              order = cseq;
                            }
                          in
                          if off = 0 then old_log := entry :: !old_log
                          else new_log := entry :: !new_log);
                   tok := Router.session_token session;
                   tok_off := off
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
             let behind () =
               List.exists
                 (fun s ->
                   live s && R.applied_cseq (Stream.core s) < Stream.last_cseq acting)
                 subs
             in
             let rounds = ref 0 in
             while behind () && !rounds < 300 do
               incr rounds;
               Stream.retransmit_unacked acting;
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
                     sorted_rows (R.scan (R.begin_read core `Latest_applied) ~table ())
                   in
                   if rows <> !final_rows && !convergence_error = None then
                     convergence_error :=
                       Some
                         (Printf.sprintf "replica %s diverged from the acting primary"
                            (R.name core)))
               subs)));
  (* ---- Oracle verdict ---------------------------------------------------- *)
  let old_hist = { Oracle.committed = List.rev !old_log } in
  let new_hist = { Oracle.committed = List.rev !new_log } in
  let initial_old = List.init (keys / 2) (fun k -> (k, 1)) in
  let promote_cseq =
    match !failed_over with
    | Some fo -> Some fo.Stream.promotion.R.promote_cseq
    | None -> None
  in
  let lineage_check () =
    match promote_cseq with
    | None -> Ok ()
    | Some pc -> (
        let old_prefix =
          List.filter (fun (e : Oracle.committed) -> e.order <= pc) old_hist.committed
        in
        let new_shifted =
          List.map
            (fun (e : Oracle.committed) -> { e with Oracle.order = era_offset + e.order })
            new_hist.committed
        in
        (* Old-era reads past the promotion point saw commits the
           promotion discarded — they are checked against the full old
           history above, not against the surviving lineage. *)
        let readers =
          List.filter (fun r -> r.Oracle.rr_horizon <= pc) (List.rev !old_rreads)
          @ List.map
              (fun r -> { r with Oracle.rr_horizon = era_offset + r.Oracle.rr_horizon })
              (List.rev !new_rreads)
        in
        let pseudo =
          List.mapi
            (fun i (r : Oracle.replica_read) ->
              { Oracle.xid = -(i + 1); reads = r.rr_reads; writes = []; order = r.rr_horizon })
            readers
        in
        match
          Oracle.find_cycle
            (Oracle.edges_of { Oracle.committed = old_prefix @ new_shifted @ pseudo })
        with
        | None -> Ok ()
        | Some cycle ->
            Error
              (Printf.sprintf "failover lineage DSG is cyclic: %s"
                 (String.concat " -> " (List.map string_of_int cycle))))
  in
  let violation =
    let ( >>= ) r f = match r with Ok () -> f () | Error _ as e -> e in
    let verdict =
      Oracle.check_replica_reads ~initial:initial_old old_hist (List.rev !old_rreads)
      >>= fun () ->
      Oracle.check_replica_reads ~initial:!initial_new new_hist (List.rev !new_rreads)
      >>= fun () ->
      lineage_check () >>= fun () ->
      match !convergence_error with Some e -> Error e | None -> Ok ()
    in
    match verdict with Ok () -> None | Error e -> Some e
  in
  let c name = Obs.get_counter (E.obs db) name in
  {
    commits_old = List.length !old_log;
    commits_new = List.length !new_log;
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
