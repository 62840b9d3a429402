(* Plain chaos scenario: the seeded fault plan against SIBENCH, in direct
   or streaming-replication mode.  Every report figure is read while the
   engines are still reachable, in the order the report prints them: a
   promotion's row count commits a query on the promoted engine, which
   moves counters read after it. *)

open Ssi_workload
module E = Ssi_engine.Engine
module F = Ssi_fault.Fault
module Replica = Ssi_replication.Replica
module Stream = Ssi_replication.Stream
module Net = Ssi_net.Net
module Sim = Ssi_sim.Sim
module Obs = Ssi_obs.Obs
module Scrape = Ssi_obs.Scrape
module Watchdog = Ssi_obs.Watchdog
module Certifier = Ssi_core.Certifier

type cfg = {
  seed : int;
  certifier : Certifier.kind;
  duration : float;
  workers : int;
  failover : bool;
  replicas : int;
  quorum : int option;
  partitions : int;
  net_chaos : int;
  explain : bool;
  trace_out : string option;
  trace_capacity : int option;
  alerts : bool;
  scrape_out : string option;
  metrics_out : string option;
}

let default_cfg =
  {
    seed = 42; certifier = Certifier.SSI; duration = 3.0; workers = 8; failover = false;
    replicas = 0; quorum = None; partitions = 0; net_chaos = 0; explain = false;
    trace_out = None; trace_capacity = None; alerts = false; scrape_out = None;
    metrics_out = None;
  }

type outcome = {
  log : string list;
  result : Driver.result;
  report : string list;
  exposition_valid : bool;
  violation : string option;
}

let rows = 100

let plan c =
  F.gen_plan ~seed:c.seed ~horizon:c.duration ~failover:c.failover ~partitions:c.partitions
    ~net_chaos:c.net_chaos ()

let header c =
  Printf.sprintf "chaos seed=%d certifier=%s horizon=%.1fs workers=%d replicas=%d\nfault plan:\n%s"
    c.seed
    (Certifier.kind_to_string c.certifier)
    c.duration c.workers c.replicas
    (String.concat "" (List.map (Printf.sprintf "  %s\n") (F.describe (plan c))))

let row_count eng =
  E.with_txn eng (fun txn ->
      List.fold_left
        (fun acc t -> acc + List.length (E.seq_scan txn ~table:t ()))
        0 (E.table_names eng))

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

let run c =
  let log_lines = ref [] in
  let log s = log_lines := s :: !log_lines in
  let injector = F.injector ~seed:c.seed in
  let eng = ref None in
  let direct = ref None in
  let promoted = ref None in
  let streamed = ref None in
  let failed_over = ref None in
  let acting p = match !failed_over with Some fo -> fo.Stream.new_primary | None -> p in
  let telemetry = ref None in
  (* The primary's recorded history and, after a failover, the promoted
     engine's (newest first): one lineage, joined at the promotion. *)
  let old_hist = ref [] and new_hist = ref [] in
  let record_new e = E.set_recorder e (Some (fun entry -> new_hist := entry :: !new_hist)) in
  let chaos db =
    eng := Some db;
    E.set_recorder db (Some (fun entry -> old_hist := entry :: !old_hist));
    E.set_fault_injector db (Some (fun ~op -> F.hook injector ~op));
    if c.alerts || c.scrape_out <> None || c.metrics_out <> None then begin
      let s = Scrape.create ~capacity:64 (E.obs db) in
      let rules =
        Watchdog.default_rules
          ~certifier_prefix:(Certifier.kind_to_string c.certifier)
          ~replicas:(List.init c.replicas (fun i -> Printf.sprintf "r%d" (i + 1)))
          ()
      in
      telemetry := Some (s, Watchdog.create s rules);
      (* Past the workload horizon so the post-heal catch-up is scraped
         too. *)
      Scrape.run s ~interval:(c.duration /. 25.) ~until:(c.duration +. 0.1)
    end;
    let target =
      { F.engine = db; injector = Some injector; replica = None; fleet = []; net = None; net_ops = None }
    in
    if c.replicas = 0 then begin
      (* Direct mode: the replica hangs off the primary's in-process log
         hook; network events in the plan are logged as skipped. *)
      let r = Replica.attach db in
      direct := Some r;
      let observer phase (ev : F.event) =
        match (phase, ev.F.kind) with
        | `After, F.Failover ->
            let p = Replica.promote r `Latest_safe in
            record_new p.Replica.engine;
            promoted := Some p
        | _ -> ()
      in
      Sim.spawn (fun () -> F.execute ~observer { target with F.replica = Some r } (plan c) ~log)
    end
    else begin
      (* Streaming mode: WAL records cross a seeded adversarial network. *)
      let n = Net.create ~obs:(E.obs db) ~seed:c.seed () in
      let quorum = Option.map (fun k -> { Stream.k; deadline = 0.002 }) c.quorum in
      let p = Stream.make_primary n ~node:"p" ~epoch:1 ?quorum db in
      let subs =
        List.init c.replicas (fun i ->
            let name = Printf.sprintf "r%d" (i + 1) in
            let core = Replica.create ~obs:(E.obs db) ~name ~config:(E.config db) () in
            Stream.subscribe n ~node:name ~primary_node:"p" ~epoch:1 core)
      in
      streamed := Some (n, p, subs);
      let observer phase (ev : F.event) =
        match (phase, ev.F.kind, subs) with
        | `After, F.Failover, first :: rest ->
            let fo = Stream.promote first ?quorum `Latest_safe in
            record_new (Stream.engine fo.Stream.new_primary);
            failed_over := Some fo;
            promoted := Some fo.Stream.promotion;
            List.iter
              (fun s ->
                Stream.resubscribe s ~primary_node:(Stream.sub_node first)
                  ~epoch:(Stream.epoch fo.Stream.new_primary))
              rest
        | _ -> ()
      in
      Sim.spawn (fun () -> F.execute ~observer { target with F.net = Some n } (plan c) ~log);
      (* After the workload horizon: heal every partition and drive the
         catch-up, so the run ends with converged replicas. *)
      Sim.spawn (fun () ->
          Sim.delay (c.duration +. 0.05);
          Net.heal_all n;
          let acting = acting p in
          Stream.retransmit_unacked acting;
          List.iter
            (fun s -> if Stream.sub_node s <> Stream.primary_node acting then Stream.sync s)
            subs)
    end
  in
  let bench =
    {
      Driver.default_bench with
      Driver.mode = Driver.SSI;
      certifier = c.certifier;
      workers = c.workers;
      duration = c.duration;
      warmup = 0.;
      seed = c.seed;
      chaos = Some chaos;
      trace_capacity = c.trace_capacity;
    }
  in
  let result = Driver.run ~setup:(Sibench.setup ~rows) ~specs:(Sibench.specs ~rows ()) bench in
  let report = ref [] in
  let chunk s = report := s :: !report in
  let line fmt = Printf.ksprintf (fun s -> chunk (s ^ "\n")) fmt in
  let promotion_line (p : Replica.promotion) =
    line "  failover           promoted at cseq %d: %d rows (safe snapshot), %d commits discarded"
      p.Replica.promote_cseq (row_count p.Replica.engine) p.Replica.discarded_commits
  in
  Option.iter
    (fun rep ->
      line "  replica            applied cseq %d, safe cseq %d" (Replica.applied_cseq rep)
        (Replica.last_safe_cseq rep);
      Option.iter promotion_line !promoted)
    !direct;
  Option.iter
    (fun (n, p, subs) ->
      line "network:";
      List.iter (fun (k, v) -> line "  %-18s %d" k v) (Net.stats n);
      let acting = acting p in
      (* Captured before any report query commits on the acting primary. *)
      let acting_last = Stream.last_cseq acting in
      line "streaming:";
      line "  primary            %s (epoch %d), last cseq %d%s" (Stream.primary_node acting)
        (Stream.epoch acting) acting_last
        (if Stream.is_deposed p && acting != p then "; old primary fenced" else "");
      Option.iter
        (fun fo ->
          promotion_line fo.Stream.promotion;
          line "  fenced primary     deposed=%b" (Stream.is_deposed p))
        !failed_over;
      List.iter
        (fun name -> line "  %-18s %d" name (Obs.get_counter (E.obs (Stream.engine p)) name))
        [ "stream.wal_sent"; "stream.retransmits"; "stream.quorum_waits"; "stream.quorum_timeouts" ];
      List.iter
        (fun s ->
          let core = Stream.core s in
          if Stream.sub_node s <> Stream.primary_node acting then
            line "  %-18s applied cseq %d, safe cseq %d%s" (Replica.name core)
              (Replica.applied_cseq core) (Replica.last_safe_cseq core)
              (if Replica.applied_cseq core >= acting_last then " (converged)" else " (behind)"))
        subs)
    !streamed;
  let exposition_valid = ref true in
  Option.iter
    (fun db ->
      let obs = E.obs db in
      if c.explain then begin
        line "explain:";
        chunk (Explain.render obs)
      end;
      Option.iter
        (fun path ->
          write_file path (Obs.Spans.to_chrome_json obs);
          line "trace written to %s (%d spans retained, %d dropped)" path
            (List.length (Obs.Spans.all obs))
            (Obs.Spans.dropped obs))
        c.trace_out;
      Option.iter
        (fun (s, w) ->
          if c.alerts then begin
            let als = Watchdog.alerts w in
            line "alerts (%d):" (List.length als);
            List.iter (fun a -> line "  %s" (Watchdog.render_alert a)) als
          end;
          let om = Scrape.openmetrics obs in
          (match Scrape.validate_openmetrics om with
          | Ok families -> line "openmetrics: valid, %d families" families
          | Error e ->
              line "openmetrics: INVALID (%s)" e;
              exposition_valid := false);
          Option.iter
            (fun path ->
              write_file path (Scrape.to_jsonl s);
              line "time series written to %s (%d windows retained)" path
                (List.length (Scrape.windows s)))
            c.scrape_out;
          Option.iter
            (fun path ->
              write_file path om;
              line "openmetrics written to %s" path)
            c.metrics_out)
        !telemetry)
    !eng;
  {
    log = List.rev !log_lines;
    result;
    report = List.rev !report;
    exposition_valid = !exposition_valid;
    violation =
      (let old_hist = List.rev !old_hist in
       match Scenario.history_violation "primary" [ old_hist ] with
       | Some v -> Some v
       | None ->
           Option.bind !promoted (fun p ->
               Scenario.history_violation "lineage"
                 [ Scenario.lineage old_hist ~promote_cseq:p.Replica.promote_cseq (List.rev !new_hist) ]));
  }

let ok o = o.exposition_valid && o.violation = None

let pp ppf o =
  let f fmt = Format.fprintf ppf fmt in
  let r = o.result in
  f "chaos log:@.";
  List.iter (f "  %s@.") o.log;
  f "results:@.";
  f "  committed          %d (%.0f tx/s)@." r.Driver.committed r.Driver.throughput;
  f "  serialization fail %d, deadlocks %d@." r.Driver.failures r.Driver.deadlocks;
  f "  injected faults    %d@." r.Driver.injected_faults;
  f "  retries            %d, giveups %d@." r.Driver.retries r.Driver.giveups;
  f "  attempts/commit    %.2f@." r.Driver.attempts_per_commit;
  List.iter (f "%s@?") o.report;
  match o.violation with
  | None -> f "oracle: serializable (DSG acyclic across the failover, every read exact)@."
  | Some v -> f "oracle: VIOLATION: %s@." v
