(* pg_ssi: command-line front end; `pg_ssi --help` lists the subcommands
   (demo, bench, workload, stats, monitor, trace, explain, chaos, recover,
   sql) and `pg_ssi CMD --help` their options.

   The workload-running subcommands share one argument term (WORKLOAD,
   --mode, --certifier, --workers, --duration, --seed) and one driver call,
   [drive].  chaos runs one of the four seeded scenarios of lib/harness
   (plain fault plan, kill-point torture, read fleet, sharded 2PC) through
   [Scenario.main]: run twice, report, and fail unless the replay is
   byte-identical.  bench prints the figure presets of
   [Experiments.figures], the same tables as bench/main.exe. *)

open Cmdliner
open Ssi_workload
open Ssi_harness
module E = Ssi_engine.Engine
module Certifier = Ssi_core.Certifier
module Obs = Ssi_obs.Obs
module Scrape = Ssi_obs.Scrape
module Watchdog = Ssi_obs.Watchdog

(* ---- demo -------------------------------------------------------------- *)

let run_demo () =
  let open Ssi_storage in
  Format.printf "Write-skew demo (paper Figure 1)@.";
  let outcome isolation =
    let db = E.create () in
    E.create_table db ~name:"doctors" ~cols:[ "name"; "oncall" ] ~key:"name";
    E.with_txn db (fun t ->
        E.insert t ~table:"doctors" [| Value.Str "alice"; Value.Bool true |];
        E.insert t ~table:"doctors" [| Value.Str "bob"; Value.Bool true |]);
    let oncall t =
      List.length (E.seq_scan t ~table:"doctors" ~filter:(fun r -> Value.as_bool r.(1)) ())
    in
    let go_off t who =
      if oncall t >= 2 then
        ignore
          (E.update t ~table:"doctors" ~key:(Value.Str who) ~f:(fun r ->
               [| r.(0); Value.Bool false |]))
    in
    let t1 = E.begin_txn ~isolation db in
    let t2 = E.begin_txn ~isolation db in
    go_off t1 "alice";
    go_off t2 "bob";
    let c1 = (try E.commit t1; true with E.Error (E.Serialization_failure _) -> false) in
    let c2 = (try E.commit t2; true with E.Error (E.Serialization_failure _) -> false) in
    let left = E.with_txn db (fun t -> oncall t) in
    (c1, c2, left)
  in
  let c1, c2, left = outcome E.Repeatable_read in
  Format.printf "  snapshot isolation: T1 %s, T2 %s -> %d doctor(s) on call%s@."
    (if c1 then "committed" else "aborted")
    (if c2 then "committed" else "aborted")
    left
    (if left = 0 then "  <- INVARIANT VIOLATED" else "");
  let c1, c2, left = outcome E.Serializable in
  Format.printf "  SSI serializable:   T1 %s, T2 %s -> %d doctor(s) on call@."
    (if c1 then "committed" else "aborted")
    (if c2 then "committed" else "aborted")
    left;
  0

(* ---- bench -------------------------------------------------------------- *)

let run_bench (f : Experiments.figure) quick =
  Printf.printf "%s\n%s%!" f.Experiments.title (f.Experiments.table ~quick);
  0

(* ---- workload-running subcommands ----------------------------------------- *)

type run = {
  workload : string;
  mode : Driver.mode;
  certifier : Certifier.kind;
  workers : int;
  duration : float;
  seed : int;
}

let workloads =
  [
    ("sibench", fun () -> (Sibench.setup ~rows:100, Sibench.specs ~rows:100 ()));
    ("tpcc", fun () -> (Tpcc.setup ~warehouses:5, Tpcc.specs ~warehouses:5 ~ro_fraction:0.08));
    ("rubis", fun () -> (Rubis.setup ~users:200 ~items:220, Rubis.specs ~users:200 ~items:220));
  ]

(* Run [r], holding on to the engine through the driver's pre-setup hook
   so the caller can read the observability core afterwards. *)
let drive ?(chaos = ignore) ?trace_capacity r =
  let eng = ref None in
  let setup, specs = (List.assoc r.workload workloads) () in
  let res =
    Driver.run ~setup ~specs
      {
        Driver.default_bench with
        Driver.mode = r.mode;
        certifier = r.certifier;
        workers = r.workers;
        duration = r.duration;
        warmup = r.duration /. 5.;
        seed = r.seed;
        chaos = Some (fun db -> eng := Some db; chaos db);
        trace_capacity;
      }
  in
  (Option.get !eng, res)

(* [drive] with an always-on scraper ticking [windows] times across the
   run (warmup included: the scraper sees the whole horizon; the driver
   summary still discards warmup) and a watchdog on the default rules. *)
let drive_windowed ~windows r =
  let horizon = r.duration +. (r.duration /. 5.) in
  let tel = ref None in
  let db, res =
    drive r ~chaos:(fun db ->
        let s = Scrape.create ~capacity:(max windows 8) (E.obs db) in
        tel := Some (s, Watchdog.create s (Watchdog.default_rules ()));
        Scrape.run s ~interval:(horizon /. float_of_int (max 1 windows)) ~until:horizon)
  in
  let s, w = Option.get !tel in
  (db, res, s, w)

let print_summary r (res : Driver.result) =
  let lat x = if Float.is_finite x then Printf.sprintf "%.6f" x else "-" in
  Format.printf "workload=%s mode=%s certifier=%s workers=%d duration=%.1fs@." r.workload
    (Driver.mode_name r.mode)
    (Certifier.kind_to_string r.certifier)
    r.workers r.duration;
  Format.printf "  committed    %d (%.0f tx/s)@." res.Driver.committed res.Driver.throughput;
  Format.printf "  failures     %d (%.3f%%), of which %d deadlocks@." res.Driver.failures
    (100. *. res.Driver.failure_rate) res.Driver.deadlocks;
  Format.printf "  latency (s)  p50 %s  p95 %s  p99 %s@."
    (lat res.Driver.latency_p50) (lat res.Driver.latency_p95) (lat res.Driver.latency_p99);
  if res.Driver.abort_reasons <> [] then begin
    Format.printf "  abort reasons:@.";
    List.iter
      (fun (reason, n) -> Format.printf "    %-44s %d@." reason n)
      res.Driver.abort_reasons
  end;
  Format.printf "  cpu busy     %.0f%%@." (100. *. res.Driver.cpu_busy)

let run_workload r =
  print_summary r (snd (drive r));
  0

(* The curated panel for the windowed views; metrics a given run never
   registered render as "-". *)
let monitor_metrics =
  [ "engine.commits"; "engine.aborts"; "engine.serialization_failures"; "engine.active_txns";
    "driver.txn_latency"; "ssi.summarized"; "wal.appends"; "wal.flushes"; "fleet.markdowns" ]

let run_stats r format window =
  (match (format, window) with
  | `Text, None ->
      (* No scraper at all: byte-identical to the historical output. *)
      let db, res = drive r in
      print_summary r res;
      Format.printf "@.";
      print_string (Obs.render (E.obs db))
  | `Text, Some windows ->
      let db, res, s, _ = drive_windowed ~windows r in
      print_summary r res;
      Format.printf "@.";
      print_string (Obs.render (E.obs db));
      Format.printf "@.";
      let metrics = List.map fst (Obs.raw_metrics (E.obs db)) in
      print_string (Scrape.render ~last:windows s ~metrics)
  | `Prom, _ ->
      (* Cumulative exposition needs no scraper, so the registry stays
         exactly what the run produced. *)
      let text = Scrape.openmetrics (E.obs (fst (drive r))) in
      (match Scrape.validate_openmetrics text with
      | Ok _ -> ()
      | Error e -> Printf.eprintf "internal error: invalid OpenMetrics output: %s\n" e);
      print_string text
  | `Json, _ ->
      let _, _, s, _ = drive_windowed ~windows:(Option.value window ~default:8) r in
      print_string (Scrape.to_jsonl s));
  0

let run_monitor r windows =
  let _, res, s, w = drive_windowed ~windows r in
  print_summary r res;
  Format.printf "@.";
  print_string (Scrape.render ~last:windows s ~metrics:monitor_metrics);
  let alerts = Watchdog.alerts w in
  Format.printf "@.alerts (%d):@." (List.length alerts);
  List.iter (fun a -> Format.printf "  %s@." (Watchdog.render_alert a)) alerts;
  (match Watchdog.active w with
  | [] -> ()
  | act -> Format.printf "still active at end of run: %s@." (String.concat ", " act));
  0

let run_trace r filter limit =
  let db, _ = drive r in
  let evs = Obs.events (E.obs db) in
  let evs =
    match filter with
    | None -> evs
    | Some prefix -> List.filter (fun (e : Obs.event) -> String.starts_with ~prefix e.Obs.name) evs
  in
  (* Keep the most recent [limit]: the tail of the emission order. *)
  let skip = match limit with Some n -> List.length evs - n | None -> 0 in
  List.iteri (fun i e -> if i >= skip then print_endline (Obs.event_to_json e)) evs;
  0

let run_explain r trace_capacity =
  let db, res = drive ~trace_capacity r in
  print_summary r res;
  Format.printf "@.";
  print_string (Explain.render (E.obs db));
  0

(* ---- chaos ---------------------------------------------------------------- *)

(* At most one of the scenario selectors; the plain fault plan when none. *)
let run_chaos (c : Chaos.cfg) certifier kill_points kill_every torn_writes wal_out read_fleet
    read_mix shards =
  let c = { c with Chaos.certifier = Option.value certifier ~default:Certifier.SSI } in
  let or_default n d = if n = 0 then d else n in
  (* flag, value, takes --certifier, scenario *)
  let selectors =
    [
      ( "--kill-points", kill_points, true,
        fun () ->
          Scenario.main (module Ssi_fault.Torture.Sweep)
            { seed = c.seed; certifier = c.certifier; kill_points; kill_every; torn_writes; wal_out } );
      ( "--shards", shards, false,
        fun () ->
          let d = Sharded.default_cfg in
          Scenario.main (module Sharded)
            { d with seed = c.seed; shards; workers = c.workers;
              partitions = or_default c.partitions d.partitions;
              net_chaos = or_default c.net_chaos d.net_chaos } );
      ( "--read-fleet", read_fleet, false,
        fun () ->
          let d = Readfleet.default_cfg in
          Scenario.main (module Readfleet)
            { d with seed = c.seed; replicas = read_fleet; read_mix; workers = c.workers;
              failover = c.failover; partitions = or_default c.partitions d.partitions;
              net_chaos = or_default c.net_chaos d.net_chaos } );
    ]
  in
  match List.filter (fun (_, n, _, _) -> n > 0) selectors with
  | [] -> `Ok (Scenario.main (module Chaos) c)
  | [ (flag, _, false, _) ] when certifier <> None ->
      `Error (true, flag ^ " runs its own certifier setup; --certifier does not apply")
  | [ (_, _, _, main) ] -> `Ok (main ())
  | many ->
      let flags = List.map (fun (flag, _, _, _) -> flag) many in
      `Error (true, String.concat " and " flags ^ " select different scenarios; give at most one")

(* ---- recover ---------------------------------------------------------------- *)

let run_recover file =
  let wal = match Ssi_wal.Wal.load file with Ok w -> w | Error m -> prerr_endline m; exit 1 in
  let db, r = E.recover wal in
  Format.printf "recovered from %s@." file;
  Format.printf "  checkpoint cseq    %s@."
    (match r.E.rr_checkpoint_cseq with Some c -> string_of_int c | None -> "(no checkpoint)");
  Format.printf "  records replayed   %d@." r.E.rr_records;
  Format.printf "  tail truncated     %d bytes@." r.E.rr_truncated;
  Format.printf "  prepared restored  %d%s@." r.E.rr_prepared
    (match E.prepared_gids db with
    | [] -> ""
    | gids -> " (" ^ String.concat ", " (List.sort compare gids) ^ ")");
  Format.printf "  last cseq          %d@." r.E.rr_last_cseq;
  Format.printf "  epoch              %d@." r.E.rr_epoch;
  Format.printf "tables:@.";
  List.iter
    (fun t ->
      let n = E.with_txn ~isolation:E.Repeatable_read db (fun txn -> E.row_count txn ~table:t) in
      Format.printf "  %-18s %d rows@." t n)
    (List.sort compare (E.table_names db));
  Format.printf "@.";
  print_string (Ssi_obs.Obs.render (E.obs db));
  0

(* ---- sql REPL ------------------------------------------------------------ *)

let run_sql script_file =
  let engine = E.create () in
  let session = Ssi_sql.Session.create engine in
  let exec_line line =
    match String.trim line with
    | "" -> ()
    | line -> (
        try
          List.iter
            (fun r -> print_endline (Ssi_sql.Session.render r))
            (Ssi_sql.Session.exec_sql session line)
        with
        | Ssi_sql.Session.Sql_error m -> Printf.printf "ERROR: %s\n%!" m
        | Ssi_sql.Parser.Parse_error m -> Printf.printf "syntax error: %s\n%!" m
        | Ssi_sql.Lexer.Lex_error m -> Printf.printf "syntax error: %s\n%!" m)
  in
  (match script_file with
  | Some path ->
      let ic = open_in path in
      let n = in_channel_length ic in
      let contents = really_input_string ic n in
      close_in ic;
      exec_line contents
  | None ->
      print_endline "pg_ssi SQL shell (SERIALIZABLE by default). End statements with ';'.";
      let buf = Buffer.create 256 in
      (try
         while true do
           print_string (if Buffer.length buf = 0 then "pg_ssi=# " else "pg_ssi-# ");
           let line = read_line () in
           Buffer.add_string buf line;
           Buffer.add_char buf '\n';
           if String.contains line ';' then begin
             exec_line (Buffer.contents buf);
             Buffer.clear buf
           end
         done
       with End_of_file -> ()));
  0

(* ---- cmdliner wiring --------------------------------------------------------- *)

open Term.Syntax

let opt c default ?docv names doc = Arg.(value & opt c default & info names ?docv ~doc)
let flag names doc = Arg.(value & flag & info names ~doc)
let file names doc = opt Arg.(some string) None ~docv:"FILE" names doc
let pos0 c docv doc = Arg.(required & pos 0 (some c) None & info [] ~docv ~doc)

let certifier_conv =
  Arg.enum (List.map (fun k -> (Certifier.kind_to_string k, k)) Certifier.all_kinds)

let certifier_doc =
  "Serializability certifier for serializable modes: ssi (the paper's dangerous-structure \
   detection), ssn (Serial Safety Net exclusion windows) or essn (SSN with the read-only \
   effective-stamp refinement)"

let run_term =
  let+ workload =
    pos0 (Arg.enum (List.map (fun (n, _) -> (n, n)) workloads)) "WORKLOAD" "sibench, tpcc or rubis"
  and+ mode =
    opt
      (Arg.enum
         [ ("si", Driver.SI); ("ssi", Driver.SSI); ("ssi-noro", Driver.SSI_no_ro_opt);
           ("s2pl", Driver.S2PL) ])
      Driver.SSI [ "mode" ] "si, ssi, ssi-noro or s2pl"
  and+ certifier = opt certifier_conv Certifier.SSI [ "certifier" ] certifier_doc
  and+ workers = opt Arg.int 4 [ "workers" ] "Concurrent sessions"
  and+ duration = opt Arg.float 3.0 [ "duration" ] "Measured simulated seconds"
  and+ seed = opt Arg.int 42 [ "seed" ] "Random seed" in
  { workload; mode; certifier; workers; duration; seed }

let cmd name doc term = Cmd.v (Cmd.info name ~doc) term

let bench_cmd =
  let figure =
    Arg.enum (List.map (fun (f : Experiments.figure) -> (f.name, f)) Experiments.figures)
  in
  cmd "bench" "Regenerate a table or figure from the paper (§8)"
    Term.(
      const run_bench
      $ pos0 figure "EXPERIMENT" "fig4, fig5a, fig5b, fig6 or defer"
      $ flag [ "quick" ] "Reduced problem sizes (bench/main.exe's quick preset)")

let workload_cmd =
  cmd "workload" "Run one workload configuration and report its numbers"
    Term.(const run_workload $ run_term)

let stats_cmd =
  cmd "stats"
    "Run a workload, then dump every metric in the observability registry (counters, \
     gauges, latency histograms) as a table — or as OpenMetrics / windowed JSON Lines \
     with $(b,--format)"
    (let+ r = run_term
     and+ format =
       opt
         (Arg.enum [ ("text", `Text); ("prom", `Prom); ("json", `Json) ])
         `Text ~docv:"FMT" [ "format" ]
         "Output format: text (the registry table, plus a windowed time-series table when \
          $(b,--window) is given), prom (Prometheus/OpenMetrics text exposition of the \
          cumulative registry) or json (JSON Lines, one object per scrape window)"
     and+ window =
       opt Arg.(some int) None ~docv:"N" [ "window" ]
         "Scrape the registry $(docv) times across the run and report windowed deltas \
          (default 8 for $(b,--format) json; off for text)"
     in
     run_stats r format window)

let monitor_cmd =
  cmd "monitor"
    "Run a workload with the always-on telemetry pipeline: scrape the registry into \
     windowed deltas on the virtual clock, render the key metrics as a time-series table, \
     and report every SLO-watchdog alert the run fired"
    Term.(
      const run_monitor $ run_term
      $ opt Arg.int 12 ~docv:"N" [ "window" ] "Number of scrape windows across the run")

let trace_cmd =
  cmd "trace"
    "Run a workload, then dump the retained structured trace events (commits, aborts, \
     conflicts, summarizations) as JSON Lines"
    Term.(
      const run_trace $ run_term
      $ opt Arg.(some string) None ~docv:"PREFIX" [ "filter" ]
          "Only events whose dotted name starts with $(docv) (e.g. ssi. or txn)"
      $ opt Arg.(some int) None ~docv:"N" [ "limit" ] "Only the most recent $(docv) matching events")

let explain_cmd =
  cmd "explain"
    "Run a workload, then reconstruct and pretty-print the conflict evidence behind every \
     serialization failure: the dangerous structure (T1 --rw--> T2 --rw--> T3, the rule \
     that fired, the victim-selection reason) under SSI, or the closed exclusion window \
     (pstamp/sstamp and the peer that closed it) under SSN/ESSN"
    Term.(
      const run_explain $ run_term
      $ opt Arg.int 65536 ~docv:"N" [ "trace-capacity" ]
          "Size of the event log and span table; must exceed the run's event volume or \
           evidence is overwritten (the report then says so)")

let chaos_cmd =
  let chaos_cfg =
    let+ seed = opt Arg.int 42 [ "seed" ] "Fault-plan seed"
    and+ duration = opt Arg.float 3.0 [ "duration" ] "Simulated seconds (fault horizon)"
    and+ workers = opt Arg.int 8 [ "workers" ] "Concurrent sessions"
    and+ failover = flag [ "failover" ] "Promote the replica near the end of the run"
    and+ replicas =
      opt Arg.int 0 ~docv:"N" [ "replicas" ]
        "Stream WAL to $(docv) replicas over a simulated lossy network instead of the \
         in-process commit hook (0 = direct mode)"
    and+ quorum =
      opt Arg.(some int) None ~docv:"K" [ "quorum" ]
        "Quorum-synchronous commit: hold each commit ack for $(docv) replica acks (deadline \
         2ms of virtual time, then degrade to async)"
    and+ partitions =
      opt Arg.int 0 ~docv:"N" [ "partitions" ] "Seeded network partitions to schedule"
    and+ net_chaos =
      opt Arg.int 0 ~docv:"N" [ "net-chaos" ] "Seeded drop/duplicate/reorder windows to schedule"
    and+ explain = flag [ "explain" ] "Print the dangerous structure behind every SSI abort after the run"
    and+ trace_out =
      file [ "trace-out" ]
        "Export all retained spans as Chrome trace-event JSON (Perfetto / chrome://tracing) \
         to $(docv)"
    and+ trace_capacity =
      opt Arg.(some int) None ~docv:"N" [ "trace-capacity" ]
        "Size of the event log and span table (default 4096 each); exports and explanations \
         need this above the run's event volume"
    and+ alerts =
      flag [ "alerts" ]
        "Run the SLO watchdog (default rule catalog) over an always-on scrape of the run and \
         print every alert it fired; also validates the OpenMetrics exposition of the final \
         registry (non-zero exit if invalid)"
    and+ scrape_out =
      file [ "scrape-out" ]
        "Write the scraped time series (one JSON object per window) to $(docv); implies the \
         always-on scrape"
    and+ metrics_out =
      file [ "metrics-out" ]
        "Write the final registry in OpenMetrics text format to $(docv); implies the \
         always-on scrape"
    in
    {
      Chaos.default_cfg with
      seed;
      duration;
      workers;
      failover;
      replicas;
      quorum;
      partitions;
      net_chaos;
      explain;
      trace_out;
      trace_capacity;
      alerts;
      scrape_out;
      metrics_out;
    }
  in
  cmd "chaos"
    "Run a seeded scenario twice and require a byte-identical replay: by default a workload \
     under a fault plan (crashes, I/O faults, memory pressure, replica lag, network \
     partitions and chaos) reporting resilience counters; with $(b,--kill-points), the \
     kill-point recovery torture sweep; with $(b,--read-fleet), the oracle-checked \
     read-fleet router scenario; with $(b,--shards), sharded 2PC chaos.  At most one of \
     the three selectors may be given"
    Term.(
      ret
        (const run_chaos $ chaos_cfg
        $ opt Arg.(some certifier_conv) None [ "certifier" ]
            (certifier_doc ^ " (default ssi; not with $(b,--shards) or $(b,--read-fleet))")
        $ opt Arg.int 0 ~docv:"N" [ "kill-points" ]
            "Recovery torture: crash the durable log at up to $(docv) successive engine \
             fault points (one crash/recover cycle each) and check the durability \
             invariants, instead of running a fault plan (0 = off)"
        $ opt Arg.int 3 ~docv:"K" [ "kill-every" ]
            "Stride between successive kill points in the torture sweep"
        $ flag [ "torn-writes" ]
            "With $(b,--kill-points): damage the flush in flight at each crash (seeded torn \
             write, short write or bit flip)"
        $ file [ "wal-out" ]
            "With $(b,--kill-points): save the first run's crashed log image to $(docv) for \
             $(b,pg_ssi recover)"
        $ opt Arg.int 0 ~docv:"N" [ "read-fleet" ]
            "Read-fleet chaos: route a read-heavy workload through the replica read router \
             over $(docv) streaming replicas under partitions, lag spikes and network chaos \
             (one of each unless overridden), check every routed read against the commit \
             order (0 = off)"
        $ opt Arg.float 0.9 ~docv:"F" [ "read-mix" ]
            "With $(b,--read-fleet): fraction of client transactions that are reads"
        $ opt Arg.int 0 ~docv:"N" [ "shards" ]
            "Sharded chaos: hash-partition one table across $(docv) engines behind the 2PC \
             coordinator, drive multi-shard transactions under partitions, message chaos \
             and participant crashes (one of each unless overridden), and check the combined \
             multi-shard history with the spliced-DSG oracle (0 = off)"))

let () =
  exit
    (Cmd.eval'
       (Cmd.group
          (Cmd.info "pg_ssi" ~version:"1.0.0"
             ~doc:"Serializable Snapshot Isolation in PostgreSQL, reproduced in OCaml")
          [
            cmd "demo" "Write-skew walkthrough (paper Figure 1)" Term.(const run_demo $ const ());
            bench_cmd;
            workload_cmd;
            stats_cmd;
            monitor_cmd;
            trace_cmd;
            explain_cmd;
            chaos_cmd;
            cmd "recover"
              "Cold-start an engine from a durable-log image: truncate any damaged tail, \
               replay from the latest checkpoint, restore prepared transactions, and print \
               the recovery report and row counts"
              Term.(
                const run_recover
                $ pos0 Arg.string "FILE" "Durable-log image (e.g. from chaos $(b,--wal-out))");
            cmd "sql" "Interactive SQL shell on a fresh in-memory database"
              Term.(const run_sql $ file [ "file"; "f" ] "Execute a SQL script instead of a REPL");
          ]))
