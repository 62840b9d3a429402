(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§8).

     dune exec bench/main.exe            -- run everything
     dune exec bench/main.exe -- fig4    -- Figure 4 (SIBENCH)
     dune exec bench/main.exe -- fig5a   -- Figure 5a (DBT-2++, in-memory)
     dune exec bench/main.exe -- fig5b   -- Figure 5b (DBT-2++, disk-bound)
     dune exec bench/main.exe -- fig6    -- Figure 6 (RUBiS)
     dune exec bench/main.exe -- defer   -- §8.4 deferrable-transaction latency
     dune exec bench/main.exe -- walgroup -- group-commit flush-interval sweep
     dune exec bench/main.exe -- json    -- BENCH_<workload>.json summaries
     dune exec bench/main.exe -- micro   -- §8.1 CPU-overhead microbenchmarks
     dune exec bench/main.exe -- regress -- compare against bench/baselines/ (CI gate)
     dune exec bench/main.exe -- quick   -- reduced-size versions of everything

   Absolute numbers are simulated (see DESIGN.md §5); the claims under test
   are the figures' shapes: who wins, by how much, and where the curves
   cross. *)

open Ssi_workload
open Ssi_harness
module E = Ssi_engine.Engine
module Certifier = Ssi_core.Certifier

let banner name = Printf.printf "\n===== %s =====\n%!" name

(* ---- Figures ------------------------------------------------------------- *)

let fig4 ~quick () =
  banner "Figure 4: SIBENCH transaction throughput (normalized to SI)";
  let sizes = if quick then [ 10; 100; 1000 ] else [ 10; 30; 100; 300; 1000; 3000 ] in
  let duration = if quick then 1.0 else 3.0 in
  let ms = Experiments.fig4 ~sizes ~duration () in
  print_string (Experiments.render_normalized ~title:"" ~x_header:"table size (rows)" ms)

let fig5a ~quick () =
  banner "Figure 5a: DBT-2++ throughput, in-memory configuration (normalized to SI)";
  let fractions = if quick then [ 0.; 0.5; 1.0 ] else [ 0.; 0.2; 0.4; 0.6; 0.8; 1.0 ] in
  let warehouses = if quick then 4 else 25 in
  let duration = if quick then 1.0 else 3.0 in
  let ms = Experiments.fig5a ~fractions ~warehouses ~duration () in
  print_string
    (Experiments.render_normalized ~title:"" ~x_header:"read-only fraction" ms)

let fig5b ~quick () =
  banner "Figure 5b: DBT-2++ throughput, disk-bound configuration (normalized to SI)";
  let fractions = if quick then [ 0.; 0.5; 1.0 ] else [ 0.; 0.2; 0.4; 0.6; 0.8; 1.0 ] in
  let warehouses = if quick then 8 else 60 in
  let duration = if quick then 5.0 else 20.0 in
  let workers = if quick then 12 else 36 in
  let ms = Experiments.fig5b ~fractions ~warehouses ~duration ~workers () in
  print_string
    (Experiments.render_normalized ~title:"" ~x_header:"read-only fraction" ms)

let fig6 ~quick () =
  banner "Figure 6: RUBiS web application benchmark";
  let users = if quick then 100 else 400 in
  let items = if quick then 120 else 450 in
  let duration = if quick then 1.0 else 4.0 in
  let ms = Experiments.fig6 ~users ~items ~duration () in
  print_string (Experiments.render_fig6 ms)

let defer ~quick () =
  banner "Deferrable transactions (§8.4): time to obtain a safe snapshot";
  let samples = if quick then 15 else 60 in
  let r = Experiments.deferrable ~samples () in
  print_string (Experiments.render_deferrable r)

let ablations ~quick () =
  banner "Ablation: SIREAD granularity-promotion threshold (DBT-2++, SSI)";
  let duration = if quick then 1.0 else 2.0 in
  print_string
    (Experiments.render_ablation ~title:"" ~x_header:"locks before promotion"
       (Experiments.ablation_promotion ~duration ()));
  banner "Ablation: retained committed transactions before summarization (DBT-2++, SSI)";
  print_string
    (Experiments.render_ablation ~title:"" ~x_header:"max committed sxacts"
       (Experiments.ablation_summarization ~duration ()));
  banner "Ablation: index-gap lock granularity (DBT-2++, SSI; §5.2.1 future work)";
  print_string
    (Experiments.render_ablation ~title:"" ~x_header:"gap locks"
       (Experiments.ablation_nextkey ~duration ()))

let walgroup ~quick () =
  banner "Group commit: throughput vs commit latency across flush intervals (SIBENCH, SSI)";
  let duration = if quick then 1.0 else 3.0 in
  let intervals = if quick then [ 0.; 2e-4 ] else [ 0.; 5e-5; 2e-4; 1e-3 ] in
  let ms = Experiments.group_commit ~intervals ~duration () in
  print_string (Experiments.render_latency ~title:"flush interval:" ms);
  print_string
    "(sync = flush on every append; longer intervals batch more commits per\n\
    \ flush and shift the cost into commit latency — see wal.group_commit_size)\n"

(* ---- Machine-readable output --------------------------------------------------- *)

(* One BENCH_<workload>.json per workload: throughput, latency percentiles
   and SSI metric deltas per isolation mode, for CI artifacts and plotting
   scripts.  The same measurements are also printed as a latency table. *)

(* The json workloads double as the regression-gate corpus, so their
   parameters live in one place: the baselines committed under
   bench/baselines/ were generated by [json quick] and [regress quick]
   must rerun the exact same configurations. *)
let run_json_workload ?(certifier = Certifier.SSI) ~duration name ~setup ~specs modes =
  List.map
    (fun mode ->
      let bench =
        {
          Driver.default_bench with
          Driver.mode;
          certifier;
          duration;
          warmup = duration /. 5.;
          costs = Driver.in_memory_costs;
        }
      in
      let result = Driver.run ~setup ~specs bench in
      { Experiments.x_label = name; x_value = 0.; mode; result })
    modes

(* Read-fleet preset: SIBENCH with a 9:1 read-heavy mix where every query
   routes through a two-replica read fleet.  The replicas are streamed:
   each core subscribes to the primary's WAL over a simulated network with
   the default link latency, so routed reads land on genuinely lagging
   safe snapshots and the router's staleness/fallback machinery — not just
   its load balancing — is what the preset measures.  SSI only: the router
   always runs the primary serializable and serves replicas from their
   safe snapshots, so the isolation-mode and certifier dimensions of the
   other presets do not apply. *)
let run_readfleet_json ~duration name =
  let rows = 100 in
  let module R = Ssi_replication.Router in
  let module Rep = Ssi_replication.Replica in
  let module Stream = Ssi_replication.Stream in
  let module Net = Ssi_net.Net in
  let specs =
    List.map
      (fun s -> if s.Driver.read_only then { s with Driver.weight = 9.0 } else s)
      (Sibench.specs ~rows ())
  in
  let fleet db =
    let net = Net.create ~obs:(E.obs db) ~seed:7 () in
    let (_ : Stream.primary) = Stream.make_primary net ~node:"p" ~epoch:1 db in
    let router = R.create ~seed:7 ~primary:db () in
    List.iter
      (fun name ->
        let core = Rep.create ~obs:(E.obs db) ~name () in
        let sub = Stream.subscribe net ~node:name ~primary_node:"p" ~epoch:1 core in
        R.add_replica router (Stream.core sub))
      [ "r1"; "r2" ];
    router
  in
  let bench =
    {
      Driver.default_bench with
      Driver.mode = Driver.SSI;
      duration;
      warmup = duration /. 5.;
      costs = Driver.in_memory_costs;
      fleet = Some fleet;
    }
  in
  let result = Driver.run ~setup:(Sibench.setup ~rows) ~specs bench in
  [ { Experiments.x_label = name; x_value = 0.; mode = Driver.SSI; result } ]

(* Sharded preset: throughput of the cross-shard 2PC coordinator as the
   shard count grows.  Each point is one shard count; the summaries are
   keyed by x_label ("shards-N") so the regression gate compares each
   shard count against its own baseline. *)
let run_sharded_json ~duration () =
  List.map
    (fun shards ->
      let result = Sharded.bench ~shards ~seed:11 ~duration () in
      {
        Experiments.x_label = Printf.sprintf "shards-%d" shards;
        x_value = float_of_int shards;
        mode = Driver.SSI;
        result;
      })
    [ 1; 2; 4 ]

let json_workloads ~quick () =
  let duration = if quick then 0.5 else 2.0 in
  let warehouses = if quick then 4 else 10 in
  let users = if quick then 100 else 400 in
  let items = if quick then 120 else 450 in
  let base =
    [
      ("sibench", Sibench.setup ~rows:100, Sibench.specs ~rows:100 (), Driver.all_modes);
      ( "tpcc",
        Tpcc.setup ~warehouses,
        Tpcc.specs ~warehouses ~ro_fraction:0.4,
        [ Driver.SI; Driver.SSI; Driver.S2PL ] );
      ( "rubis",
        Rubis.setup ~users ~items,
        Rubis.specs ~users ~items,
        [ Driver.SI; Driver.SSI; Driver.S2PL ] );
    ]
  in
  (* The certifier dimension: the SSI files keep their historical names and
     (with the default certifier) their exact contents, so committed SSI
     baselines stay byte-identical.  SSN writes _ssn-suffixed files
     covering the serializable modes only — SI and S2PL never consult a
     certifier.  ESSN has no rows: on every preset it committed exactly
     what SSN did. *)
  let entries =
    List.concat_map
      (fun (name, setup, specs, modes) ->
        List.map
          (fun (certifier, suffix) ->
            let stem = name ^ suffix in
            let modes =
              if certifier = Certifier.SSI then modes
              else
                List.filter (fun m -> m = Driver.SSI || m = Driver.SSI_no_ro_opt) modes
            in
            (stem, fun () -> run_json_workload ~certifier ~duration stem ~setup ~specs modes))
          [ (Certifier.SSI, ""); (Certifier.SSN, "_ssn") ])
      base
  in
  let entries =
    entries
    @ [
        ("readfleet", fun () -> run_readfleet_json ~duration "readfleet");
        ("sharded", fun () -> run_sharded_json ~duration ());
      ]
  in
  (duration, entries)

let bench_json ~quick () =
  banner "Machine-readable summaries (BENCH_<workload>.json)";
  let duration, workloads = json_workloads ~quick () in
  List.iter
    (fun (name, run) ->
      let ms = run () in
      print_string (Experiments.render_latency ~title:(name ^ ":") ms);
      let file = Printf.sprintf "BENCH_%s.json" name in
      let oc = open_out file in
      output_string oc (Experiments.bench_json ~workload:name ~duration ms);
      close_out oc;
      Printf.printf "wrote %s\n%!" file)
    workloads

(* ---- §8.1 microbenchmarks: real CPU cost of read tracking ------------------- *)

(* Bechamel measures the actual wall-clock cost of one SIBENCH query or
   update transaction per isolation level on this machine — the real-OCaml
   counterpart of the paper's "tracking read dependencies has a CPU
   overhead of 10-20%" claim. *)

let micro_rows = 500

let make_db isolation_unused =
  ignore isolation_unused;
  let db = E.create () in
  Sibench.setup ~rows:micro_rows db;
  db

let micro_tests () =
  let open Bechamel in
  let rng = Ssi_util.Rng.make 99 in
  (* The query is NOT declared READ ONLY (except in the "safe" variant):
     an idle declared-read-only transaction is immediately granted a safe
     snapshot (§4.2) and would skip the read tracking this microbenchmark
     is measuring. *)
  let test_of ?(tracing = true) name isolation kind =
    let db = make_db () in
    (* Span recording is unconditional (causality must survive into
       post-mortems); only ring emission is toggleable.  The -notrace
       variant isolates that ring cost the same way query/SSI-safe
       isolates read tracking. *)
    if not tracing then Ssi_obs.Obs.set_tracing (E.obs db) false;
    Test.make ~name
      (Staged.stage (fun () ->
           match kind with
           | `Query ->
               E.with_txn ~isolation db (fun t ->
                   ignore (Sibench.query_min ~rows:micro_rows ~chunk:100 t))
           | `Query_ro ->
               E.with_txn ~isolation ~read_only:true db (fun t ->
                   ignore (Sibench.query_min ~rows:micro_rows ~chunk:100 t))
           | `Update ->
               E.with_txn ~isolation db (fun t ->
                   Sibench.update_one rng ~rows:micro_rows t)))
  in
  [
    test_of "query/SI" E.Repeatable_read `Query;
    test_of "query/SSI" E.Serializable `Query;
    test_of "query/SSI-safe" E.Serializable `Query_ro;
    test_of "query/S2PL" E.Serializable_2pl `Query;
    test_of "update/SI" E.Repeatable_read `Update;
    test_of "update/SSI" E.Serializable `Update;
    test_of "update/SSI-notrace" ~tracing:false E.Serializable `Update;
    test_of "update/S2PL" E.Serializable_2pl `Update;
  ]

let micro_results () =
  let open Bechamel in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
  let results = ref [] in
  List.iter
    (fun test ->
      let raw = Benchmark.all cfg [ instance ] test in
      let analyzed = Analyze.all ols instance raw in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ ns ] -> results := (name, ns) :: !results
          | Some _ | None -> ())
        analyzed)
    (micro_tests ());
  List.sort compare !results

let micro () =
  banner "Microbenchmark (§8.1): wall-clock cost per transaction by isolation level";
  let results = micro_results () in
  let find name = try List.assoc name results with Not_found -> nan in
  Printf.printf "%-18s %12s %10s\n" "transaction" "ns/txn" "vs SI";
  List.iter
    (fun (name, ns) ->
      let base =
        if String.length name >= 5 && String.sub name 0 5 = "query" then find "query/SI"
        else find "update/SI"
      in
      Printf.printf "%-18s %12.0f %9.2fx\n" name ns (ns /. base))
    results;
  Printf.printf
    "(query/SSI vs SI is the read-tracking CPU overhead, paper: 10-20%%;\n\
    \ query/SSI-safe shows the safe-snapshot optimization recovering it;\n\
    \ update/SSI-notrace isolates the trace-ring share of telemetry cost)\n"

(* ---- Regression gate ------------------------------------------------------------ *)

(* Rerun the json workloads and compare virtual-clock throughput against
   the committed baselines in bench/baselines/ (override the directory
   with BENCH_BASELINE_DIR).  The simulation is deterministic, so the 15%
   tolerance only has to absorb intentional behavior changes, never noise.
   Writes BENCH_REGRESSION.md (the CI artifact) and exits non-zero on a
   regression.  The wall-clock Bechamel micro numbers are appended to the
   report as information only — they depend on the machine running the
   gate. *)

let regress_tolerance = 0.15

let regress ~quick () =
  banner "Benchmark regression gate (virtual-clock throughput vs committed baselines)";
  let _, workloads = json_workloads ~quick () in
  let baseline_dir =
    match Sys.getenv_opt "BENCH_BASELINE_DIR" with
    | Some d -> d
    | None -> Filename.concat "bench" "baselines"
  in
  let comparisons =
    List.concat_map
      (fun (name, run) ->
        let ms = run () in
        let current =
          {
            Bench_compare.workload = name;
            modes =
              List.map
                (fun m ->
                  {
                    (* Mirrors [Experiments.bench_json]'s mode key: x-keyed
                       sweeps (nonzero x_value) compare by x_label. *)
                    Bench_compare.mode =
                      (if m.Experiments.x_value <> 0. then m.Experiments.x_label
                       else Driver.mode_name m.Experiments.mode);
                    throughput_tps = m.Experiments.result.Driver.throughput;
                    committed = m.Experiments.result.Driver.committed;
                    failure_rate = m.Experiments.result.Driver.failure_rate;
                    p99_s = m.Experiments.result.Driver.latency_p99;
                  })
                ms;
          }
        in
        let file = Filename.concat baseline_dir (Printf.sprintf "BENCH_%s.json" name) in
        let baseline = Bench_compare.load_summary file in
        Bench_compare.compare_summaries ~tolerance:regress_tolerance ~baseline ~current ())
      workloads
  in
  let report = Buffer.create 2048 in
  Buffer.add_string report
    (Bench_compare.render_report ~tolerance:regress_tolerance comparisons);
  Buffer.add_string report
    "\n## Microbenchmarks (wall clock, informational)\n\n\
     Machine-dependent; not part of the gate.\n\n\
     | transaction | ns/txn |\n|---|---:|\n";
  List.iter
    (fun (name, ns) ->
      Buffer.add_string report (Printf.sprintf "| %s | %.0f |\n" name ns))
    (micro_results ());
  let report = Buffer.contents report in
  print_string report;
  let oc = open_out "BENCH_REGRESSION.md" in
  output_string oc report;
  close_out oc;
  Printf.printf "wrote BENCH_REGRESSION.md\n%!";
  if Bench_compare.any_regression comparisons then begin
    prerr_endline "bench regression detected";
    exit 1
  end

(* ---- Dispatch ------------------------------------------------------------------ *)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let quick = List.mem "quick" args in
  let args = List.filter (fun a -> a <> "quick") args in
  (* [regress] is opt-in only: it needs committed baselines and exits
     non-zero on a regression. *)
  let all = [ "fig4"; "fig5a"; "fig5b"; "fig6"; "defer"; "abl"; "walgroup"; "json"; "micro" ] in
  let known = all @ [ "regress" ] in
  let selected = if args = [] then all else args in
  List.iter
    (fun name ->
      match name with
      | "fig4" -> fig4 ~quick ()
      | "fig5a" -> fig5a ~quick ()
      | "fig5b" -> fig5b ~quick ()
      | "fig6" -> fig6 ~quick ()
      | "defer" -> defer ~quick ()
      | "abl" -> ablations ~quick ()
      | "walgroup" -> walgroup ~quick ()
      | "json" -> bench_json ~quick ()
      | "micro" -> micro ()
      | "regress" -> regress ~quick ()
      | other ->
          Printf.eprintf "unknown experiment %S (expected: %s)\n" other
            (String.concat ", " known);
          exit 1)
    selected
