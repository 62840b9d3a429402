(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§8).

     dune exec bench/main.exe            -- run everything except regress
     dune exec bench/main.exe -- fig4    -- Figure 4 (SIBENCH)
     dune exec bench/main.exe -- fig5a   -- Figure 5a (DBT-2++, in-memory)
     dune exec bench/main.exe -- fig5b   -- Figure 5b (DBT-2++, disk-bound)
     dune exec bench/main.exe -- fig6    -- Figure 6 (RUBiS)
     dune exec bench/main.exe -- defer   -- §8.4 deferrable-transaction latency
     dune exec bench/main.exe -- abl     -- design ablations (promotion, summarization, gaps)
     dune exec bench/main.exe -- walgroup -- group-commit flush-interval sweep
     dune exec bench/main.exe -- json    -- BENCH_<workload>.json summaries
     dune exec bench/main.exe -- regress -- compare against bench/baselines/ (CI gate)
     dune exec bench/main.exe -- quick   -- reduced-size versions of everything

   The five paper figures come from [Experiments.figures], the preset table
   [pg_ssi bench] prints too.  Absolute numbers are simulated (see
   DESIGN.md §5); the claims under test are the figures' shapes: who wins,
   by how much, and where the curves cross.  The real-speed cost of read
   tracking (§8.1) is measured by perfbench/, not here. *)

open Ssi_workload
open Ssi_harness
module E = Ssi_engine.Engine
module Certifier = Ssi_core.Certifier

let banner name = Printf.printf "\n===== %s =====\n%!" name

(* ---- Figures ------------------------------------------------------------- *)

let figure (f : Experiments.figure) ~quick () =
  banner f.Experiments.title;
  print_string (f.Experiments.table ~quick)

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
   scripts; the same measurements are also printed as a latency table.
   The json workloads double as the regression-gate corpus, so their
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

(* ---- Regression gate ------------------------------------------------------------ *)

(* Rerun the json workloads and compare virtual-clock throughput against
   the committed baselines in bench/baselines/ (override the directory
   with BENCH_BASELINE_DIR).  The simulation is deterministic, so the 15%
   tolerance only has to absorb intentional behavior changes, never noise.
   Writes BENCH_REGRESSION.md (the CI artifact) and exits non-zero on a
   regression. *)

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
  let report = Bench_compare.render_report ~tolerance:regress_tolerance comparisons in
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
  let modes =
    List.map (fun (f : Experiments.figure) -> (f.Experiments.name, figure f)) Experiments.figures
    @ [ ("abl", ablations); ("walgroup", walgroup); ("json", bench_json) ]
  in
  let known = modes @ [ ("regress", regress) ] in
  let selected = if args = [] then List.map fst modes else args in
  List.iter
    (fun name ->
      match List.assoc_opt name known with
      | Some run -> run ~quick ()
      | None ->
          Printf.eprintf "unknown experiment %S (expected: %s)\n" name
            (String.concat ", " (List.map fst known));
          exit 1)
    selected
