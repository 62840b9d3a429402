open Ssi_util
open Ssi_workload
module E = Ssi_engine.Engine
module Sim = Ssi_sim.Sim

type measurement = {
  x_label : string;
  x_value : float;
  mode : Driver.mode;
  result : Driver.result;
}

let sweep ~modes ~points ~bench_of ~setup_of ~specs_of ~label_of =
  List.concat_map
    (fun x ->
      List.map
        (fun mode ->
          let result =
            Driver.run ~setup:(setup_of x) ~specs:(specs_of x) (bench_of mode x)
          in
          { x_label = label_of x; x_value = x; mode; result })
        modes)
    points

(* ---- Figure 4: SIBENCH ----------------------------------------------------- *)

let fig4 ?(sizes = [ 10; 30; 100; 300; 1000; 3000 ]) ?(duration = 3.0) ?(workers = 4)
    ?(cores = 4) () =
  sweep
    ~modes:[ Driver.SI; Driver.SSI; Driver.SSI_no_ro_opt; Driver.S2PL ]
    ~points:(List.map float_of_int sizes)
    ~bench_of:(fun mode _x ->
      {
        Driver.default_bench with
        Driver.mode;
        workers;
        cpu_cores = cores;
        duration;
        warmup = duration /. 5.;
        costs = Driver.in_memory_costs;
      })
    ~setup_of:(fun x -> Sibench.setup ~rows:(int_of_float x))
    ~specs_of:(fun x -> Sibench.specs ~rows:(int_of_float x) ())
    ~label_of:(fun x -> string_of_int (int_of_float x))

(* ---- Figure 5: DBT-2++ ------------------------------------------------------- *)

let fig5a ?(fractions = [ 0.; 0.2; 0.4; 0.6; 0.8; 1.0 ]) ?(warehouses = 25)
    ?(duration = 3.0) ?(workers = 4) ?(cores = 4) () =
  sweep
    ~modes:[ Driver.SI; Driver.SSI; Driver.SSI_no_ro_opt; Driver.S2PL ]
    ~points:fractions
    ~bench_of:(fun mode _ ->
      {
        Driver.default_bench with
        Driver.mode;
        workers;
        cpu_cores = cores;
        duration;
        warmup = duration /. 5.;
        costs = Driver.in_memory_costs;
      })
    ~setup_of:(fun _ -> Tpcc.setup ~warehouses)
    ~specs_of:(fun f -> Tpcc.specs ~warehouses ~ro_fraction:f)
    ~label_of:(fun f -> Printf.sprintf "%.0f%%" (100. *. f))

let fig5b ?(fractions = [ 0.; 0.2; 0.4; 0.6; 0.8; 1.0 ]) ?(warehouses = 60)
    ?(duration = 20.0) ?(workers = 36) ?(cores = 16) ?(disks = 4) () =
  sweep
    ~modes:[ Driver.SI; Driver.SSI; Driver.S2PL ]
    ~points:fractions
    ~bench_of:(fun mode _ ->
      {
        Driver.default_bench with
        Driver.mode;
        workers;
        cpu_cores = cores;
        disks;
        duration;
        warmup = duration /. 5.;
        costs = Driver.disk_bound_costs;
      })
    ~setup_of:(fun _ -> Tpcc.setup ~warehouses)
    ~specs_of:(fun f -> Tpcc.specs ~warehouses ~ro_fraction:f)
    ~label_of:(fun f -> Printf.sprintf "%.0f%%" (100. *. f))

(* ---- Figure 6: RUBiS ----------------------------------------------------------- *)

let fig6 ?(users = 400) ?(items = 450) ?(duration = 4.0) ?(workers = 16) ?(cores = 8) () =
  sweep
    ~modes:[ Driver.SI; Driver.SSI; Driver.S2PL ]
    ~points:[ 0. ]
    ~bench_of:(fun mode _ ->
      {
        Driver.default_bench with
        Driver.mode;
        workers;
        cpu_cores = cores;
        duration;
        warmup = duration /. 5.;
        costs = Driver.in_memory_costs;
      })
    ~setup_of:(fun _ -> Rubis.setup ~users ~items)
    ~specs_of:(fun _ -> Rubis.specs ~users ~items)
    ~label_of:(fun _ -> "bidding mix")

(* ---- §8.4: deferrable transactions ----------------------------------------------- *)

type deferrable_result = {
  samples : int;
  median_s : float;
  p90_s : float;
  max_s : float;
  latencies : Stats.t;
}

let deferrable ?(samples = 60) ?(warehouses = 10) ?(workers = 36) ?(cores = 8) ?(disks = 2)
    () =
  let latencies = Stats.create () in
  let costs = Driver.disk_bound_costs in
  ignore
    (Sim.run (fun () ->
         let cpu = Sim.resource ~capacity:cores in
         let disk = Sim.resource ~capacity:disks in
         let charging = ref false in
         let charge_cpu x = if !charging && x > 0. then Sim.use cpu x in
         let charge_io x = if !charging && x > 0. then Sim.use disk x in
         let config =
           {
             E.default_config with
             E.costs = costs;
             charge_cpu = Some charge_cpu;
             charge_io = Some charge_io;
           }
         in
         ignore cores;
         let db = E.create ~scheduler:Sim.scheduler ~config () in
         Tpcc.setup ~warehouses db;
         charging := true;
         let specs = Tpcc.specs ~warehouses ~ro_fraction:0.08 in
         let total_weight = List.fold_left (fun acc s -> acc +. s.Driver.weight) 0. specs in
         let t_end = Sim.now () +. (float_of_int samples *. 1.2) +. 5. in
         let running = ref true in
         for i = 1 to workers do
           let rng = Rng.make (1000 + i) in
           Sim.spawn (fun () ->
               while !running && Sim.now () < t_end do
                 let x = Rng.float rng total_weight in
                 let spec =
                   let rec go acc = function
                     | [] -> invalid_arg "empty mix"
                     | [ s ] -> s
                     | s :: rest ->
                         if acc +. s.Driver.weight > x then s else go (acc +. s.Driver.weight) rest
                   in
                   go 0. specs
                 in
                 try
                   E.retry ~isolation:E.Serializable ~read_only:spec.Driver.read_only db
                     (fun txn -> spec.Driver.body rng txn)
                 with E.Error (E.Serialization_failure _) -> ()
               done)
         done;
         (* One deferrable transaction per simulated second (§8.4 used a
            one-second delay between them). *)
         Sim.spawn (fun () ->
             for _ = 1 to samples do
               let t0 = Sim.now () in
               E.with_txn ~read_only:true ~deferrable:true db (fun txn ->
                   ignore (E.read txn ~table:"warehouse" ~key:(Ssi_storage.Value.Int 1)));
               Stats.add latencies (Sim.now () -. t0);
               Sim.delay 1.0
             done;
             running := false)));
  {
    samples = Stats.count latencies;
    median_s = Stats.median latencies;
    p90_s = Stats.percentile latencies 0.9;
    max_s = Stats.max_value latencies;
    latencies;
  }

(* ---- Ablations ---------------------------------------------------------------------- *)

let ablation_promotion ?(thresholds = [ 1; 2; 4; 16 ]) ?(rows = 5) ?(duration = 2.0) () =
  (* TPC-C reads are partial (per-district, per-customer), so promoting its
     SIREAD locks to coarse granularities creates false conflicts; SIBENCH
     would not discriminate because its queries read everything anyway. *)
  let warehouses = rows in
  sweep ~modes:[ Driver.SI; Driver.SSI ]
    ~points:(List.map float_of_int thresholds)
    ~bench_of:(fun mode x ->
      let t = int_of_float x in
      {
        Driver.default_bench with
        Driver.mode;
        duration;
        warmup = duration /. 5.;
        predlock =
          {
            Ssi_core.Predlock.max_tuple_locks_per_page = t;
            max_page_locks_per_relation = t;
            max_page_locks_per_index = t;
          };
      })
    ~setup_of:(fun _ -> Tpcc.setup ~warehouses)
    ~specs_of:(fun _ -> Tpcc.specs ~warehouses ~ro_fraction:0.3)
    ~label_of:(fun x -> string_of_int (int_of_float x))

let ablation_summarization ?(limits = [ 0; 2; 16; 256 ]) ?(warehouses = 5)
    ?(duration = 2.0) () =
  sweep ~modes:[ Driver.SI; Driver.SSI ]
    ~points:(List.map float_of_int limits)
    ~bench_of:(fun mode x ->
      {
        Driver.default_bench with
        Driver.mode;
        duration;
        warmup = duration /. 5.;
        max_committed_sxacts = int_of_float x;
      })
    ~setup_of:(fun _ -> Tpcc.setup ~warehouses)
    ~specs_of:(fun _ -> Tpcc.specs ~warehouses ~ro_fraction:0.08)
    ~label_of:(fun x -> string_of_int (int_of_float x))

let ablation_nextkey ?(warehouses = 5) ?(duration = 2.0) () =
  sweep ~modes:[ Driver.SI; Driver.SSI ]
    ~points:[ 0.; 1. ]
    ~bench_of:(fun mode x ->
      {
        Driver.default_bench with
        Driver.mode;
        duration;
        warmup = duration /. 5.;
        next_key_gaps = x > 0.5;
      })
    ~setup_of:(fun _ -> Tpcc.setup ~warehouses)
    ~specs_of:(fun _ -> Tpcc.specs ~warehouses ~ro_fraction:0.3)
    ~label_of:(fun x -> if x > 0.5 then "next-key" else "page")

(* ---- Durability: group commit --------------------------------------------------- *)

let group_commit ?(intervals = [ 0.; 5e-5; 2e-4; 1e-3 ]) ?(rows = 100) ?(duration = 3.0)
    ?(workers = 8) ?(cores = 4) () =
  sweep ~modes:[ Driver.SSI ] ~points:intervals
    ~bench_of:(fun mode interval ->
      {
        Driver.default_bench with
        Driver.mode;
        workers;
        cpu_cores = cores;
        duration;
        warmup = duration /. 5.;
        costs = Driver.in_memory_costs;
        chaos =
          Some
            (fun db ->
              E.attach_wal db (Ssi_wal.Wal.create ~flush_interval:interval ()));
      })
    ~setup_of:(fun _ -> Sibench.setup ~rows)
    ~specs_of:(fun _ -> Sibench.specs ~rows ())
    ~label_of:(fun i ->
      if i = 0. then "sync" else Printf.sprintf "%.0fus" (1e6 *. i))

(* ---- Rendering --------------------------------------------------------------------- *)

let group_by_x measurements =
  let order = ref [] in
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun m ->
      if not (Hashtbl.mem tbl m.x_label) then begin
        Hashtbl.add tbl m.x_label [];
        order := m.x_label :: !order
      end;
      Hashtbl.replace tbl m.x_label (m :: Hashtbl.find tbl m.x_label))
    measurements;
  List.rev_map (fun x -> (x, List.rev (Hashtbl.find tbl x))) !order

let si_throughput group =
  match List.find_opt (fun m -> m.mode = Driver.SI) group with
  | Some m -> m.result.Driver.throughput
  | None -> nan

let render_normalized ~title ~x_header measurements =
  let groups = group_by_x measurements in
  let modes =
    List.filter
      (fun mode -> List.exists (fun m -> m.mode = mode) measurements)
      Driver.all_modes
  in
  let header =
    x_header :: "SI (tx/s)"
    :: List.filter_map
         (fun mode -> if mode = Driver.SI then None else Some (Driver.mode_name mode))
         modes
  in
  let rows =
    List.map
      (fun (x, group) ->
        let base = si_throughput group in
        x
        :: Printf.sprintf "%.0f" base
        :: List.filter_map
             (fun mode ->
               if mode = Driver.SI then None
               else
                 match List.find_opt (fun m -> m.mode = mode) group with
                 | Some m ->
                     Some (Printf.sprintf "%.2fx" (m.result.Driver.throughput /. base))
                 | None -> Some "-")
             modes)
      groups
  in
  Printf.sprintf "%s\n%s" title (Tablefmt.render ~header rows)

let render_ablation ~title ~x_header measurements =
  let groups = group_by_x measurements in
  let header =
    [ x_header; "SSI tx/s"; "vs SI"; "failure rate"; "conflicts"; "summarized" ]
  in
  let rows =
    List.map
      (fun (x, group) ->
        let base = si_throughput group in
        match List.find_opt (fun m -> m.mode = Driver.SSI) group with
        | None -> [ x; "-"; "-"; "-"; "-"; "-" ]
        | Some m ->
            [
              x;
              Printf.sprintf "%.0f" m.result.Driver.throughput;
              Printf.sprintf "%.2fx" (m.result.Driver.throughput /. base);
              Printf.sprintf "%.3f%%" (100. *. m.result.Driver.failure_rate);
              string_of_int m.result.Driver.ssi_conflicts;
              string_of_int m.result.Driver.ssi_summarized;
            ])
      groups
  in
  Printf.sprintf "%s\n%s" title (Tablefmt.render ~header rows)

let render_fig6 measurements =
  let header = [ "mode"; "throughput (tx/s)"; "serialization failures" ] in
  let rows =
    List.map
      (fun m ->
        [
          Driver.mode_name m.mode;
          Printf.sprintf "%.0f" m.result.Driver.throughput;
          Printf.sprintf "%.3f%%" (100. *. m.result.Driver.failure_rate);
        ])
      measurements
  in
  Printf.sprintf "Figure 6: RUBiS bidding mix\n%s" (Tablefmt.render ~header rows)

let render_latency ~title measurements =
  (* A leading x column only when the measurements sweep something (the
     json workloads run one x; the group-commit sweep runs several). *)
  let distinct_x =
    match measurements with
    | [] -> false
    | m :: tl -> List.exists (fun m' -> m'.x_label <> m.x_label) tl
  in
  let header =
    (if distinct_x then [ "x" ] else [])
    @ [ "mode"; "tx/s"; "p50 lat (s)"; "p95 lat (s)"; "p99 lat (s)"; "failure rate" ]
  in
  let f x = if Float.is_finite x then Printf.sprintf "%.6f" x else "-" in
  let rows =
    List.map
      (fun m ->
        let r = m.result in
        (if distinct_x then [ m.x_label ] else [])
        @ [
          Driver.mode_name m.mode;
          Printf.sprintf "%.0f" r.Driver.throughput;
          f r.Driver.latency_p50;
          f r.Driver.latency_p95;
          f r.Driver.latency_p99;
          Printf.sprintf "%.3f%%" (100. *. r.Driver.failure_rate);
        ])
      measurements
  in
  Printf.sprintf "%s\n%s" title (Tablefmt.render ~header rows)

(* ---- Machine-readable output (BENCH_<workload>.json) ------------------------------- *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_num x = if Float.is_finite x then Printf.sprintf "%.9g" x else "null"

let isolation_name = function
  | E.Read_committed -> "read committed"
  | E.Repeatable_read -> "repeatable read"
  | E.Serializable -> "serializable"
  | E.Serializable_2pl -> "serializable (2PL)"

let bench_json ~workload ~duration measurements =
  let mode_obj m =
    let r = m.result in
    let abort_reasons =
      String.concat ","
        (List.map
           (fun (reason, n) -> Printf.sprintf "{\"reason\":\"%s\",\"count\":%d}" (json_escape reason) n)
           r.Driver.abort_reasons)
    in
    String.concat ""
      [
        "{";
        (* Mode key: sweeps whose points differ by x rather than by
           isolation mode (x_value set nonzero, e.g. the sharded preset's
           shard counts) key their summaries by x_label so comparisons
           match like against like.  Plain mode sweeps all carry
           x_value = 0 and keep the historical mode names, so committed
           baselines stay byte-identical. *)
        Printf.sprintf "\"mode\":\"%s\","
          (json_escape (if m.x_value <> 0. then m.x_label else Driver.mode_name m.mode));
        Printf.sprintf "\"isolation\":\"%s\","
          (isolation_name (Driver.isolation_of_mode m.mode));
        Printf.sprintf "\"x\":\"%s\"," (json_escape m.x_label);
        Printf.sprintf "\"committed\":%d," r.Driver.committed;
        Printf.sprintf "\"failures\":%d," r.Driver.failures;
        Printf.sprintf "\"throughput_tps\":%s," (json_num r.Driver.throughput);
        Printf.sprintf "\"failure_rate\":%s," (json_num r.Driver.failure_rate);
        Printf.sprintf "\"mean_latency_s\":%s," (json_num r.Driver.latency_mean);
        Printf.sprintf "\"p50_latency_s\":%s," (json_num r.Driver.latency_p50);
        Printf.sprintf "\"p95_latency_s\":%s," (json_num r.Driver.latency_p95);
        Printf.sprintf "\"p99_latency_s\":%s," (json_num r.Driver.latency_p99);
        Printf.sprintf "\"retries\":%d," r.Driver.retries;
        Printf.sprintf "\"ssi_conflicts\":%d," r.Driver.ssi_conflicts;
        Printf.sprintf "\"ssi_summarized\":%d," r.Driver.ssi_summarized;
        Printf.sprintf "\"ssi_safe_snapshots\":%d," r.Driver.ssi_safe_snapshots;
        Printf.sprintf "\"abort_reasons\":[%s]" abort_reasons;
        "}";
      ]
  in
  Printf.sprintf "{\"workload\":\"%s\",\"duration_s\":%s,\"modes\":[%s]}\n"
    (json_escape workload) (json_num duration)
    (String.concat "," (List.map mode_obj measurements))

let render_deferrable r =
  Printf.sprintf
    "Deferrable transactions (§8.4): safe-snapshot latency over %d samples\n\
     median %.2f s   90th percentile %.2f s   max %.2f s\n"
    r.samples r.median_s r.p90_s r.max_s

(* ---- Figure presets ---------------------------------------------------------------- *)

type figure = { name : string; title : string; table : quick:bool -> string }

let figures =
  let fractions = [ 0.; 0.5; 1.0 ] in
  let normalized x_header ms = render_normalized ~title:"" ~x_header ms in
  let figure name title table = { name; title; table } in
  [
    figure "fig4" "Figure 4: SIBENCH transaction throughput (normalized to SI)" (fun ~quick ->
        normalized "table size (rows)"
          (if quick then fig4 ~sizes:[ 10; 100; 1000 ] ~duration:1.0 () else fig4 ()));
    figure "fig5a" "Figure 5a: DBT-2++ throughput, in-memory configuration (normalized to SI)"
      (fun ~quick ->
        normalized "read-only fraction"
          (if quick then fig5a ~fractions ~warehouses:4 ~duration:1.0 () else fig5a ()));
    figure "fig5b" "Figure 5b: DBT-2++ throughput, disk-bound configuration (normalized to SI)"
      (fun ~quick ->
        normalized "read-only fraction"
          (if quick then fig5b ~fractions ~warehouses:8 ~duration:5.0 ~workers:12 ()
           else fig5b ()));
    figure "fig6" "Figure 6: RUBiS web application benchmark" (fun ~quick ->
        render_fig6 (if quick then fig6 ~users:100 ~items:120 ~duration:1.0 () else fig6 ()));
    figure "defer" "Deferrable transactions (§8.4): time to obtain a safe snapshot" (fun ~quick ->
        render_deferrable (if quick then deferrable ~samples:15 () else deferrable ()));
  ]
