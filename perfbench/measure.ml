(* The two kinds of measured run a workload gets: the end-to-end run (its
   real client count, registry clock untouched) and the per-layer run (one
   client, once with the virtual clock and once with the engine's existing
   spans pointed at the wall clock). *)

open Workloads

let median xs =
  match List.sort Float.compare xs with
  | [] -> nan
  | sorted ->
      let n = List.length sorted in
      let at i = List.nth sorted i in
      if n mod 2 = 1 then at (n / 2) else (at ((n / 2) - 1) +. at (n / 2)) /. 2.

(* ---- End-to-end ------------------------------------------------------------ *)

type e2e = {
  setup_s : float;
  wall_s : float;  (** wall seconds of the measurement window *)
  committed : int;  (** committed transactions in the window *)
  attempted : int;  (** attempts in the window: commits plus aborted attempts *)
  virtual_tps : float;
  p99_ms : float;
  abort_rate : float;
  words_per_txn : float;
  peak_heap_mb : float;
  counts : (string * float) list;  (** per-layer counts per commit (mixes only) *)
  violations : string list;
}

let e2e ~seed = function
  | Mix m ->
      let r = run_mix ~workers:4 ~seed m in
      let w = r.window and res = r.result in
      let committed = res.Driver.committed in
      let per x = x /. float (max 1 committed) in
      {
        setup_s = r.setup_s;
        wall_s = w.stop.at -. w.start.at;
        committed;
        attempted = committed + res.failures;
        virtual_tps = res.throughput;
        p99_ms = percentile w.latency 0.99 *. 1e3;
        abort_rate = res.failure_rate;
        words_per_txn = per (w.stop.words -. w.start.words);
        peak_heap_mb = peak_heap_mb ();
        counts = layer_counts w ~committed ~abort_rate:res.failure_rate;
        violations = r.violations;
      }
  | Sharded { shards; duration } ->
      (* The sharded set-up takes well under a millisecond: time it often. *)
      let setup_s = median (List.init 25 (fun _ -> sharded_setup_s ~shards ~seed)) in
      let m0 = mark () in
      let res = Sharded.bench ~shards ~seed ~duration () in
      let m1 = mark () in
      let peak = peak_heap_mb () in
      let violations =
        match (Sharded.run { Sharded.default_cfg with shards; seed }).violation with
        | None -> []
        | Some v -> [ "sharded oracle: " ^ v ]
      in
      let committed = res.Driver.committed in
      {
        setup_s;
        wall_s = m1.at -. m0.at;
        committed;
        attempted = committed + res.failures;
        virtual_tps = res.throughput;
        p99_ms = res.latency_p99 *. 1e3;
        abort_rate = res.failure_rate;
        words_per_txn = (m1.words -. m0.words) /. float (max 1 committed);
        peak_heap_mb = peak;
        counts = [];
        violations = (if committed = 0 then [ "nothing committed" ] else []) @ violations;
      }

(* The end-to-end metrics of one run, by their BENCHMARK.json names. *)
let e2e_values e =
  [
    ("wall_tps", float e.committed /. e.wall_s);
    ("virtual_tps", e.virtual_tps);
    ("virtual_p99_ms", e.p99_ms);
    ("attempts_per_commit", float e.attempted /. float e.committed);
    ("words_per_txn", e.words_per_txn);
    ("peak_heap_mb", e.peak_heap_mb);
    ("setup_s", e.setup_s);
  ]

(* The metrics that must repeat exactly for a fixed binary and seed. *)
let deterministic e =
  [
    ("committed", float e.committed);
    ("attempted", float e.attempted);
    ("virtual_tps", e.virtual_tps);
    ("virtual_p99_ms", e.p99_ms);
    ("abort_rate", e.abort_rate);
    ("words_per_txn", e.words_per_txn);
    ("peak_heap_mb", e.peak_heap_mb);
  ]
  @ e.counts

(* ---- Per-layer ---------------------------------------------------------------- *)

(* Span names, as the engine, lock manager, network, shard coordinator and
   this benchmark record them, mapped to ledger metrics.  [txn] is the
   driver's root span in a mix; under the shard coordinator it is the
   root the engine opens for each branch transaction. *)
let span_metric ~sharded = function
  | "txn" -> if sharded then "engine.attempt.self_ns" else "driver.txn.self_ns"
  | "bench.txn" -> "driver.txn.self_ns"
  | "txn.attempt" -> "engine.attempt.self_ns"
  | "txn.commit" -> "engine.commit.self_ns"
  | "op.read" -> "engine.read.self_ns"
  | "op.index_scan" -> "engine.index_scan.self_ns"
  | "op.update" -> "engine.update.self_ns"
  | "op.insert" -> "engine.insert.self_ns"
  | "op.delete" -> "engine.delete.self_ns"
  | "shard.begin" | "shard.read" | "shard.update" | "shard.commit" -> "shard.api.self_ns"
  | "shard.twopc" -> "shard.twopc.self_ns"
  | "net.msg" -> "net.wait_ns"
  | "lockmgr.wait" -> "lockmgr.wait_ns"
  | _ -> "other.self_ns"

let charge_metrics =
  [
    "engine.read.self_ns"; "engine.index_scan.self_ns"; "engine.update.self_ns";
    "engine.insert.self_ns"; "engine.delete.self_ns"; "engine.commit.self_ns";
    "engine.attempt.self_ns"; "driver.txn.self_ns"; "shard.api.self_ns"; "shard.twopc.self_ns";
    "other.self_ns"; "net.wait_ns"; "lockmgr.wait_ns";
  ]

type layers = {
  metrics : (string * float) list;
  untraced_ns : float;  (** single-client wall ns per commit, untraced *)
  reference : (int * int) option;
      (** (committed, attempted) of the sharded copy at full client count,
          to compare against [Sharded.bench] *)
  problems : string list;
}

(* Attribute the traced window's wall time to span names.  Open spans run
   to the end of the window. *)
let charges ~sharded ~committed ~lo ~hi obs =
  let spans =
    Array.of_list
      (List.map
         (fun sp ->
           let stop = if Obs.Span.is_open sp then hi else Obs.Span.end_ts sp in
           { Selftime.name = Obs.Span.name sp; start = Obs.Span.start_ts sp; stop })
         (Obs.Spans.all obs))
  in
  let by_name, residual = Selftime.attribute ~lo ~hi spans in
  let ns x = x *. 1e9 /. float (max 1 committed) in
  let total m =
    List.fold_left
      (fun acc (name, t) -> if span_metric ~sharded name = m then acc +. t else acc)
      0. by_name
  in
  let charged = List.map (fun m -> (m, ns (total m))) charge_metrics in
  (charged, ns residual, ns (hi -. lo))

let capacity_for spans = spans + (spans / 8) + 1024

let layer_run ~seed ~chrome kind =
  let traced_part ~sharded ~committed ~untraced_committed ~lo ~hi ~untraced_ns obs =
    let charged, residual_ns, traced_ns = charges ~sharded ~committed ~lo ~hi obs in
    let dropped = Obs.Spans.dropped obs in
    let accounted = List.fold_left (fun acc (_, v) -> acc +. v) residual_ns charged in
    Option.iter
      (fun path -> Out_channel.with_open_bin path (fun oc -> output_string oc (Obs.Spans.to_chrome_json obs)))
      chrome;
    let problems =
      (if dropped > 0 then [ Printf.sprintf "traced run dropped %d spans" dropped ] else [])
      @ (if committed <> untraced_committed then
           [ Printf.sprintf "wall clock changed the run: %d vs %d commits" committed untraced_committed ]
         else [])
      @
      if Float.abs (accounted -. traced_ns) > 1e-6 *. traced_ns then
        [ Printf.sprintf "self time %.1f ns/txn does not add up to %.1f" accounted traced_ns ]
      else []
    in
    ( charged
      @ [
          ("residual_ns", residual_ns);
          ("traced.ns_per_txn", traced_ns);
          ("untraced.ns_per_txn", untraced_ns);
          ("obs.trace_overhead", traced_ns /. untraced_ns);
        ],
      problems )
  in
  let ns_per_commit (w : window) committed = (w.stop.at -. w.start.at) *. 1e9 /. float (max 1 committed) in
  match kind with
  | Mix m ->
      let plain = run_mix ~workers:1 ~seed m in
      let committed0 = plain.result.Driver.committed in
      let untraced_ns = ns_per_commit plain.window committed0 in
      let spans = capacity_for (finished_spans plain.obs) in
      let traced = run_mix ~clock:wall ~span_capacity:spans ~workers:1 ~seed m in
      let committed = traced.result.Driver.committed in
      let timed_part, problems =
        traced_part ~sharded:false ~committed ~untraced_committed:committed0
          ~lo:traced.window.start.at ~hi:traced.window.stop.at ~untraced_ns traced.obs
      in
      let tracking =
        match m.mode with
        | Driver.SSI | Driver.SSI_no_ro_opt ->
            let si = run_mix ~mode_override:Driver.SI ~workers:1 ~seed m in
            let si_ns = ns_per_commit si.window si.result.Driver.committed in
            [ ("certifier.tracking_ns", untraced_ns -. si_ns); ("certifier.tracking_overhead", (untraced_ns /. si_ns) -. 1.) ]
        | Driver.SI | Driver.S2PL -> [ ("certifier.tracking_ns", 0.); ("certifier.tracking_overhead", 0.) ]
      in
      {
        metrics = timed_part @ tracking;
        untraced_ns;
        reference = None;
        problems = problems @ plain.violations @ traced.violations;
      }
  | Sharded { shards; duration } ->
      let full = run_sharded ~shards ~seed ~duration () in
      let counts =
        layer_counts full.s_window ~committed:full.s_committed
          ~abort_rate:(float full.s_failures /. float (max 1 (full.s_committed + full.s_failures)))
      in
      let plain = run_sharded ~workers:1 ~shards ~seed ~duration () in
      let untraced_ns = ns_per_commit plain.s_window plain.s_committed in
      let spans =
        capacity_for
          (finished_spans plain.s_obs + (sharded_bench_spans * (plain.s_committed + plain.s_failures)))
      in
      let traced = run_sharded ~traced:true ~span_capacity:spans ~workers:1 ~shards ~seed ~duration () in
      let timed_part, problems =
        traced_part ~sharded:true ~committed:traced.s_committed ~untraced_committed:plain.s_committed
          ~lo:traced.s_window.start.at ~hi:traced.s_window.stop.at ~untraced_ns traced.s_obs
      in
      {
        metrics =
          counts @ timed_part
          @ [ ("certifier.tracking_ns", 0.); ("certifier.tracking_overhead", 0.) ];
        untraced_ns;
        reference = Some (full.s_committed, full.s_committed + full.s_failures);
        problems;
      }
