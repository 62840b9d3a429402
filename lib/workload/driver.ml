open Ssi_util
module E = Ssi_engine.Engine
module Sim = Ssi_sim.Sim
module Certifier = Ssi_core.Certifier
module Obs = Ssi_obs.Obs

type mode = SI | SSI | SSI_no_ro_opt | S2PL

let mode_name = function
  | SI -> "SI"
  | SSI -> "SSI"
  | SSI_no_ro_opt -> "SSI (no r/o opt)"
  | S2PL -> "S2PL"

let all_modes = [ SI; SSI; SSI_no_ro_opt; S2PL ]

let isolation_of_mode = function
  | SI -> E.Repeatable_read
  | SSI | SSI_no_ro_opt -> E.Serializable
  | S2PL -> E.Serializable_2pl

type spec = {
  name : string;
  weight : float;
  read_only : bool;
  body : Rng.t -> E.txn -> unit;
  routed : (Rng.t -> Ssi_replication.Router.ro -> unit) option;
}

type bench = {
  mode : mode;
  certifier : Certifier.kind;
  workers : int;
  duration : float;
  warmup : float;
  cpu_cores : int;
  disks : int;
  costs : E.costs;
  seed : int;
  max_committed_sxacts : int;
  predlock : Ssi_core.Predlock.config;
  next_key_gaps : bool;
  retry : E.retry_policy;
  chaos : (E.t -> unit) option;
  trace_capacity : int option;
  fleet : (E.t -> Ssi_replication.Router.t) option;
}

let in_memory_costs =
  {
    E.cpu_per_op = 20e-6;
    cpu_per_tuple = 1e-6;
    cpu_per_lock = 0.6e-6;
    io_per_page = 0.;
    miss_ratio = 0.;
    io_commit = 15e-6;
  }

let disk_bound_costs =
  {
    E.cpu_per_op = 20e-6;
    cpu_per_tuple = 1e-6;
    cpu_per_lock = 0.6e-6;
    io_per_page = 2e-3;  (* ~2ms seek on a 15k RPM spindle *)
    miss_ratio = 0.08;
    io_commit = 0.4e-3;  (* battery-backed write cache absorbs log flushes *)
  }

let default_bench =
  {
    mode = SSI;
    certifier = Certifier.SSI;
    workers = 4;
    duration = 5.0;
    warmup = 1.0;
    cpu_cores = 4;
    disks = 0;
    costs = in_memory_costs;
    seed = 42;
    max_committed_sxacts = 256;
    predlock = Ssi_core.Predlock.default_config;
    next_key_gaps = false;
    retry = E.default_retry_policy;
    chaos = None;
    trace_capacity = None;
    fleet = None;
  }

type result = {
  committed : int;
  failures : int;
  deadlocks : int;
  sim_seconds : float;
  throughput : float;
  failure_rate : float;
  cpu_busy : float;
  ssi_summarized : int;
  ssi_safe_snapshots : int;
  ssi_conflicts : int;
  retries : int;
  giveups : int;
  injected_faults : int;
  attempts_per_commit : float;
  latency_mean : float;  (** virtual seconds per committed transaction *)
  latency_p50 : float;
  latency_p95 : float;
  latency_p99 : float;
  abort_reasons : (string * int) list;
      (** per-reason serialization-failure breakdown, descending count *)
}

(* One worker's spec, with what each of its transactions would otherwise
   rebuild: the root span's attributes and the bodies over the worker's
   generator. *)
type entry = {
  spec : spec;
  attrs : (string * Obs.field) list;
  txn_body : E.txn -> unit;
  routed_body : (Ssi_replication.Router.ro -> unit) option;
}

let entry ~worker rng spec =
  {
    spec;
    attrs =
      [ ("spec", Obs.S spec.name); ("worker", Obs.I worker); ("read_only", Obs.B spec.read_only) ];
    txn_body = (fun txn -> spec.body rng txn);
    routed_body = Option.map (fun body ro -> body rng ro) spec.routed;
  }

let pick_entry rng entries total_weight =
  let x = Rng.float rng total_weight in
  let rec go acc = function
    | [] -> invalid_arg "Driver: empty spec list"
    | [ e ] -> e
    | e :: rest -> if acc +. e.spec.weight > x then e else go (acc +. e.spec.weight) rest
  in
  go 0. entries

(* Counter deltas over the measurement window come from one registry
   snapshot taken when warmup ends — not from hand-copied totals, so
   several drivers sharing an engine each see only their own window. *)
type window = {
  w_failures : int;
  w_deadlocks : int;
  w_retries : int;
  w_giveups : int;
  w_injected : int;
  w_ssi_summarized : int;
  w_ssi_safe : int;
  w_ssi_conflicts : int;
  w_latencies : Bhist.t;
  w_abort_reasons : (string * int) list;
}

(* Metric names are namespaced by the certifier ([ssi.*], [ssn.*],
   [essn.*]); the window reads whichever namespace the bench ran under.
   [<p>.safe_snapshots] only exists under SSI — [delta_counter] reports 0
   for the others. *)
let close_window ~certifier obs base =
  let d name = Obs.delta_counter obs base name in
  let p = Certifier.prefix certifier in
  let abort_reasons =
    List.filter_map
      (fun (name, _) ->
        let prefix = p ^ ".victims." in
        if String.length name > String.length prefix
           && String.sub name 0 (String.length prefix) = prefix
        then
          let n = d name in
          if n > 0 then
            Some (String.sub name (String.length prefix) (String.length name - String.length prefix), n)
          else None
        else None)
      (Obs.dump obs)
    |> List.sort (fun (_, a) (_, b) -> compare b a)
  in
  {
    w_failures = d "engine.serialization_failures";
    w_deadlocks = d "engine.deadlocks";
    w_retries = d "engine.retries";
    w_giveups = d "engine.giveups";
    w_injected = d "engine.faults_injected";
    w_ssi_summarized = d (p ^ ".summarized");
    w_ssi_safe = d (p ^ ".safe_snapshots");
    w_ssi_conflicts = d (p ^ ".conflicts");
    w_latencies = Obs.delta_hist obs base "driver.txn_latency";
    w_abort_reasons = abort_reasons;
  }

let run ~setup ~specs bench =
  if specs = [] then invalid_arg "Driver.run: no transaction specs";
  let total_weight = List.fold_left (fun acc s -> acc +. s.weight) 0. specs in
  let committed = ref 0 in
  let cpu_busy = ref 0. in
  let window = ref None in
  Sim.run (fun () ->
      let cpu = Sim.resource ~capacity:bench.cpu_cores in
      let disk = if bench.disks > 0 then Some (Sim.resource ~capacity:bench.disks) else None in
      let charging = ref false in
      let charge_cpu x = if !charging && x > 0. then Sim.use cpu x in
      let charge_io x =
        if !charging && x > 0. then
          match disk with Some d -> Sim.use d x | None -> Sim.delay x
      in
      let config =
        {
          E.default_config with
          E.certifier =
            {
              Certifier.kind = bench.certifier;
              read_only_opt = bench.mode <> SSI_no_ro_opt;
              max_committed_sxacts = bench.max_committed_sxacts;
              predlock = bench.predlock;
            };
          costs = bench.costs;
          next_key_gaps = bench.next_key_gaps;
          charge_cpu = Some charge_cpu;
          charge_io = Some charge_io;
        }
      in
      let db =
        match bench.trace_capacity with
        | Some n ->
            let obs = Obs.create ~trace_capacity:n ~span_capacity:n () in
            E.create ~scheduler:Sim.scheduler ~config ~obs ()
        | None -> E.create ~scheduler:Sim.scheduler ~config ()
      in
      let obs = E.obs db in
      let lat = Obs.histogram obs "driver.txn_latency" in
      (* The chaos hook attaches its replica/injector before the setup
         transactions run, so the replica sees the full WAL stream; the
         injector stays disarmed until its first burst event. *)
      (match bench.chaos with Some chaos -> chaos db | None -> ());
      (* The fleet (replicas + router) also attaches before setup, so
         attach-mode replicas stream the setup transactions too. *)
      let router = match bench.fleet with Some build -> Some (build db) | None -> None in
      setup db;
      charging := true;
      let isolation = Some (isolation_of_mode bench.mode) and policy = Some bench.retry in
      let t0 = Sim.now () in
      let measure_from = t0 +. bench.warmup in
      let t_end = measure_from +. bench.duration in
      (* Open the measurement window: one registry snapshot when warmup
         ends, diffed against the registry when the window closes. *)
      let base = ref None in
      Sim.spawn (fun () ->
          Sim.delay bench.warmup;
          base := Some (Obs.snap obs));
      for i = 1 to bench.workers do
        let rng = Rng.make (Hashtbl.hash (bench.seed, i)) in
        let backoff_rng = Some (Rng.make (Hashtbl.hash (bench.seed, i, "backoff"))) in
        (* One session per worker: its reads must observe its own writes
           even when routed to a replica. *)
        let session =
          match router with
          | Some r -> Some (Ssi_replication.Router.session r)
          | None -> None
        in
        let entries = List.map (entry ~worker:i rng) specs in
        let run_one e sp =
          match (router, session) with
          | Some r, Some s -> (
              match e.routed_body with
              | Some body when e.spec.read_only ->
                  Ssi_replication.Router.read_only ~session:s ~span:sp r body
              | Some _ | None ->
                  if e.spec.read_only then
                    E.retry_with ?isolation ~read_only:true ?policy ?rng:backoff_rng ~span:sp db
                      e.txn_body
                  else
                    Ssi_replication.Router.write ~session:s ?isolation ?rng:backoff_rng ~span:sp r
                      e.txn_body)
          | _ ->
              E.retry_with ?isolation ~read_only:e.spec.read_only ?policy ?rng:backoff_rng
                ~span:sp db e.txn_body
        in
        Sim.spawn (fun () ->
            while Sim.now () < t_end do
              let e = pick_entry rng entries total_weight in
              let started = Sim.now () in
              (* One root span per logical transaction: it survives the
                 retry loop, whose attempts nest underneath. *)
              let sp = Obs.Span.start obs ~attrs:e.attrs "txn" in
              match run_one e sp with
              | () ->
                  Obs.Span.add sp "outcome" (Obs.S "committed");
                  Obs.Span.finish obs sp;
                  let finished = Sim.now () in
                  Obs.observe lat (finished -. started);
                  if finished >= measure_from && finished < t_end then incr committed
              | exception E.Error err when E.retryable err ->
                  Obs.Span.add sp "outcome" (Obs.S "gave_up");
                  Obs.Span.finish obs sp
            done)
      done;
      Sim.spawn (fun () ->
          Sim.delay (bench.warmup +. bench.duration);
          let base = match !base with Some s -> s | None -> Obs.snap obs in
          window := Some (close_window ~certifier:bench.certifier obs base);
          cpu_busy := Sim.busy_time cpu))
  |> fun final_time ->
  let w =
    match !window with
    | Some w -> w
    | None -> invalid_arg "Driver.run: simulation ended before the measurement window closed"
  in
  let failures = w.w_failures in
  let denom = float_of_int (!committed + failures) in
  let pct p = Bhist.percentile w.w_latencies p in
  {
    committed = !committed;
    failures;
    deadlocks = w.w_deadlocks;
    sim_seconds = final_time;
    throughput =
      (if bench.duration > 0. then float_of_int !committed /. bench.duration else 0.);
    failure_rate = (if denom > 0. then float_of_int failures /. denom else 0.);
    cpu_busy =
      !cpu_busy /. (float_of_int bench.cpu_cores *. (bench.warmup +. bench.duration));
    ssi_summarized = w.w_ssi_summarized;
    ssi_safe_snapshots = w.w_ssi_safe;
    ssi_conflicts = w.w_ssi_conflicts;
    retries = w.w_retries;
    giveups = w.w_giveups;
    injected_faults = w.w_injected;
    attempts_per_commit =
      (if !committed > 0 then
         1. +. (float_of_int w.w_retries /. float_of_int !committed)
       else 0.);
    latency_mean = Bhist.mean w.w_latencies;
    latency_p50 = pct 0.5;
    latency_p95 = pct 0.95;
    latency_p99 = pct 0.99;
    abort_reasons = w.w_abort_reasons;
  }
