(* The benchmark's five workloads and the measured runs made of them.

   Everything here runs inside one OS process on one thread: clients are
   simulator coroutines.  A run measures from outside the library — it
   wraps the driver's [setup] closure, watches the measurement window
   from a simulator process of its own, and diffs the engine's existing
   metric registry across that window. *)

module E = Ssi_engine.Engine
module Obs = Ssi_obs.Obs
module Sim = Ssi_sim.Sim
module Wal = Ssi_wal.Wal
module Shard = Ssi_shard.Shard
module Sharded = Ssi_harness.Sharded
module Value = Ssi_storage.Value
module Bhist = Ssi_util.Bhist
module Rng = Ssi_util.Rng
module Waitq = Ssi_util.Waitq
module Driver = Ssi_workload.Driver
module Sibench = Ssi_workload.Sibench
module Tpcc = Ssi_workload.Tpcc
module Rubis = Ssi_workload.Rubis

(* ---- Clocks and allocation marks ------------------------------------------ *)

let origin = Monotonic_clock.now ()

(* Monotonic wall seconds since program start: the registry clock of traced
   runs and the time base of every window mark. *)
let wall () = Int64.to_float (Int64.sub (Monotonic_clock.now ()) origin) *. 1e-9

type mark = { at : float; words : float; minor_gcs : int; major_gcs : int }

let mark () =
  let s = Gc.quick_stat () in
  {
    at = wall ();
    words = s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words;
    minor_gcs = s.Gc.minor_collections;
    major_gcs = s.Gc.major_collections;
  }

let timed f =
  let t0 = wall () in
  let r = f () in
  (r, wall () -. t0)

let peak_heap_mb () = float (Gc.quick_stat ()).Gc.top_heap_words *. float (Sys.word_size / 8) /. 1e6

(* ---- Workload definitions ------------------------------------------------- *)

type mix = {
  mode : Driver.mode;
  duration : float;  (** measured virtual seconds; warm-up is a fifth of it *)
  setup : E.t -> unit;
  specs : Driver.spec list;
  wal : bool;  (** attach a group-commit WAL before setup *)
  check : E.txn -> string list;  (** invariant violations, read after the run *)
}

type kind = Mix of mix | Sharded of { shards : int; duration : float }

let sibench_rows = 1000
let warehouses = 4
let users = 400
let items = 450
let vi i = Value.Int i

let check_sibench txn =
  let keys =
    List.sort compare (List.map (fun r -> Value.as_int r.(0)) (E.seq_scan txn ~table:Sibench.table ()))
  in
  if keys = List.init sibench_rows Fun.id then []
  else [ Printf.sprintf "sibench: table no longer holds exactly keys 0..%d" (sibench_rows - 1) ]

(* DBT-2++ key encodings (district = w*10+d, order = district*10^6+o). *)
let check_tpcc txn =
  List.concat_map
    (fun w ->
      List.filter_map
        (fun d ->
          let dkey = (w * Tpcc.districts_per_warehouse) + d in
          match E.read txn ~table:"district" ~key:(vi dkey) with
          | None -> Some (Printf.sprintf "tpcc: district %d missing" dkey)
          | Some row ->
              let next = Value.as_int row.(3) and base = dkey * 1_000_000 in
              let orders =
                E.index_scan txn ~table:"orders" ~index:"orders_pkey" ~lo:(vi base)
                  ~hi:(vi (base + 999_999))
              in
              let highest = List.fold_left (fun m r -> max m (Value.as_int r.(0) - base)) 0 orders in
              if next = highest + 1 then None
              else
                Some
                  (Printf.sprintf "tpcc: district %d next-order-id %d but highest order %d" dkey
                     next highest))
        (List.init Tpcc.districts_per_warehouse Fun.id))
    (List.init warehouses (fun i -> i + 1))

(* Every bid placed bumps its item's bid count in the same transaction. *)
let check_rubis txn =
  List.filter_map
    (fun i ->
      match E.read txn ~table:"items" ~key:(vi i) with
      | None -> Some (Printf.sprintf "rubis: item %d missing" i)
      | Some row ->
          let bids = E.index_scan txn ~table:"bids" ~index:"bids_item" ~lo:(vi i) ~hi:(vi i) in
          if Value.as_int row.(4) = List.length bids then None
          else Some (Printf.sprintf "rubis: item %d counts %d bids, table holds %d" i
                       (Value.as_int row.(4)) (List.length bids)))
    (List.init items Fun.id)

let tpcc mode ~wal =
  Mix
    {
      mode;
      duration = 1.0;
      setup = Tpcc.setup ~warehouses;
      specs = Tpcc.specs ~warehouses ~ro_fraction:0.4;
      wal;
      check = check_tpcc;
    }

let all =
  [
    ( "sibench-track",
      Mix
        {
          mode = Driver.SSI_no_ro_opt;
          duration = 1.0;
          setup = Sibench.setup ~rows:sibench_rows;
          specs = Sibench.specs ~rows:sibench_rows ();
          wal = false;
          check = check_sibench;
        } );
    ("tpcc-wal", tpcc Driver.SSI ~wal:true);
    ("tpcc-s2pl", tpcc Driver.S2PL ~wal:false);
    ( "rubis-ro",
      Mix
        {
          mode = Driver.SSI;
          duration = 1.0;
          setup = Rubis.setup ~users ~items;
          specs = Rubis.specs ~users ~items;
          wal = false;
          check = check_rubis;
        } );
    ("sharded-4", Sharded { shards = 4; duration = 0.5 });
  ]

let names = List.map fst all
let find name = List.assoc_opt name all

let scaled ~quick = function
  | Mix m -> Mix { m with duration = (if quick then m.duration /. 5. else m.duration) }
  | Sharded s -> Sharded { s with duration = (if quick then s.duration /. 5. else s.duration) }

(* ---- Per-layer counts over a window --------------------------------------- *)

let finished_spans obs = Obs.Spans.dropped obs + List.length (Obs.Spans.finished obs)

type opened = { m0 : mark; snap : Obs.snap; spans0 : int; wal_bytes0 : int }

let open_window obs wal =
  {
    m0 = mark ();
    snap = Obs.snap obs;
    spans0 = finished_spans obs;
    wal_bytes0 = (match wal with Some w -> Wal.durable_size w | None -> 0);
  }

type window = {
  start : mark;
  stop : mark;
  deltas : (string * float) list;
  latency : Bhist.t;  (** the driver's per-transaction latencies in the window *)
}

(* Absolute increments of every counter the per-layer ledger reads.
   Histogram counts stand for calls (engine ops, WAL flush groups). *)
let close_window obs wal o =
  let stop = mark () in
  let c name = float (Obs.delta_counter obs o.snap name) in
  let calls name = Obs.delta_hist obs o.snap name in
  let n name = float (Bhist.count (calls name)) in
  let deltas =
    [
      ("reads", n "engine.latency.read");
      ("index_scans", n "engine.latency.index_scan");
      ("seq_scans", n "engine.latency.seq_scan");
      ("writes", n "engine.latency.insert" +. n "engine.latency.update" +. n "engine.latency.delete");
      ("conflicts", c "ssi.conflicts");
      ("dooms", c "ssi.dooms");
      ("summarized", c "ssi.summarized");
      ("safe_snapshots", c "ssi.safe_snapshots");
      ("tuple_locks", c "predlock.locks.tuple");
      ("page_locks", c "predlock.locks.page" +. c "predlock.locks.index_page");
      ("relation_locks", c "predlock.locks.relation" +. c "predlock.locks.index_rel");
      ("key_locks", c "predlock.locks.index_key" +. c "predlock.locks.index_inf");
      ("promotions", c "predlock.promotions");
      ("lock_waits", c "lockmgr.waits");
      ("deadlocks", c "lockmgr.deadlocks");
      ("wal_appends", c "wal.appends");
      ("wal_flushes", c "wal.flushes");
      ("wal_bytes", float ((match wal with Some w -> Wal.durable_size w | None -> 0) - o.wal_bytes0));
      ("wal_group", (let g = calls "wal.group_commit_size" in if Bhist.count g = 0 then 0. else Bhist.mean g));
      ("net_sent", c "net.sent");
      ("net_delivered", c "net.delivered");
      ("twopc", c "shard.twopc");
      ("fastpath", c "shard.fastpath");
      ("readonly", c "shard.readonly");
      ("spans", float (finished_spans obs - o.spans0));
    ]
  in
  { start = o.m0; stop; deltas; latency = calls "driver.txn_latency" }

(* Percentile [p] of a histogram, interpolated log-linearly inside the
   bucket holding the nearest rank.  The registry's buckets are 2% wide;
   their midpoint reads identically for every run whose tail lands in the
   same bucket, which hides real movement of the tail. *)
let percentile h p =
  let n = Bhist.count h in
  let rank = Float.max 1. (Float.ceil (p *. float n)) in
  let zeros = float (Bhist.zero_count h) in
  let g = Bhist.gamma h in
  let rec find below = function
    | [] -> Bhist.max_value h
    | (i, c) :: rest ->
        let c = float c in
        if rank <= below +. c then Bhist.bucket_upper h i /. g *. (g ** ((rank -. below -. 0.5) /. c))
        else find (below +. c) rest
  in
  if n = 0 then nan else if rank <= zeros then 0. else find zeros (Bhist.buckets h)

(* The per-layer count metrics, normalised per committed transaction. *)
let layer_counts w ~committed ~abort_rate =
  let d name = List.assoc name w.deltas in
  let per x = if committed > 0 then x /. float committed else 0. in
  let paths = d "twopc" +. d "fastpath" +. d "readonly" in
  let share x = if paths > 0. then x /. paths else 0. in
  let reads = d "reads" and scans = d "index_scans" and writes = d "writes" in
  [
    ("engine.ops", per (reads +. scans +. writes +. d "seq_scans"));
    ("engine.reads", per reads);
    ("engine.index_scans", per scans);
    ("engine.writes", per writes);
    ("driver.abort_rate", abort_rate);
    ("certifier.conflicts", per (d "conflicts"));
    ("certifier.dooms", per (d "dooms"));
    ("certifier.summarized", per (d "summarized"));
    ("certifier.safe_snapshot_ratio", per (d "safe_snapshots"));
    ( "predlock.locks",
      per (d "tuple_locks" +. d "page_locks" +. d "relation_locks" +. d "key_locks") );
    ("predlock.tuple_locks", per (d "tuple_locks"));
    ("predlock.page_locks", per (d "page_locks"));
    ("predlock.relation_locks", per (d "relation_locks"));
    ("predlock.promotions", per (d "promotions"));
    ("lockmgr.waits", per (d "lock_waits"));
    ("lockmgr.deadlocks", per (d "deadlocks"));
    ("wal.appends", per (d "wal_appends"));
    ("wal.flushes", per (d "wal_flushes"));
    ("wal.bytes", per (d "wal_bytes"));
    ("wal.group_size", d "wal_group");
    ("net.sent", per (d "net_sent"));
    ("net.delivered", per (d "net_delivered"));
    ("shard.twopc_ratio", share (d "twopc"));
    ("shard.fastpath_ratio", share (d "fastpath"));
    ("obs.spans", per (d "spans"));
    ("gc.minor_collections", 1000. *. per (float (w.stop.minor_gcs - w.start.minor_gcs)));
    ("gc.major_collections", 1000. *. per (float (w.stop.major_gcs - w.start.major_gcs)));
  ]

(* ---- One run of a transaction mix ----------------------------------------- *)

type mix_run = {
  result : Driver.result;
  setup_s : float;
  window : window;
  obs : Obs.t;
  violations : string list;
}

(* Drive [m] through [Driver.run].  [clock] re-points the engine's registry
   (and so its spans) at another clock; [span_capacity] sizes the span
   table.  After the window closes and in-flight work drains, the mix's
   invariants are read back through a snapshot transaction. *)
let run_mix ?clock ?span_capacity ?(mode_override : Driver.mode option) ~workers ~seed m =
  let wal = ref None and obs = ref None in
  let setup_s = ref nan and window = ref None and violations = ref [ "run did not finish" ] in
  let warmup = m.duration /. 5. in
  let chaos db =
    obs := Some (E.obs db);
    Option.iter (Obs.set_clock (E.obs db)) clock;
    if m.wal then begin
      let w = Wal.create ~flush_interval:2e-4 () in
      E.attach_wal db w;
      wal := Some w
    end
  in
  let setup db =
    let (), s = timed (fun () -> m.setup db) in
    setup_s := s;
    let o = E.obs db in
    Sim.spawn (fun () ->
        Sim.delay warmup;
        let opened = open_window o !wal in
        Sim.delay m.duration;
        window := Some (close_window o !wal opened);
        Sim.delay warmup;
        violations :=
          (try
             let broken =
               E.with_txn ~isolation:E.Repeatable_read ~read_only:true db m.check
             in
             let giveups = Obs.get_counter o "engine.giveups" in
             if giveups > 0 then Printf.sprintf "%d transactions gave up retrying" giveups :: broken
             else broken
           with e -> [ "invariant check raised " ^ Printexc.to_string e ]))
  in
  let bench =
    {
      Driver.default_bench with
      Driver.mode = Option.value mode_override ~default:m.mode;
      workers;
      duration = m.duration;
      warmup;
      seed;
      costs = Driver.in_memory_costs;
      chaos = Some chaos;
      trace_capacity = span_capacity;
    }
  in
  let result = Driver.run ~setup ~specs:m.specs bench in
  match (!window, !obs) with
  | Some window, Some obs -> { result; setup_s = !setup_s; window; obs; violations = !violations }
  | _ -> failwith "run_mix: the measurement window never closed"

(* ---- The sharded loop ------------------------------------------------------ *)

(* A copy of [Sharded.bench]'s body written against the public [Shard] API,
   so that the benchmark can put spans around each call and read the
   registry.  [traced] points the shard registry at the wall clock and
   opens a bench span per transaction and per API call.  The copy must
   reproduce [Sharded.bench] exactly; the per-layer run checks that. *)
type sharded_run = { s_committed : int; s_failures : int; s_window : window; s_obs : Obs.t }

let sharded_table = "accounts"
let sharded_keys = 256
let sharded_ops = 4

(* Spans the traced loop adds per transaction: its root, begin, each op
   and commit. *)
let sharded_bench_spans = sharded_ops + 3

let sharded_setup ?span_capacity ~shards ~seed () =
  let obs =
    Option.map (fun n -> Obs.create ~trace_capacity:n ~span_capacity:n ()) span_capacity
  in
  let sys = Shard.create ?obs ~shards ~seed () in
  Shard.create_table sys ~name:sharded_table ~cols:[ "k"; "writer" ] ~key:"k";
  Shard.seed_rows sys ~table:sharded_table
    ~rows:(List.init sharded_keys (fun k -> [| vi k; vi 1 |]));
  sys

let run_sharded ?(traced = false) ?span_capacity ?(workers = 16) ~shards ~seed ~duration () =
  let write_bias = 0.5 and op_cost = 2e-5 in
  let committed = ref 0 and failures = ref 0 and result = ref None in
  ignore
    (Sim.run (fun () ->
         let sys = sharded_setup ?span_capacity ~shards ~seed () in
         let obs = Shard.obs sys in
         if traced then Obs.set_clock obs wall;
         let span parent name f =
           match parent with
           | None -> f ()
           | Some p ->
               let sp = Obs.Span.start obs ~parent:p name in
               Fun.protect ~finally:(fun () -> Obs.Span.finish obs sp) f
         in
         let cpus = Array.init shards (fun _ -> Sim.resource ~capacity:1) in
         let workers_left = ref workers and done_q = Waitq.create () in
         let opened = open_window obs None in
         for w = 0 to workers - 1 do
           Sim.spawn (fun () ->
               let rng = Rng.make (Hashtbl.hash (seed, "bench", w)) in
               while Sim.now () < duration do
                 let root = if traced then Some (Obs.Span.start obs "bench.txn") else None in
                 let g = span root "shard.begin" (fun () -> Shard.begin_txn sys) in
                 let gxid = Shard.gxid g in
                 (try
                    for _ = 1 to sharded_ops do
                      let key = vi (Rng.int rng sharded_keys) in
                      let s = Shard.shard_of_key sys key in
                      Sim.use cpus.(s) op_cost;
                      if Rng.chance rng write_bias then
                        ignore
                          (span root "shard.update" (fun () ->
                               Shard.update g ~table:sharded_table ~key ~f:(fun row ->
                                   [| row.(0); vi gxid |])))
                      else ignore (span root "shard.read" (fun () -> Shard.read g ~table:sharded_table ~key))
                    done;
                    ignore (span root "shard.commit" (fun () -> Shard.commit g));
                    incr committed
                  with E.Serialization_failure _ | E.Transient_fault _ ->
                    Shard.abort g;
                    incr failures);
                 Option.iter (Obs.Span.finish obs) root
               done;
               decr workers_left;
               Waitq.wake_all done_q)
         done;
         while !workers_left > 0 do
           Sim.wait done_q
         done;
         result := Some (close_window obs None opened, obs)));
  match !result with
  | Some (s_window, s_obs) -> { s_committed = !committed; s_failures = !failures; s_window; s_obs }
  | None -> failwith "run_sharded: the simulation ended early"

let sharded_setup_s ~shards ~seed =
  snd (timed (fun () -> ignore (Sim.run (fun () -> ignore (sharded_setup ~shards ~seed ())))))
