(* The observability core: metric registry semantics (counters, gauges,
   histograms, kind safety), window snapshots/deltas, the bounded event
   log and its JSONL rendering, nearest-rank percentiles, and the
   end-to-end summarization counter — shrinking the committed-sxact
   budget mid-run must drive [ssi.summarized] up without costing
   serializability. *)

open Ssi_storage
module Obs = Ssi_obs.Obs
module Scrape = Ssi_obs.Scrape
module Watchdog = Ssi_obs.Watchdog
module Stats = Ssi_util.Stats
module Bhist = Ssi_util.Bhist
module E = Ssi_engine.Engine
module Certifier = Ssi_core.Certifier
module Sim = Ssi_sim.Sim
module Rng = Ssi_util.Rng

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  n = 0 || go 0

(* ---- Registry ------------------------------------------------------------ *)

let test_counters () =
  let obs = Obs.create () in
  Alcotest.(check int) "absent counter reads 0" 0 (Obs.get_counter obs "x.absent");
  let c = Obs.counter obs "x.c" in
  Obs.incr c;
  Obs.incr ~by:4 c;
  Alcotest.(check int) "handle value" 5 (Obs.counter_value c);
  (* get-or-create: a second handle for the same name shares the cell. *)
  Obs.incr (Obs.counter obs "x.c");
  Alcotest.(check int) "by-name lookup" 6 (Obs.get_counter obs "x.c")

let test_gauges () =
  let obs = Obs.create () in
  Alcotest.(check bool) "absent gauge is nan" true (Float.is_nan (Obs.get_gauge obs "g"));
  let g = Obs.gauge obs "g" in
  Obs.set_gauge g 2.5;
  Alcotest.(check (float 0.)) "set/read" 2.5 (Obs.gauge_value g);
  Obs.set_gauge g 7.0;
  Alcotest.(check (float 0.)) "last write wins" 7.0 (Obs.get_gauge obs "g")

let test_histograms () =
  let obs = Obs.create () in
  Alcotest.(check bool) "absent histogram" true (Obs.find_histogram obs "h" = None);
  let h = Obs.histogram obs "h" in
  List.iter (Obs.observe h) [ 3.0; 1.0; 2.0 ];
  let st = Obs.histogram_hist h in
  Alcotest.(check int) "count" 3 (Bhist.count st);
  Alcotest.(check (float 1e-9)) "mean" 2.0 (Bhist.mean st);
  Alcotest.(check (float 0.)) "min exact" 1.0 (Bhist.min_value st);
  Alcotest.(check (float 0.)) "max exact" 3.0 (Bhist.max_value st)

let test_kind_mismatch () =
  let obs = Obs.create () in
  ignore (Obs.counter obs "m");
  Alcotest.check_raises "gauge over counter"
    (Invalid_argument "Obs: metric \"m\" already registered as a counter, not a gauge")
    (fun () -> ignore (Obs.gauge obs "m"))

let test_dump_sorted () =
  let obs = Obs.create () in
  Obs.incr (Obs.counter obs "b.count");
  Obs.set_gauge (Obs.gauge obs "a.gauge") 1.0;
  Obs.observe (Obs.histogram obs "c.hist") 0.5;
  let names = List.map fst (Obs.dump obs) in
  (* The two drop counters exist from birth alongside user metrics. *)
  Alcotest.(check (list string)) "name-sorted"
    [ "a.gauge"; "b.count"; "c.hist"; "obs.spans.dropped"; "obs.trace.dropped" ]
    names;
  (* The rendered table mentions every metric. *)
  let table = Obs.render obs in
  List.iter
    (fun n -> Alcotest.(check bool) (n ^ " rendered") true (contains ~needle:n table))
    names

(* ---- Snapshots and deltas ------------------------------------------------- *)

let test_snap_deltas () =
  let obs = Obs.create () in
  let c = Obs.counter obs "c" and h = Obs.histogram obs "h" in
  Obs.incr ~by:10 c;
  Obs.observe h 1.0;
  let base = Obs.snap obs in
  Alcotest.(check int) "no movement yet" 0 (Obs.delta_counter obs base "c");
  Obs.incr ~by:3 c;
  Obs.observe h 2.0;
  Obs.observe h 3.0;
  Alcotest.(check int) "counter delta" 3 (Obs.delta_counter obs base "c");
  let dh = Obs.delta_hist obs base "h" in
  Alcotest.(check int) "histogram window count" 2 (Bhist.count dh);
  Alcotest.(check (float 1e-9)) "histogram window sum" 5.0 (Bhist.total dh);
  (* The window's p100 is within the documented bound of the true 3.0. *)
  let p100 = Bhist.percentile dh 1.0 in
  Alcotest.(check bool) "windowed percentile in bound" true
    (Float.abs (p100 -. 3.0) /. 3.0 <= Bhist.accuracy dh);
  (* Metrics born after the snap still diff cleanly. *)
  Obs.incr (Obs.counter obs "late");
  Obs.observe (Obs.histogram obs "late.h") 9.0;
  Alcotest.(check int) "late counter" 1 (Obs.delta_counter obs base "late");
  Alcotest.(check int) "late histogram" 1 (Bhist.count (Obs.delta_hist obs base "late.h"));
  Alcotest.(check int) "absent everywhere" 0 (Obs.delta_counter obs base "never");
  Alcotest.(check int) "absent histogram is empty" 0
    (Bhist.count (Obs.delta_hist obs base "never.h"))

(* Histogram sketches accumulate bucket counts independently of the
   event log, so window deltas must stay exact (in count and sum) even
   when the log wraps many times inside the window.  This is the
   contract that lets [pg_ssi workload] report per-window latency
   percentiles without caring about log capacity. *)
let test_delta_hist_across_ring_wrap () =
  let obs = Obs.create ~trace_capacity:8 () in
  let h = Obs.histogram obs "lat" in
  Obs.observe h 0.5;
  let base = Obs.snap obs in
  (* 100 trace events through an 8-slot log: 92 overwrites. *)
  for i = 1 to 100 do
    Obs.trace obs ~fields:[ ("i", Obs.I i) ] "tick";
    if i mod 10 = 0 then Obs.observe h (float_of_int i)
  done;
  Alcotest.(check int) "ring wrapped" 92 (Obs.get_counter obs "obs.trace.dropped");
  Alcotest.(check int) "ring holds only capacity" 8 (List.length (Obs.events obs));
  let dh = Obs.delta_hist obs base "lat" in
  Alcotest.(check int) "window count exact despite the wrap" 10 (Bhist.count dh);
  Alcotest.(check (float 1e-9)) "window sum exact" 550. (Bhist.total dh);
  let p50 = Bhist.percentile dh 0.5 in
  Alcotest.(check bool) "window p50 in bound" true
    (Float.abs (p50 -. 50.) /. 50. <= Bhist.accuracy dh);
  (* A second snap nests cleanly. *)
  let mid = Obs.snap obs in
  Obs.observe h 7.0;
  let nested = Obs.delta_hist obs mid "lat" in
  Alcotest.(check int) "nested window count" 1 (Bhist.count nested);
  Alcotest.(check (float 1e-9)) "nested window sum" 7.0 (Bhist.total nested)

(* ---- Event log ------------------------------------------------------------ *)

let test_trace_ring_bounds () =
  let obs = Obs.create ~trace_capacity:4 () in
  for i = 1 to 10 do
    Obs.trace obs ~fields:[ ("i", Obs.I i) ] "tick"
  done;
  let evs = Obs.events obs in
  Alcotest.(check int) "ring keeps the newest capacity events" 4 (List.length evs);
  Alcotest.(check (list int)) "oldest first" [ 6; 7; 8; 9 ]
    (List.map (fun e -> e.Obs.seq) evs);
  let is = List.map (fun e -> List.assoc "i" e.Obs.fields) evs in
  Alcotest.(check bool) "payload survives" true (is = [ Obs.I 7; I 8; I 9; I 10 ])

let test_trace_clock () =
  let obs = Obs.create () in
  let now = ref 1.5 in
  Obs.set_clock obs (fun () -> !now);
  Obs.trace obs "a";
  now := 2.5;
  Obs.trace obs "b";
  match Obs.events obs with
  | [ a; b ] ->
      Alcotest.(check string) "first" "a" a.Obs.name;
      Alcotest.(check (float 0.)) "stamped" 1.5 a.Obs.ts;
      Alcotest.(check string) "second" "b" b.Obs.name;
      Alcotest.(check (float 0.)) "restamped" 2.5 b.Obs.ts
  | evs -> Alcotest.failf "expected 2 events, got %d" (List.length evs)

(* Events under a span and events with none share one log: a full log
   keeps exactly the newest [capacity] of them, oldest first, with
   contiguous seqs, and each overwrite is counted once. *)
let test_one_log_across_spans () =
  let obs = Obs.create ~trace_capacity:4 () in
  let sp = Obs.Span.start obs "txn" in
  List.iteri
    (fun i under_span ->
      let fields = [ ("i", Obs.I i) ] in
      if under_span then Obs.trace obs ~span:sp ~fields "e" else Obs.trace obs ~fields "e")
    [ false; true; false; true; true; false ];
  let evs = Obs.events obs in
  Alcotest.(check (list int)) "newest four, contiguous, oldest first" [ 2; 3; 4; 5 ]
    (List.map (fun e -> e.Obs.seq) evs);
  Alcotest.(check bool) "payloads in order" true
    (List.map (fun e -> List.assoc "i" e.Obs.fields) evs = [ Obs.I 2; I 3; I 4; I 5 ]);
  Alcotest.(check (list bool)) "span events carry their span first"
    [ false; true; true; false ]
    (List.map
       (fun e -> List.nth_opt e.Obs.fields 0 = Some ("span", Obs.I (Obs.Span.id sp)))
       evs);
  Alcotest.(check int) "two overwrites" 2 (Obs.get_counter obs "obs.trace.dropped")

let test_trace_jsonl () =
  let obs = Obs.create () in
  Obs.trace obs
    ~fields:[ ("xid", Obs.I 7); ("why", Obs.S "pivot \"x\""); ("ro", Obs.B true) ]
    "ssi.fail";
  Obs.trace obs ~fields:[ ("lag", Obs.F 0.25) ] "replica.lag";
  let lines = List.map Obs.event_to_json (Obs.events obs) in
  Alcotest.(check int) "one object per event" 2 (List.length lines);
  let l1 = List.nth lines 0 in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (needle ^ " present") true (contains ~needle l1))
    [ {|"event":"ssi.fail"|}; {|"xid":7|}; {|"why":"pivot \"x\""|}; {|"ro":true|}; {|"seq":0|} ];
  Alcotest.(check bool) "float field" true
    (contains ~needle:{|"lag":0.25|} (List.nth lines 1))

(* ---- Nearest-rank percentiles --------------------------------------------- *)

let test_percentile_nearest () =
  Alcotest.(check bool) "empty is nan" true
    (Float.is_nan (Stats.percentile_nearest_of [||] 0.5));
  let a = Array.init 100 (fun i -> float_of_int (i + 1)) in
  (* Nearest-rank over 1..100: p-th percentile is exactly ceil(p*100). *)
  List.iter
    (fun (p, want) ->
      Alcotest.(check (float 0.))
        (Printf.sprintf "p%.0f of 1..100" (100. *. p))
        want
        (Stats.percentile_nearest_of a p))
    [ (0.50, 50.); (0.95, 95.); (0.99, 99.); (1.0, 100.); (0.0, 1.) ];
  Alcotest.(check (float 0.)) "singleton" 42. (Stats.percentile_nearest_of [| 42. |] 0.99);
  (* Always a member of the sample, never interpolated. *)
  Alcotest.(check (float 0.)) "no interpolation" 10.
    (Stats.percentile_nearest_of [| 1.; 10. |] 0.75);
  let st = Stats.create () in
  List.iter (Stats.add st) [ 5.; 1.; 9. ];
  Alcotest.(check (float 0.)) "Stats.t variant" 9. (Stats.percentile_nearest st 0.95);
  (* Stats.t variant on degenerate inputs: empty yields nan (not 0 and
     not an exception), a single sample is every percentile. *)
  let empty = Stats.create () in
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (Printf.sprintf "empty Stats.t p%.0f is nan" (100. *. p))
        true
        (Float.is_nan (Stats.percentile_nearest empty p)))
    [ 0.0; 0.5; 1.0 ];
  let one = Stats.create () in
  Stats.add one 3.25;
  List.iter
    (fun p ->
      Alcotest.(check (float 0.))
        (Printf.sprintf "singleton Stats.t p%.0f" (100. *. p))
        3.25 (Stats.percentile_nearest one p))
    [ 0.0; 0.5; 0.99; 1.0 ]

(* ---- Drop accounting and the never-set-gauge contract ---------------------- *)

let test_drop_counters () =
  let obs = Obs.create ~trace_capacity:4 ~span_capacity:2 () in
  (* Both drop counters exist (and render) from birth. *)
  List.iter
    (fun n -> Alcotest.(check int) (n ^ " starts at 0") 0 (Obs.get_counter obs n))
    [ "obs.trace.dropped"; "obs.spans.dropped" ];
  (* Span-table overwrites: 5 finished spans through 2 slots. *)
  for i = 1 to 5 do
    let sp = Obs.Span.start obs (Printf.sprintf "s%d" i) in
    Obs.Span.finish obs sp
  done;
  Alcotest.(check int) "span drops counted" 3 (Obs.Spans.dropped obs);
  Alcotest.(check int) "counter agrees" 3 (Obs.get_counter obs "obs.spans.dropped");
  Alcotest.(check (list string)) "newest spans survive" [ "s4"; "s5" ]
    (List.map Obs.Span.name (Obs.Spans.finished obs));
  (* And the rendered table names both, so truncation is visible. *)
  let table = Obs.render obs in
  List.iter
    (fun n -> Alcotest.(check bool) (n ^ " rendered") true (contains ~needle:n table))
    [ "obs.trace.dropped"; "obs.spans.dropped" ]

let test_never_set_gauge_skipped () =
  let obs = Obs.create () in
  let _declared_only = Obs.gauge obs "replica.lag" in
  Obs.incr (Obs.counter obs "c");
  Alcotest.(check bool) "get_gauge is nan before first write" true
    (Float.is_nan (Obs.get_gauge obs "replica.lag"));
  let names () = List.map fst (Obs.dump obs) in
  Alcotest.(check bool) "dump omits the never-set gauge" false
    (List.mem "replica.lag" (names ()));
  Alcotest.(check bool) "dump keeps the counter" true (List.mem "c" (names ()));
  Alcotest.(check bool) "render omits it too" false
    (contains ~needle:"replica.lag" (Obs.render obs));
  (* First write makes it visible. *)
  Obs.set_gauge (Obs.gauge obs "replica.lag") 0.25;
  Alcotest.(check bool) "visible once written" true (List.mem "replica.lag" (names ()))

(* ---- Summarization under a mid-run budget shrink (§6.2) ------------------- *)

(* A concurrent workload on the virtual clock; halfway through, the
   committed-sxact budget is cut to zero, so every later commit must pass
   through the summarizer.  The [ssi.summarized] counter has to climb
   after the shrink, and the surviving history must still be
   serializable. *)

let table = "kv"
let keys = 10
let vi i = Value.Int i

let shrink_txn rng t =
  let me = E.xid t in
  for _ = 1 to 4 do
    let k = Rng.int rng keys in
    if Rng.float rng 1.0 < 0.5 then
      ignore (E.update t ~table ~key:(vi k) ~f:(fun row -> [| row.(0); vi me |]))
    else ignore (E.read t ~table ~key:(vi k))
  done

let test_shrink_mid_run () =
  let costs =
    { E.zero_costs with E.cpu_per_op = 80e-6; cpu_per_tuple = 4e-6; io_commit = 40e-6 }
  in
  let db = E.create ~scheduler:Sim.scheduler ~config:{ E.default_config with E.costs } () in
  let history = ref [] in
  let at_shrink = ref None in
  let workers = 4 and txns_per_worker = 12 in
  ignore
    (Sim.run (fun () ->
         E.create_table db ~name:table ~cols:[ "k"; "writer" ] ~key:"k";
         E.with_txn db (fun t ->
             Alcotest.(check int) "seed is xid 1" 1 (E.xid t);
             for k = 0 to keys - 1 do
               E.insert t ~table [| vi k; vi (E.xid t) |]
             done);
         E.set_recorder db (Some (fun entry -> history := entry :: !history));
         for w = 1 to workers do
           let rng = Rng.make (Hashtbl.hash ("shrink", w)) in
           let backoff_rng = Rng.make (Hashtbl.hash ("shrink-backoff", w)) in
           Sim.spawn (fun () ->
               for _ = 1 to txns_per_worker do
                 (try E.retry_with ~rng:backoff_rng db (fun t -> shrink_txn rng t)
                  with E.Error (E.Serialization_failure _) -> ());
                 Sim.delay (Rng.float rng 3e-4)
               done)
         done;
         Sim.spawn (fun () ->
             (* Mid-run: the workload above lasts a few virtual ms. *)
             Sim.delay 2e-3;
             at_shrink := Some (Obs.snap (E.obs db));
             let (Certifier.Cert ((module C), c)) = E.certifier db in
             C.set_max_committed_sxacts c 0)));
  let base = match !at_shrink with Some s -> s | None -> Alcotest.fail "shrink never ran" in
  let after_shrink = Obs.delta_counter (E.obs db) base "ssi.summarized" in
  Alcotest.(check bool)
    (Printf.sprintf "summarized climbs after the shrink (%d)" after_shrink)
    true (after_shrink > 0);
  Alcotest.(check bool) "history nonempty" true (!history <> []);
  match Ssi_check.Dsg.check [ List.rev !history ] with
  | Ok () -> ()
  | Error cycle ->
      Alcotest.failf "non-serializable under summarization\n%s" (Ssi_check.Dsg.pp_cycle cycle)

(* ---- Bounded histograms (Bhist) ------------------------------------------- *)

(* Latency-shaped draws the benchmarks actually produce: a tight
   commit-path cluster with a multiplicative tail, and a bimodal
   fast-path/slow-path mix. *)
let bench_shaped_samples () =
  let rng = Rng.make 7 in
  let expo lambda = -.log (1. -. Rng.float rng 1.) /. lambda in
  [
    ("exponential", List.init 20_000 (fun _ -> expo 1e4));
    ( "lognormal-ish",
      List.init 20_000 (fun _ ->
          let u = Rng.float rng 1. -. 0.5 in
          1e-4 *. exp (3. *. u)) );
    ( "bimodal",
      List.init 20_000 (fun i ->
          if i mod 10 = 0 then 1e-3 +. Rng.float rng 1e-4
          else 2e-5 +. Rng.float rng 1e-5) );
  ]

let test_quantile_error_bound () =
  List.iter
    (fun (name, samples) ->
      let h = Bhist.create () in
      let st = Stats.create () in
      List.iter
        (fun v ->
          Bhist.add h v;
          Stats.add st v)
        samples;
      let alpha = Bhist.accuracy h in
      List.iter
        (fun p ->
          let exact = Stats.percentile_nearest st p in
          let approx = Bhist.percentile h p in
          let rel = Float.abs (approx -. exact) /. exact in
          if rel > alpha *. 1.05 then
            Alcotest.failf "%s p%g: exact %g, sketch %g, rel err %.4f > alpha %.3f" name
              (p *. 100.) exact approx rel alpha)
        [ 0.5; 0.9; 0.95; 0.99; 0.999 ])
    (bench_shaped_samples ())

let hist_of_seed ?(zeros = 1) seed n scale =
  let rng = Rng.make seed in
  let h = Bhist.create () in
  for _ = 1 to n do
    Bhist.add h (scale *. (0.5 +. Rng.float rng 1.))
  done;
  for _ = 1 to zeros do
    Bhist.add h 0.
  done;
  h

let check_same_hist msg a b =
  Alcotest.(check (list (pair int int)))
    (msg ^ ": buckets") (Bhist.buckets a) (Bhist.buckets b);
  Alcotest.(check int) (msg ^ ": count") (Bhist.count a) (Bhist.count b);
  Alcotest.(check int) (msg ^ ": zeros") (Bhist.zero_count a) (Bhist.zero_count b);
  Alcotest.(check (float 1e-12)) (msg ^ ": sum") (Bhist.total a) (Bhist.total b);
  Alcotest.(check (float 0.)) (msg ^ ": min") (Bhist.min_value a) (Bhist.min_value b);
  Alcotest.(check (float 0.)) (msg ^ ": max") (Bhist.max_value a) (Bhist.max_value b)

let test_merge_laws () =
  let a = hist_of_seed 1 500 1e-3 in
  let b = hist_of_seed 2 300 1e-2 in
  let c = hist_of_seed 3 700 1. in
  check_same_hist "commutative" (Bhist.merge a b) (Bhist.merge b a);
  check_same_hist "associative"
    (Bhist.merge (Bhist.merge a b) c)
    (Bhist.merge a (Bhist.merge b c));
  let before = Bhist.count a in
  ignore (Bhist.merge a b);
  Alcotest.(check int) "operands untouched" before (Bhist.count a);
  let fine = Bhist.create ~accuracy:0.001 () in
  Alcotest.check_raises "alpha mismatch rejected"
    (Invalid_argument "Bhist.merge: accuracy mismatch (0.01 vs 0.001)") (fun () ->
      ignore (Bhist.merge a fine))

let test_diff_inverts_merge () =
  let a = hist_of_seed 4 400 1e-3 in
  let b = hist_of_seed 5 250 5e-3 in
  let m = Bhist.merge a b in
  let d = Bhist.diff ~cur:m ~base:a in
  (* min/max come back at bucket resolution, but the sketch itself —
     buckets, counts, sum — inverts exactly. *)
  Alcotest.(check (list (pair int int))) "buckets" (Bhist.buckets b) (Bhist.buckets d);
  Alcotest.(check int) "count" (Bhist.count b) (Bhist.count d);
  Alcotest.(check int) "zeros" (Bhist.zero_count b) (Bhist.zero_count d);
  Alcotest.(check (float 1e-12)) "sum" (Bhist.total b) (Bhist.total d)

(* ---- Scraper --------------------------------------------------------------- *)

(* A registry on a hand-cranked clock, with one counter, gauge and
   histogram; ticks driven manually. *)
let manual_scrape ?(capacity = 4) () =
  let obs = Obs.create () in
  let now = ref 0. in
  Obs.set_clock obs (fun () -> !now);
  let s = Scrape.create ~capacity obs in
  (obs, now, s)

let test_scrape_windows_and_ring_wrap () =
  let obs, now, s = manual_scrape ~capacity:4 () in
  let c = Obs.counter obs "c" in
  let g = Obs.gauge obs "g" in
  let h = Obs.histogram obs "h" in
  for i = 1 to 10 do
    now := float_of_int i;
    Obs.incr ~by:i c;
    Obs.set_gauge g (float_of_int (i * 100));
    Obs.observe h (float_of_int i);
    Scrape.tick s
  done;
  let ws = Scrape.windows s in
  Alcotest.(check int) "ring keeps capacity windows" 4 (List.length ws);
  Alcotest.(check int) "10 windows produced" 10 (Scrape.produced s);
  Alcotest.(check int) "overwrites counted" 6 (Obs.get_counter obs "obs.scrape.dropped");
  Alcotest.(check (list int)) "oldest-first indices" [ 6; 7; 8; 9 ]
    (List.map (fun w -> w.Scrape.w_idx) ws);
  (* Window i (0-based idx) covers (i, i+1]: counter delta i+1, gauge
     reading (i+1)*100, histogram exactly the one observation. *)
  List.iter
    (fun w ->
      let i = w.Scrape.w_idx in
      Alcotest.(check (float 0.)) "bounds start" (float_of_int i) w.Scrape.w_start;
      Alcotest.(check (float 0.)) "bounds end" (float_of_int (i + 1)) w.Scrape.w_end;
      (match Scrape.find w "c" with
      | Some (Scrape.Rate { delta; total }) ->
          Alcotest.(check int) "counter delta" (i + 1) delta;
          Alcotest.(check int) "counter total" ((i + 1) * (i + 2) / 2) total
      | _ -> Alcotest.fail "counter point missing");
      (match Scrape.find w "g" with
      | Some (Scrape.Gauge v) ->
          Alcotest.(check (float 0.)) "gauge reading" (float_of_int ((i + 1) * 100)) v
      | _ -> Alcotest.fail "gauge point missing");
      match Scrape.find w "h" with
      | Some (Scrape.Hist { delta; count; sum }) ->
          Alcotest.(check int) "hist windowed count" 1 (Bhist.count delta);
          let v = float_of_int (i + 1) in
          let p50 = Bhist.percentile delta 0.5 in
          Alcotest.(check bool) "hist windowed p50 in bound" true
            (Float.abs (p50 -. v) /. v <= Bhist.accuracy delta);
          Alcotest.(check int) "hist cumulative count" (i + 1) count;
          Alcotest.(check (float 1e-9)) "hist cumulative sum"
            (float_of_int ((i + 1) * (i + 2) / 2))
            sum
      | _ -> Alcotest.fail "histogram point missing")
    ws

let test_openmetrics_roundtrip () =
  let obs, now, s = manual_scrape () in
  let c = Obs.counter obs "wal.appends" in
  let h = Obs.histogram obs "txn.latency" in
  let g = Obs.gauge obs "engine.active_txns" in
  Obs.incr ~by:7 c;
  Obs.set_gauge g 3.;
  List.iter (Obs.observe h) [ 0.; 1e-4; 2e-3; 2e-3; 0.5 ];
  now := 1.;
  Scrape.tick s;
  let text = Scrape.openmetrics obs in
  (match Scrape.validate_openmetrics text with
  | Ok families ->
      (* The three metrics above, plus the registry's own bookkeeping
         counters (trace/span drops, the scraper's overwrite count). *)
      Alcotest.(check bool) "families cover the registry" true (families >= 4)
  | Error e -> Alcotest.failf "emitted metrics do not validate: %s" e);
  Alcotest.(check bool) "counter family" true
    (contains ~needle:"wal_appends_total 7" text);
  Alcotest.(check bool) "zero bucket" true
    (contains ~needle:"txn_latency_bucket{le=\"0\"} 1" text);
  Alcotest.(check bool) "inf bucket carries count" true
    (contains ~needle:"txn_latency_bucket{le=\"+Inf\"} 5" text)

let test_validator_rejects_corruption () =
  let obs, now, s = manual_scrape () in
  ignore s;
  let h = Obs.histogram obs "lat" in
  List.iter (Obs.observe h) [ 1.; 2.; 4. ];
  now := 1.;
  let text = Scrape.openmetrics obs in
  (match Scrape.validate_openmetrics text with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "clean exposition rejected: %s" e);
  let tamper ~needle ~replacement what =
    let b = Buffer.create (String.length text) in
    let nl = String.length needle in
    let rec go i =
      if i >= String.length text then ()
      else if i + nl <= String.length text && String.sub text i nl = needle then begin
        Buffer.add_string b replacement;
        go (i + nl)
      end
      else begin
        Buffer.add_char b text.[i];
        go (i + 1)
      end
    in
    go 0;
    match Scrape.validate_openmetrics (Buffer.contents b) with
    | Ok _ -> Alcotest.failf "validator accepted %s" what
    | Error _ -> ()
  in
  tamper ~needle:"lat_count 3" ~replacement:"lat_count 4" "count/bucket mismatch";
  tamper ~needle:"# EOF" ~replacement:"" "missing EOF";
  tamper ~needle:"# TYPE lat histogram" ~replacement:"" "undeclared family"

(* ---- Watchdog -------------------------------------------------------------- *)

let stall_rule =
  Watchdog.Stall
    { name = "wal-flush-stall"; idle = "wal.flushes"; busy = "wal.appends"; min_busy = 1; windows = 3 }

(* A WAL that appends without flushing for three windows must fire the
   stall alert exactly once (edge-triggered), re-arm after a flush, and
   replay byte-identically. *)
let wal_stall_log () =
  let obs, now, s = manual_scrape ~capacity:16 () in
  let w = Watchdog.create s [ stall_rule ] in
  let appends = Obs.counter obs "wal.appends" in
  let flushes = Obs.counter obs "wal.flushes" in
  let step ?(flush = false) () =
    now := !now +. 1.;
    Obs.incr ~by:10 appends;
    if flush then Obs.incr flushes;
    Scrape.tick s
  in
  for _ = 1 to 3 do step () done;        (* streak 1-3: fires at window 2 *)
  step ();                               (* still stalled: no refire *)
  step ~flush:true ();                   (* clears and re-arms *)
  for _ = 1 to 3 do step () done;        (* fires again at window 7 *)
  (w, obs)

let test_watchdog_stall_fires_and_replays () =
  let w, obs = wal_stall_log () in
  let alerts = Watchdog.alerts w in
  Alcotest.(check int) "two firings" 2 (List.length alerts);
  Alcotest.(check (list int)) "edge-triggered windows" [ 2; 7 ]
    (List.map (fun a -> a.Watchdog.al_window) alerts);
  List.iter
    (fun a -> Alcotest.(check string) "kind" "stall" a.Watchdog.al_kind)
    alerts;
  Alcotest.(check int) "watchdog.alerts counter" 2
    (Obs.get_counter obs "watchdog.alerts");
  (* Every firing leaves a finished watchdog.alert span behind. *)
  let spans =
    List.filter (fun sp -> Obs.Span.name sp = "watchdog.alert") (Obs.Spans.all obs)
  in
  Alcotest.(check int) "alert spans" 2 (List.length spans);
  (* Determinism: an identical run renders the identical alert log. *)
  let render (w, _) = Watchdog.render w in
  Alcotest.(check string) "byte-identical replay" (render (wal_stall_log ()))
    (render (wal_stall_log ()))

let test_watchdog_rate_and_gauge_rules () =
  let obs, now, s = manual_scrape ~capacity:16 () in
  let w =
    Watchdog.create s
      [
        Watchdog.Rate_above
          { name = "abort-spike"; metric = "engine.serialization_failures"; per_sec = 5. };
        Watchdog.Gauge_above
          { name = "lag"; metric = "replica.r1.apply_lag"; threshold = 2.; windows = 2 };
      ]
  in
  let fails = Obs.counter obs "engine.serialization_failures" in
  let lag = Obs.gauge obs "replica.r1.apply_lag" in
  let step ~aborts ~lag_v =
    now := !now +. 1.;
    Obs.incr ~by:aborts fails;
    Obs.set_gauge lag lag_v;
    Scrape.tick s
  in
  step ~aborts:3 ~lag_v:1.;  (* both clear *)
  Alcotest.(check int) "quiet" 0 (List.length (Watchdog.alerts w));
  step ~aborts:9 ~lag_v:5.;  (* rate fires at once; gauge needs 2 windows *)
  Alcotest.(check (list string)) "rate fired first" [ "abort-spike" ]
    (List.map (fun a -> a.Watchdog.al_rule) (Watchdog.alerts w));
  step ~aborts:0 ~lag_v:5.;  (* gauge streak reaches 2 *)
  let rules = List.map (fun a -> a.Watchdog.al_rule) (Watchdog.alerts w) in
  Alcotest.(check (list string)) "gauge fired after streak" [ "abort-spike"; "lag" ] rules;
  Alcotest.(check (list string)) "active reflects latest window" [ "lag" ]
    (Watchdog.active w);
  step ~aborts:0 ~lag_v:0.;
  Alcotest.(check (list string)) "all clear re-arms" [] (Watchdog.active w)

(* ---- The span store ---------------------------------------------------------- *)

let occurrences ~needle hay =
  let n = String.length needle in
  let rec go i acc =
    if i + n > String.length hay then acc
    else go (i + 1) (if String.sub hay i n = needle then acc + 1 else acc)
  in
  go 0 0

(* A transaction's root span stays open while far more finished children
   than the table holds pass through it: finishing them recycles their
   slots, never the open root's. *)
let test_root_outlives_table () =
  let obs = Obs.create ~span_capacity:8 () in
  let root = Obs.Span.start obs ~attrs:[ ("xid", Obs.I 7) ] "txn" in
  Obs.Span.add root "iso" (Obs.S "serializable");
  let ctx = Obs.Span.ctx root in
  for i = 1 to 50 do
    let sp = Obs.Span.child obs ctx "op.read" in
    Obs.Span.add sp "i" (Obs.I i);
    Obs.Span.finish obs sp
  done;
  Alcotest.(check bool) "root still open" true (Obs.Span.is_open root);
  Alcotest.(check bool) "same ctx" true (Obs.Span.ctx root = ctx);
  Alcotest.(check bool) "attributes kept" true
    (Obs.Span.attrs root = [ ("xid", Obs.I 7); ("iso", Obs.S "serializable") ]);
  Alcotest.(check (list int)) "the one open span" [ ctx.Obs.span_id ]
    (List.map Obs.Span.id (Obs.Spans.open_spans obs));
  Alcotest.(check int) "children beyond the table dropped" 42 (Obs.Spans.dropped obs);
  Obs.Span.finish obs root;
  Alcotest.(check int) "root dropped nothing it held" 43 (Obs.Spans.dropped obs);
  Alcotest.(check (list string)) "newest eight retained, in creation order"
    ("txn" :: List.init 7 (fun _ -> "op.read"))
    (List.map Obs.Span.name (Obs.Spans.finished obs));
  let json = Obs.Spans.to_chrome_json obs in
  Alcotest.(check int) "root exported once" 1 (occurrences ~needle:{|"name":"txn"|} json);
  Alcotest.(check int) "complete" 0 (occurrences ~needle:"incomplete" json)

(* A handle kept past its span's drop is stale once the slot is reused:
   every accessor refuses it and finishing it touches nothing. *)
let test_stale_handle () =
  let obs = Obs.create ~span_capacity:2 () in
  let old = Obs.Span.start obs ~attrs:[ ("k", Obs.I 1) ] "old" in
  Obs.Span.finish obs old;
  for _ = 1 to 2 do
    Obs.Span.finish obs (Obs.Span.start obs "filler")
  done;
  let fresh = List.init 3 (fun i -> Obs.Span.start obs (Printf.sprintf "fresh%d" i)) in
  let refused what f =
    match f () with
    | _ -> Alcotest.failf "%s answered through a stale handle" what
    | exception Invalid_argument _ -> ()
  in
  refused "ctx" (fun () -> ignore (Obs.Span.ctx old));
  refused "name" (fun () -> ignore (Obs.Span.name old));
  refused "trace_id" (fun () -> ignore (Obs.Span.trace_id old));
  refused "id" (fun () -> ignore (Obs.Span.id old));
  refused "parent" (fun () -> ignore (Obs.Span.parent old));
  refused "start_ts" (fun () -> ignore (Obs.Span.start_ts old));
  refused "end_ts" (fun () -> ignore (Obs.Span.end_ts old));
  refused "is_open" (fun () -> ignore (Obs.Span.is_open old));
  refused "attrs" (fun () -> ignore (Obs.Span.attrs old));
  refused "add" (fun () -> Obs.Span.add old "k" (Obs.I 2));
  refused "start ~parent" (fun () -> ignore (Obs.Span.start obs ~parent:old "c"));
  refused "trace ~span" (fun () -> Obs.trace obs ~span:old "e");
  Obs.Span.finish obs old;
  Alcotest.(check (list string)) "fresh spans untouched" [ "fresh0"; "fresh1"; "fresh2" ]
    (List.map Obs.Span.name (Obs.Spans.open_spans obs));
  Alcotest.(check bool) "and open" true (List.for_all Obs.Span.is_open fresh);
  Alcotest.(check bool) "no attribute leaked" true
    (List.for_all (fun sp -> Obs.Span.attrs sp = []) fresh);
  Alcotest.(check int) "finish of a stale handle drops nothing" 1 (Obs.Spans.dropped obs);
  Alcotest.(check int) "nor retains anything" 2 (List.length (Obs.Spans.finished obs))

(* The engine's op latency is the op span's own interval, observed when
   the span closes and only then. *)
let test_finish_observe () =
  let obs = Obs.create () in
  let now = ref 0. in
  Obs.set_clock obs (fun () ->
      now := !now +. 0.25;
      !now);
  let h = Obs.histogram obs "engine.latency.read" in
  let sp = Obs.Span.child obs (Obs.Span.ctx (Obs.Span.start obs "txn")) "op.read" in
  Obs.Span.finish_observe obs sp h;
  Obs.Span.finish_observe obs sp h;
  let hist = Obs.histogram_hist h in
  Alcotest.(check int) "observed once" 1 (Bhist.count hist);
  Alcotest.(check (float 0.)) "end minus start" (Obs.Span.end_ts sp -. Obs.Span.start_ts sp)
    (Bhist.total hist);
  Alcotest.(check (float 0.)) "one clock step" 0.25 (Bhist.total hist)

(* A list-based reference for the span store: every span ever started,
   the finish order, and the same rendering as the Chrome export. *)
type ref_span = {
  r_id : int;
  r_trace : int;
  r_parent : int option;
  r_name : string;
  r_start : float;
  mutable r_end : float;
  mutable r_attrs : (string * Obs.field) list;  (* newest first *)
  handle : Obs.span;
}

type span_op =
  | Root of string * (string * int) list
  | Child of int * string
  | Remote of int * int * string
  | Add of int * string * int
  | Finish of int
  | Event of int
  | Finish_dropped of int

let span_op_gen =
  QCheck.Gen.(
    let name = oneofl [ "txn"; "op.read"; "net.msg"; "n\"q" ] in
    let key = oneofl [ "a"; "b"; "c" ] in
    frequency
      [
        (2, map2 (fun n a -> Root (n, a)) name (list_size (int_range 0 2) (pair key small_nat)));
        (4, map2 (fun k n -> Child (k, n)) small_nat name);
        (1, map3 (fun tr id n -> Remote (tr, id, n)) small_nat small_nat name);
        (3, map3 (fun k key v -> Add (k, key, v)) small_nat key small_nat);
        (5, map (fun k -> Finish k) small_nat);
        (1, map (fun k -> Event k) small_nat);
        (1, map (fun k -> Finish_dropped k) small_nat);
      ])

let print_span_op = function
  | Root (n, a) -> Printf.sprintf "Root(%S,%d attrs)" n (List.length a)
  | Child (k, n) -> Printf.sprintf "Child(%d,%S)" k n
  | Remote (tr, id, n) -> Printf.sprintf "Remote(%d,%d,%S)" tr id n
  | Add (k, key, v) -> Printf.sprintf "Add(%d,%s,%d)" k key v
  | Finish k -> Printf.sprintf "Finish(%d)" k
  | Event k -> Printf.sprintf "Event(%d)" k
  | Finish_dropped k -> Printf.sprintf "Finish_dropped(%d)" k

let ref_field = function
  | Obs.I n -> string_of_int n
  | F x -> Obs.json_float x
  | S s -> "\"" ^ Obs.json_escape s ^ "\""
  | B b -> string_of_bool b

let ref_chrome ~now spans events =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  let first = ref true in
  let item s =
    if !first then first := false else Buffer.add_char buf ',';
    Buffer.add_string buf ("\n" ^ s)
  in
  let attrs l = String.concat "" (List.map (fun (k, v) -> Printf.sprintf ",%S:%s" k (ref_field v)) l) in
  List.iter
    (fun r ->
      let open_ = Float.is_nan r.r_end in
      let dur = Float.max 0. ((if open_ then now else r.r_end) -. r.r_start) in
      item
        (Printf.sprintf
           {|{"name":"%s","cat":"span","ph":"X","ts":%s,"dur":%s,"pid":1,"tid":%d,"args":{"trace_id":%d,"span_id":%d%s%s%s}}|}
           (Obs.json_escape r.r_name) (Obs.json_float (r.r_start *. 1e6)) (Obs.json_float (dur *. 1e6))
           r.r_trace r.r_trace r.r_id
           (match r.r_parent with Some p -> Printf.sprintf {|,"parent_id":%d|} p | None -> "")
           (if open_ then {|,"incomplete":true|} else "")
           (attrs (List.rev r.r_attrs)));
      List.iter
        (fun (e : Obs.event) ->
          if List.nth_opt e.fields 0 = Some ("span", Obs.I r.r_id) then
            item
              (Printf.sprintf {|{"name":"%s","ph":"i","s":"t","ts":%s,"pid":1,"tid":%d,"args":{"seq":%d%s}}|}
                 (Obs.json_escape e.name) (Obs.json_float (e.ts *. 1e6)) r.r_trace e.seq (attrs e.fields)))
        events)
    spans;
  Buffer.add_string buf "\n]}\n";
  Buffer.contents buf

let prop_span_store =
  QCheck.Test.make ~name:"span store = list reference" ~count:500
    QCheck.(pair (int_range 1 5) (make ~print:Print.(list print_span_op) Gen.(list_size (int_range 0 80) span_op_gen)))
    (fun (cap, ops) ->
      let obs = Obs.create ~span_capacity:cap () in
      let now = ref 0. in
      Obs.set_clock obs (fun () -> !now);
      let spans = ref [] and finished = ref [] and next_trace = ref 0 and next_id = ref 0 in
      let live () =
        let kept = List.filteri (fun i _ -> i < cap) !finished in
        List.filter (fun r -> Float.is_nan r.r_end || List.memq r kept) (List.rev !spans)
      in
      let dropped () = List.filter (fun r -> not (List.memq r (live ()))) (List.rev !spans) in
      let nth l k = match l with [] -> None | l -> Some (List.nth l (k mod List.length l)) in
      let start ~trace ~parent name attrs h =
        let r =
          { r_id = !next_id; r_trace = trace; r_parent = parent; r_name = name; r_start = !now;
            r_end = nan; r_attrs = List.rev attrs; handle = h }
        in
        incr next_id;
        spans := r :: !spans
      in
      List.iter
        (fun op ->
          now := !now +. 0.25;
          match op with
          | Root (name, attrs) ->
              let attrs = List.map (fun (k, v) -> (k, Obs.I v)) attrs in
              let h = Obs.Span.start obs ~attrs name in
              start ~trace:!next_trace ~parent:None name attrs h;
              incr next_trace
          | Child (k, name) -> (
              match nth (live ()) k with
              | Some p -> start ~trace:p.r_trace ~parent:(Some p.r_id) name [] (Obs.Span.start obs ~parent:p.handle name)
              | None -> ())
          | Remote (trace_id, span_id, name) ->
              let h = Obs.Span.child obs { Obs.trace_id; span_id } name in
              start ~trace:trace_id ~parent:(Some span_id) name [] h
          | Add (k, key, v) -> (
              match nth (live ()) k with
              | Some r ->
                  Obs.Span.add r.handle key (Obs.I v);
                  r.r_attrs <- (key, Obs.I v) :: List.remove_assoc key r.r_attrs
              | None -> ())
          | Finish k -> (
              match nth (live ()) k with
              | Some r ->
                  Obs.Span.finish obs r.handle;
                  if Float.is_nan r.r_end then begin
                    r.r_end <- !now;
                    finished := r :: !finished
                  end
              | None -> ())
          | Event k -> (
              match nth (live ()) k with
              | Some r -> Obs.trace obs ~span:r.handle ~fields:[ ("k", Obs.I k) ] "ev"
              | None -> ())
          | Finish_dropped k -> (
              match nth (dropped ()) k with Some r -> Obs.Span.finish obs r.handle | None -> ()))
        ops;
      let describe sp =
        ( (Obs.Span.id sp, Obs.Span.trace_id sp, Obs.Span.parent sp, Obs.Span.name sp),
          (Obs.Span.start_ts sp, Obs.Span.end_ts sp, Obs.Span.is_open sp, Obs.Span.attrs sp) )
      in
      let expect r =
        ( (r.r_id, r.r_trace, r.r_parent, r.r_name),
          (r.r_start, r.r_end, Float.is_nan r.r_end, List.rev r.r_attrs) )
      in
      let retained = List.filter (fun r -> not (Float.is_nan r.r_end)) (live ()) in
      let opened = List.filter (fun r -> Float.is_nan r.r_end) (live ()) in
      compare (List.map describe (Obs.Spans.finished obs)) (List.map expect retained) = 0
      && compare (List.map describe (Obs.Spans.open_spans obs)) (List.map expect opened) = 0
      && Obs.Spans.dropped obs = Stdlib.max 0 (List.length !finished - cap)
      && Obs.Spans.to_chrome_json obs = ref_chrome ~now:!now (live ()) (Obs.events obs))

(* ---- The dense histogram against the Hashtbl layout --------------------------- *)

(* The sketch as it was laid out before its buckets became a dense
   array: a Hashtbl from bucket index to count. *)
module Ref_hist = struct
  type t = {
    log_gamma : float;
    gamma : float;
    buckets : (int, int) Hashtbl.t;
    mutable zero : int;
    mutable n : int;
    mutable sum : float;
    mutable lo : float;
    mutable hi : float;
  }

  let create () =
    let gamma = 1.01 /. 0.99 in
    { log_gamma = log gamma; gamma; buckets = Hashtbl.create 16; zero = 0; n = 0; sum = 0.; lo = nan; hi = nan }

  let bump t i by = Hashtbl.replace t.buckets i (by + Option.value ~default:0 (Hashtbl.find_opt t.buckets i))

  let add t v =
    t.n <- t.n + 1;
    t.sum <- t.sum +. v;
    if t.n = 1 then (t.lo <- v; t.hi <- v)
    else (if v < t.lo then t.lo <- v; if v > t.hi then t.hi <- v);
    if v <= 0. then t.zero <- t.zero + 1 else bump t (int_of_float (Float.ceil (log v /. t.log_gamma))) 1

  let estimate t i = 2. *. exp (float_of_int i *. t.log_gamma) /. (t.gamma +. 1.)

  let buckets t =
    List.sort compare (List.filter (fun (_, c) -> c > 0) (List.of_seq (Hashtbl.to_seq t.buckets)))

  let percentile t p =
    if t.n = 0 then nan
    else
      let rank = Stdlib.min t.n (Stdlib.max 1 (int_of_float (Float.ceil (p *. float_of_int t.n)))) in
      if rank <= t.zero then Float.min t.lo 0.
      else
        let rec go cum = function
          | (i, c) :: rest -> if cum + c >= rank then estimate t i else go (cum + c) rest
          | [] -> t.hi
        in
        Stdlib.min t.hi (Stdlib.max t.lo (go t.zero (buckets t)))

  let copy t = { t with buckets = Hashtbl.copy t.buckets }

  let merge a b =
    let r = copy a in
    Hashtbl.iter (fun i c -> bump r i c) b.buckets;
    r.zero <- a.zero + b.zero;
    r.n <- a.n + b.n;
    r.sum <- a.sum +. b.sum;
    if b.n > 0 then
      if a.n = 0 then (r.lo <- b.lo; r.hi <- b.hi)
      else (r.lo <- Stdlib.min a.lo b.lo; r.hi <- Stdlib.max a.hi b.hi);
    r

  let diff ~cur ~base =
    let r = create () in
    Hashtbl.iter
      (fun i c ->
        let b = Option.value ~default:0 (Hashtbl.find_opt base.buckets i) in
        if c - b > 0 then Hashtbl.replace r.buckets i (c - b))
      cur.buckets;
    r.zero <- cur.zero - base.zero;
    r.n <- cur.n - base.n;
    r.sum <- cur.sum -. base.sum;
    if r.n > 0 then begin
      let occupied = buckets r in
      let lo =
        if r.zero > 0 then Stdlib.min cur.lo 0.
        else match occupied with (i, _) :: _ -> estimate r i | [] -> cur.lo
      in
      let hi =
        match List.rev occupied with
        | (i, _) :: _ -> Stdlib.min cur.hi (exp (float_of_int i *. r.log_gamma))
        | [] -> Stdlib.min cur.hi 0.
      in
      r.lo <- lo;
      r.hi <- Stdlib.max lo hi
    end;
    r
end

let hist_values =
  QCheck.(
    list_of_size
      Gen.(int_range 0 300)
      (make ~print:string_of_float
         Gen.(
           frequency
             [
               (1, return 0.);
               (1, map (fun x -> -.x) (float_range 0. 10.));
               (8, map (fun e -> 10. ** e) (float_range (-9.) 3.));
             ])))

let same_view h r =
  let ps = [ 0.; 0.5; 0.95; 0.99; 1. ] in
  compare
    ( (Bhist.count h, Bhist.total h, Bhist.min_value h, Bhist.max_value h),
      (Bhist.buckets h, List.map (Bhist.percentile h) ps) )
    ( (r.Ref_hist.n, r.sum, r.lo, r.hi),
      (Ref_hist.buckets r, List.map (Ref_hist.percentile r) ps) )
  = 0

let prop_dense_hist =
  QCheck.Test.make ~name:"dense Bhist = Hashtbl reference" ~count:500
    QCheck.(pair hist_values hist_values)
    (fun (xs, ys) ->
      let obs = Obs.create () in
      let h = Obs.histogram obs "x.latency" and a = Bhist.create () and b = Bhist.create () in
      let ra = Ref_hist.create () and rb = Ref_hist.create () and rh = Ref_hist.create () in
      List.iter (fun x -> Bhist.add a x; Ref_hist.add ra x; Obs.observe h x; Ref_hist.add rh x) xs;
      let base = Bhist.copy a and rbase = Ref_hist.copy ra in
      let snap = Obs.snap obs in
      List.iter (fun y -> Bhist.add b y; Ref_hist.add rb y; Obs.observe h y; Ref_hist.add rh y) ys;
      List.iter (Bhist.add a) ys;
      List.iter (Ref_hist.add ra) ys;
      same_view a ra && same_view base rbase
      && same_view (Bhist.merge base b) (Ref_hist.merge rbase rb)
      && same_view (Bhist.diff ~cur:a ~base) (Ref_hist.diff ~cur:ra ~base:rbase)
      && same_view (Obs.delta_hist obs snap "x.latency") (Ref_hist.diff ~cur:rh ~base:rbase)
      && same_view (Obs.histogram_hist h) rh)

let () =
  Alcotest.run "obs"
    [
      ( "registry",
        [
          Alcotest.test_case "counters" `Quick test_counters;
          Alcotest.test_case "gauges" `Quick test_gauges;
          Alcotest.test_case "histograms" `Quick test_histograms;
          Alcotest.test_case "kind mismatch" `Quick test_kind_mismatch;
          Alcotest.test_case "dump and render" `Quick test_dump_sorted;
        ] );
      ( "windows",
        [
          Alcotest.test_case "snap deltas" `Quick test_snap_deltas;
          Alcotest.test_case "deltas across ring wrap" `Quick
            test_delta_hist_across_ring_wrap;
        ] );
      ( "trace",
        [
          Alcotest.test_case "ring bounds" `Quick test_trace_ring_bounds;
          Alcotest.test_case "clock stamping" `Quick test_trace_clock;
          Alcotest.test_case "one log across spans" `Quick test_one_log_across_spans;
          Alcotest.test_case "jsonl" `Quick test_trace_jsonl;
        ] );
      ( "percentiles",
        [ Alcotest.test_case "nearest rank" `Quick test_percentile_nearest ] );
      ( "drops",
        [
          Alcotest.test_case "drop counters" `Quick test_drop_counters;
          Alcotest.test_case "never-set gauge skipped" `Quick
            test_never_set_gauge_skipped;
        ] );
      ( "summarization (§6.2)",
        [ Alcotest.test_case "mid-run budget shrink" `Quick test_shrink_mid_run ] );
      ( "bounded histograms",
        [
          Alcotest.test_case "quantile error bound" `Quick test_quantile_error_bound;
          Alcotest.test_case "merge laws" `Quick test_merge_laws;
          Alcotest.test_case "diff inverts merge" `Quick test_diff_inverts_merge;
        ] );
      ( "span store",
        [
          Alcotest.test_case "open root outlives the table" `Quick test_root_outlives_table;
          Alcotest.test_case "stale handle" `Quick test_stale_handle;
          Alcotest.test_case "finish_observe" `Quick test_finish_observe;
          QCheck_alcotest.to_alcotest prop_span_store;
        ] );
      ( "dense histogram",
        [ QCheck_alcotest.to_alcotest prop_dense_hist ] );
      ( "scrape",
        [
          Alcotest.test_case "windows and ring wrap" `Quick
            test_scrape_windows_and_ring_wrap;
          Alcotest.test_case "openmetrics round trip" `Quick test_openmetrics_roundtrip;
          Alcotest.test_case "validator rejects corruption" `Quick
            test_validator_rejects_corruption;
        ] );
      ( "watchdog",
        [
          Alcotest.test_case "wal stall fires and replays" `Quick
            test_watchdog_stall_fires_and_replays;
          Alcotest.test_case "rate and gauge rules" `Quick
            test_watchdog_rate_and_gauge_rules;
        ] );
    ]
