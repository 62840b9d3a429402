(* Acceptance for causal span tracing and the abort explainer: a seeded
   run with WAL streaming to replicas over an adversarial network and a
   write-skew-prone workload.

   Checked invariants:
   - every SSI-doomed victim has a retained [ssi.dangerous] record that
     reconstructs the complete structure — both rw-edges with transaction
     ids and the rule that fired;
   - at least one [replica.apply] span is parented, across the simulated
     network, under the origin [txn.commit] span of the same trace;
   - every retained span's parent resolves (nothing silently truncated:
     the drop counters are zero at the chosen capacities);
   - the Chrome trace export and the explain report replay byte-identically
     from the seed. *)

open Ssi_storage
module E = Ssi_engine.Engine
module R = Ssi_replication.Replica
module Stream = Ssi_replication.Stream
module Net = Ssi_net.Net
module Obs = Ssi_obs.Obs
module Sim = Ssi_sim.Sim
module F = Ssi_fault.Fault
module Rng = Ssi_util.Rng
module Certifier = Ssi_core.Certifier
module Explain = Ssi_harness.Explain

let vi i = Value.Int i
let table = "acct"
let pairs = 8
let workers = 4
let txns_per_worker = 120

type scenario = {
  doomed : (int * string) list;
  structures : Explain.structure list;
  rw_edges : int;
  explain_report : string;
  chrome : string;
  trace_dropped : int;
  spans_dropped : int;
  unresolved_parents : int;
  apply_spans : int;
  apply_linked : int;  (** replica.apply parented under txn.commit, same trace *)
  committed : int;
  failures : int;
}

(* Classic write skew over disjoint pairs: read both halves of a pair,
   then (usually) write one of them based on what was read.  Under SSI
   this generates rw-antidependencies and dangerous structures; a sprinkle
   of read-only scans diversifies the conflict graph. *)
let txn_body rng t =
  if Rng.chance rng 0.1 then ignore (E.seq_scan t ~table ())
  else begin
    let pair = Rng.int rng pairs in
    let a = 2 * pair and b = (2 * pair) + 1 in
    let value k =
      match E.read t ~table ~key:(vi k) with Some row -> Value.as_int row.(1) | None -> 0
    in
    let va = value a and vb = value b in
    if va + vb > 0 then begin
      let target = if Rng.chance rng 0.5 then a else b in
      ignore
        (E.update t ~table ~key:(vi target) ~f:(fun row ->
             [| row.(0); vi ((va + vb) mod 97) |]))
    end
  end

let run_scenario seed =
  (* Capacities far above the run's volume and summarization disabled, so
     completeness of the reconstruction is actually testable. *)
  let obs = Obs.create ~trace_capacity:65536 ~span_capacity:65536 () in
  let certifier = { Certifier.default_config with max_committed_sxacts = 1_000_000 } in
  let costs =
    { E.zero_costs with E.cpu_per_op = 60e-6; cpu_per_tuple = 3e-6; io_commit = 30e-6 }
  in
  let config = { E.default_config with E.certifier; costs } in
  let db = E.create ~scheduler:Sim.scheduler ~config ~obs () in
  let net = Net.create ~obs ~seed () in
  let committed = ref 0 in
  let failures = ref 0 in
  let plan =
    {
      F.seed;
      events =
        [
          {
            F.at = 0.01;
            kind = F.Net_chaos { drop = 0.05; dup = 0.05; reorder = 0.1; duration = 0.15 };
          };
        ];
    }
  in
  ignore
    (Sim.run (fun () ->
         E.create_table db ~name:table ~cols:[ "k"; "v" ] ~key:"k";
         E.with_txn db (fun t ->
             for k = 0 to (2 * pairs) - 1 do
               E.insert t ~table [| vi k; vi 50 |]
             done);
         let p = Stream.make_primary net ~node:"p" ~epoch:1 db in
         let c1 = R.create ~obs ~name:"r1" () in
         let c2 = R.create ~obs ~name:"r2" () in
         let _s1 = Stream.subscribe net ~node:"r1" ~primary_node:"p" ~epoch:1 c1 in
         let _s2 = Stream.subscribe net ~node:"r2" ~primary_node:"p" ~epoch:1 c2 in
         Sim.spawn (fun () ->
             F.execute
               { F.engine = db; injector = None; replica = None; fleet = []; net = Some net; net_ops = None }
               plan
               ~log:(fun _ -> ()));
         for w = 1 to workers do
           let rng = Rng.make (Hashtbl.hash (seed, w)) in
           Sim.spawn (fun () ->
               for _ = 1 to txns_per_worker do
                 (try
                    E.with_txn ~isolation:E.Serializable db (fun t -> txn_body rng t);
                    incr committed
                  with E.Error (E.Serialization_failure _) -> incr failures);
                 Sim.delay (Rng.float rng 0.002)
               done)
         done;
         (* Quiesce, then drive replica catch-up so apply spans exist for
            records lost to the chaos window. *)
         Sim.at ~after:1.0 (fun () ->
             Net.set_chaos net ~drop:0. ~duplicate:0. ~reorder:0. ();
             Stream.retransmit_unacked p)));
  let spans = Obs.Spans.all obs in
  let by_id = Hashtbl.create 1024 in
  List.iter (fun s -> Hashtbl.replace by_id (Obs.Span.id s) s) spans;
  let unresolved_parents =
    List.length
      (List.filter
         (fun s ->
           match Obs.Span.parent s with
           | Some pid -> not (Hashtbl.mem by_id pid)
           | None -> false)
         spans)
  in
  let applies = List.filter (fun s -> Obs.Span.name s = "replica.apply") spans in
  let apply_linked =
    List.length
      (List.filter
         (fun s ->
           match Obs.Span.parent s with
           | Some pid -> (
               match Hashtbl.find_opt by_id pid with
               | Some ps ->
                   Obs.Span.name ps = "txn.commit"
                   && Obs.Span.trace_id ps = Obs.Span.trace_id s
               | None -> false)
           | None -> false)
         applies)
  in
  {
    doomed = Explain.doomed obs;
    structures = Explain.structures obs;
    rw_edges = List.length (Explain.edges obs);
    explain_report = Explain.render obs;
    chrome = Obs.Spans.to_chrome_json obs;
    trace_dropped = Obs.get_counter obs "obs.trace.dropped";
    spans_dropped = Obs.Spans.dropped obs;
    unresolved_parents;
    apply_spans = List.length applies;
    apply_linked;
    committed = !committed;
    failures = !failures;
  }

let test_explainer_complete () =
  let r = run_scenario 4242 in
  Alcotest.(check bool) "workload committed transactions" true (r.committed > 0);
  Alcotest.(check bool) "SSI produced victims" true (r.doomed <> []);
  Alcotest.(check bool) "rw-edges were recorded" true (r.rw_edges > 0);
  Alcotest.(check int) "no trace events dropped" 0 r.trace_dropped;
  Alcotest.(check int) "no spans dropped" 0 r.spans_dropped;
  (* Every doomed victim must be explainable by a complete structure:
     both rw-edges with known transaction ids, and the firing rule. *)
  List.iter
    (fun (xid, reason) ->
      match List.filter (fun s -> s.Explain.victim = xid) r.structures with
      | [] -> Alcotest.failf "victim x%d (%s): no dangerous structure retained" xid reason
      | ss ->
          if not (List.exists Explain.complete ss) then
            Alcotest.failf "victim x%d (%s): structure incomplete: %s" xid reason
              (Explain.render_structure (List.hd ss)))
    r.doomed;
  Alcotest.(check bool) "victims appear in the report" true
    (r.doomed = [] || String.length r.explain_report > 0)

let test_cross_node_spans () =
  let r = run_scenario 4242 in
  Alcotest.(check bool) "replicas recorded apply spans" true (r.apply_spans > 0);
  Alcotest.(check bool) "an apply span is parented under its origin commit span" true
    (r.apply_linked > 0);
  Alcotest.(check int) "every span's parent resolves" 0 r.unresolved_parents;
  (* The exported trace carries the cross-node tree too. *)
  let contains ~needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "export contains replica.apply spans" true
    (contains ~needle:"replica.apply" r.chrome);
  Alcotest.(check bool) "export is a chrome trace object" true
    (contains ~needle:"\"traceEvents\"" r.chrome)

let test_deterministic_replay () =
  let a = run_scenario 99 in
  let b = run_scenario 99 in
  Alcotest.(check string) "explain report replays byte-identically" a.explain_report
    b.explain_report;
  Alcotest.(check bool) "chrome export replays byte-identically" true (a.chrome = b.chrome);
  Alcotest.(check int) "commit count replays" a.committed b.committed;
  Alcotest.(check int) "failure count replays" a.failures b.failures

let () =
  Alcotest.run "spans"
    [
      ( "causal-tracing",
        [
          Alcotest.test_case "explainer completeness" `Quick test_explainer_complete;
          Alcotest.test_case "cross-node span tree" `Quick test_cross_node_spans;
          Alcotest.test_case "deterministic replay" `Quick test_deterministic_replay;
        ] );
    ]
