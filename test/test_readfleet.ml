(* Read-fleet router tests: the satellite regressions (no-safe-snapshot
   reads, snapshot invalidation across promote/reset, bounded deferrable
   waits under a never-healing partition), the router's routing /
   degradation / session behavior, and the oracle-checked chaos harness
   (including deterministic replay). *)

open Ssi_storage
module E = Ssi_engine.Engine
module R = Ssi_replication.Replica
module Router = Ssi_replication.Router
module Stream = Ssi_replication.Stream
module Net = Ssi_net.Net
module Obs = Ssi_obs.Obs
module Sim = Ssi_sim.Sim
module Readfleet = Ssi_harness.Readfleet
module Scenario = Ssi_harness.Scenario

let vi i = Value.Int i
let table = "kv"

let setup_db () =
  let db = E.create () in
  E.create_table db ~name:table ~cols:[ "k"; "v" ] ~key:"k";
  db

let write db k v =
  E.with_txn db (fun t ->
      if not (E.update t ~table ~key:(vi k) ~f:(fun row -> [| row.(0); vi v |])) then
        E.insert t ~table [| vi k; vi v |])

let is_transient = function E.Error (E.Transient_fault _) -> true | _ -> false

(* ---- Satellite regressions ------------------------------------------------ *)

let test_latest_safe_empty () =
  (* [`Latest_safe] before any safe point must raise a retryable fault,
     not silently serve the empty horizon-0 snapshot. *)
  let core = R.create ~name:"fresh" () in
  Alcotest.check_raises "no safe snapshot yet"
    (E.Error
       (E.Transient_fault { op = "begin_read"; reason = "replica fresh has no safe snapshot yet" }))
    (fun () -> ignore (R.begin_read core `Latest_safe))

let test_rtxn_invalidated_by_reset () =
  let db = setup_db () in
  let core = R.attach ~name:"r1" db in
  write db 0 7;
  let rtxn = R.begin_read core `Latest_applied in
  Alcotest.(check bool) "read before reset" true (E.read rtxn ~table ~key:(vi 0) <> None);
  R.reset core;
  match E.read rtxn ~table ~key:(vi 0) with
  | exception e when is_transient e -> ()
  | _ -> Alcotest.fail "read through a reset snapshot must raise Transient_fault"

let test_rtxn_invalidated_by_promote () =
  (* A reader holding an open rtxn across a failover must get a typed
     retryable error, not rows from a diverged history. *)
  let db = setup_db () in
  let core = R.attach ~name:"r1" db in
  write db 0 7;
  write db 1 8;
  let rtxn = R.begin_read core `Latest_applied in
  let promo = R.promote core `Latest_applied in
  Alcotest.(check bool) "promotion kept the data" true
    (E.with_txn promo.R.engine (fun t -> E.read t ~table ~key:(vi 0)) <> None);
  (match E.read rtxn ~table ~key:(vi 0) with
  | exception e when is_transient e -> ()
  | _ -> Alcotest.fail "read through a promoted-away snapshot must raise");
  match E.seq_scan rtxn ~table () with
  | exception e when is_transient e -> ()
  | _ -> Alcotest.fail "scan through a promoted-away snapshot must raise"

let test_wait_snapshot_partition_deadline () =
  (* A deferrable-style wait on a replica cut off from its primary by a
     partition that never heals: the deadline turns a would-be hang into
     a typed retryable error. *)
  let db = E.create ~scheduler:Sim.scheduler () in
  let result = ref `Hung in
  ignore
    (Sim.run (fun () ->
         E.create_table db ~name:table ~cols:[ "k"; "v" ] ~key:"k";
         let net = Net.create ~obs:(E.obs db) ~seed:3 () in
         ignore (Stream.make_primary net ~node:"p" ~epoch:1 db);
         let core = R.create ~obs:(E.obs db) ~name:"r1" () in
         ignore (Stream.subscribe net ~node:"r1" ~primary_node:"p" ~epoch:1 core);
         Sim.delay 0.001;
         Net.isolate net "p";
         Sim.spawn (fun () ->
             (* Commits stream into the void; the replica never sees them. *)
             for k = 0 to 4 do
               write db k k
             done);
         Sim.spawn (fun () ->
             match R.wait_snapshot ~deadline:0.02 core ~after:100 with
             | _ -> result := `Returned
             | exception e when is_transient e -> result := `Faulted)));
  Alcotest.(check bool) "wait faulted instead of hanging" true (!result = `Faulted)

(* ---- Router behavior ------------------------------------------------------ *)

let counter db name = Obs.get_counter (E.obs db) name

let test_routes_to_replica () =
  let db = setup_db () in
  let core = R.attach ~name:"r1" db in
  write db 0 7;
  let router = Router.create ~primary:db () in
  Router.add_replica router core;
  let backend =
    Router.read_only router (fun ro ->
        Alcotest.(check (option int))
          "replica serves the row" (Some 7)
          (Option.map (fun r -> Value.as_int r.(1)) (E.read (Router.txn ro) ~table ~key:(vi 0)));
        Router.backend ro)
  in
  Alcotest.(check string) "served by the replica" "r1" backend;
  Alcotest.(check int) "counted" 1 (counter db "fleet.route.replica")

let test_degrades_to_primary () =
  (* A fleet whose only member has no safe snapshot: the read falls back
     to the primary (marked degraded) instead of failing, and the broken
     replica is marked down — later reads skip straight to the primary. *)
  let db = setup_db () in
  write db 0 7;
  let router = Router.create ~primary:db () in
  Router.add_replica router (R.create ~name:"dead" ());
  let backend = Router.read_only router Router.backend in
  Alcotest.(check string) "fell back to primary" "primary" backend;
  Alcotest.(check int) "fallback counted" 1 (counter db "fleet.fallbacks");
  Alcotest.(check int) "degraded counted" 1 (counter db "fleet.degraded");
  Alcotest.(check int) "markdown counted" 1 (counter db "fleet.markdowns");
  Alcotest.(check int) "gauge shows no healthy replica" 0 (Router.healthy_replicas router);
  ignore (Router.read_only router Router.backend);
  Alcotest.(check int) "marked-down replica not retried" 1 (counter db "fleet.fallbacks");
  Alcotest.(check int) "second read went primary" 2 (counter db "fleet.route.primary")

let test_probation_and_readmit () =
  (* Sim time lets the mark-down expire: the next read probes the
     replica, and a success re-admits it. *)
  let db = E.create ~scheduler:Sim.scheduler () in
  ignore
    (Sim.run (fun () ->
         E.create_table db ~name:table ~cols:[ "k"; "v" ] ~key:"k";
         let core = R.attach ~name:"r1" db in
         let policy =
           { Router.default_policy with Router.markdown_base = 0.001; markdown_jitter = 0. }
         in
         let router = Router.create ~policy ~primary:db () in
         Router.add_replica router core;
         (* No commits yet: no safe snapshot, so the replica fails and is
            marked down. *)
         let b1 = Router.read_only router Router.backend in
         Alcotest.(check string) "first read degraded" "primary" b1;
         write db 0 7;
         Sim.delay 0.01;
         let b2 = Router.read_only router Router.backend in
         Alcotest.(check string) "probe succeeded" "r1" b2;
         Alcotest.(check int) "probe counted" 1 (counter db "fleet.probes");
         Alcotest.(check int) "readmit counted" 1 (counter db "fleet.readmits");
         Alcotest.(check int) "healthy again" 1 (Router.healthy_replicas router)))

let test_bounded_staleness_skips () =
  let db = setup_db () in
  let core = R.attach ~name:"r1" db in
  let router = Router.create ~primary:db () in
  Router.add_replica router core;
  write db 0 1;
  R.set_apply_lag core 10;
  write db 1 2;
  write db 2 3;
  let backend = Router.read_only ~consistency:(`Bounded 0) router Router.backend in
  Alcotest.(check string) "too-stale replica skipped" "primary" backend;
  Alcotest.(check bool) "too_stale counted" true (counter db "fleet.too_stale" >= 1);
  Alcotest.(check int) "not marked down" 0 (counter db "fleet.markdowns");
  Alcotest.(check int) "still healthy" 1 (Router.healthy_replicas router)

let test_read_your_writes () =
  (* A lagged replica cannot serve the session's own write: the router
     waits out the deadline, falls back, and the served snapshot horizon
     covers the session token. *)
  let db = E.create ~scheduler:Sim.scheduler () in
  ignore
    (Sim.run (fun () ->
         E.create_table db ~name:table ~cols:[ "k"; "v" ] ~key:"k";
         let core = R.attach ~name:"r1" db in
         write db 0 1;
         R.set_apply_lag core 10;
         let policy =
           { Router.default_policy with Router.session_deadline = Some 0.005 }
         in
         let router = Router.create ~policy ~primary:db () in
         Router.add_replica router core;
         let session = Router.session router in
         Router.write ~session router (fun t ->
             ignore (E.update t ~table ~key:(vi 0) ~f:(fun row -> [| row.(0); vi 42 |])));
         let token = Router.session_token session in
         Alcotest.(check bool) "token advanced" true (token > 0);
         Router.read_only ~session router (fun ro ->
             Alcotest.(check bool)
               "horizon covers the session token" true
               (Router.ro_cseq ro >= token);
             Alcotest.(check (option int))
               "read its own write" (Some 42)
               (Option.map (fun r -> Value.as_int r.(1)) (E.read (Router.txn ro) ~table ~key:(vi 0))));
         Alcotest.(check bool) "waited for the frontier" true
           (counter db "fleet.session_waits" >= 1)))

let test_session_deadline_miss_counted () =
  (* Deterministic repro for the lazy session-deadline path: a replica
     whose apply lag never drains cannot cover the session token before
     the deadline.  The miss must be observed — counted in
     [fleet.session_deadline_misses] and its wait time recorded — and the
     router must still fall back and serve the read. *)
  let db = E.create ~scheduler:Sim.scheduler () in
  ignore
    (Sim.run (fun () ->
         E.create_table db ~name:table ~cols:[ "k"; "v" ] ~key:"k";
         let core = R.attach ~name:"r1" db in
         write db 0 1;
         R.set_apply_lag core 10;
         let policy =
           { Router.default_policy with Router.session_deadline = Some 0.005 }
         in
         let router = Router.create ~policy ~primary:db () in
         Router.add_replica router core;
         let session = Router.session router in
         Router.write ~session router (fun t ->
             ignore (E.update t ~table ~key:(vi 0) ~f:(fun row -> [| row.(0); vi 42 |])));
         Router.read_only ~session router (fun ro ->
             Alcotest.(check (option int))
               "fell back and read the session's write" (Some 42)
               (Option.map (fun r -> Value.as_int r.(1)) (E.read (Router.txn ro) ~table ~key:(vi 0))));
         Alcotest.(check bool) "deadline miss counted" true
           (counter db "fleet.session_deadline_misses" >= 1);
         Alcotest.(check bool) "wait attempted first" true
           (counter db "fleet.session_waits" >= 1)))

let test_spans_and_explain () =
  (* Routing decisions are span-traced: a [fleet.route] root with a
     [replica.read] child carrying the replica's name and staleness,
     visible in the Chrome export and summarized by `pg_ssi explain`. *)
  let db = setup_db () in
  let core = R.attach ~name:"r1" db in
  let router = Router.create ~primary:db () in
  Router.add_replica router core;
  write db 0 7;
  ignore (Router.read_only router (fun ro -> E.read (Router.txn ro) ~table ~key:(vi 0)));
  let obs = E.obs db in
  let spans = Obs.Spans.all obs in
  let named n = List.filter (fun s -> Obs.Span.name s = n) spans in
  let route =
    match named "fleet.route" with
    | [ s ] -> s
    | l -> Alcotest.failf "expected one fleet.route span, got %d" (List.length l)
  in
  let rread =
    match named "replica.read" with
    | [ s ] -> s
    | l -> Alcotest.failf "expected one replica.read span, got %d" (List.length l)
  in
  Alcotest.(check bool) "replica.read parented under fleet.route" true
    (Obs.Span.parent rread = Some (Obs.Span.id route));
  Alcotest.(check int) "same trace" (Obs.Span.trace_id route) (Obs.Span.trace_id rread);
  let attrs = Obs.Span.attrs rread in
  Alcotest.(check bool) "replica name attr" true
    (List.assoc_opt "replica" attrs = Some (Obs.S "r1"));
  Alcotest.(check bool) "staleness attr present" true
    (match List.assoc_opt "staleness" attrs with Some (Obs.I _) -> true | _ -> false);
  let contains ~needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  let chrome = Obs.Spans.to_chrome_json obs in
  Alcotest.(check bool) "export has fleet.route" true (contains ~needle:"fleet.route" chrome);
  Alcotest.(check bool) "export has replica.read" true
    (contains ~needle:"replica.read" chrome);
  let report = Ssi_harness.Explain.render obs in
  Alcotest.(check bool) "explain has a read-fleet section" true
    (contains ~needle:"read fleet:" report)

(* ---- History-checked chaos harness ---------------------------------------- *)

let check_clean (o : Readfleet.outcome) name =
  (match o.violation with
  | None -> ()
  | Some v -> Alcotest.failf "%s: %s" name v);
  Alcotest.(check int) (name ^ ": read giveups") 0 o.read_giveups;
  Alcotest.(check int) (name ^ ": write giveups") 0 o.write_giveups;
  Alcotest.(check int) (name ^ ": session violations") 0 o.session_violations

let test_harness_acceptance () =
  let o = Readfleet.run Readfleet.default_cfg in
  check_clean o "default cfg";
  Alcotest.(check bool) "old era committed" true (o.commits_old > 0);
  Alcotest.(check bool) "replicas served reads" true (o.replica_routed > 0);
  Alcotest.(check bool) "failover ran" true (o.promote_cseq <> None);
  Alcotest.(check bool) "new era committed" true (o.commits_new > 0);
  Alcotest.(check bool) "chaos plan ran" true (o.chaos_log <> [])

let test_harness_determinism () =
  let cfg = { Readfleet.default_cfg with Readfleet.seed = 5 } in
  let v = Scenario.replay (module Readfleet) cfg in
  Alcotest.(check bool) "chaos log ran" true (v.outcome.Readfleet.chaos_log <> []);
  Alcotest.(check bool) "byte-identical replay" true v.identical;
  Alcotest.(check int) "exit code" 0 v.exit_code

let test_harness_seed_matrix () =
  (* A small in-test sweep; CI runs the wide one via `pg_ssi chaos`. *)
  List.iter
    (fun seed ->
      let cfg =
        { Readfleet.default_cfg with Readfleet.seed; txns_per_worker = 30 }
      in
      check_clean (Readfleet.run cfg) (Printf.sprintf "seed %d" seed))
    [ 2; 3; 7 ]

(* The harness runs the SLO watchdog over an always-on scrape; under the
   default fault plan (lag spikes + mark-downs) distinct alert kinds must
   fire, deterministically: the rendered alert log is part of the
   fingerprint, so replay equality covers it byte for byte. *)
let test_harness_watchdog_alerts () =
  let has_prefix ~prefix s =
    String.length s >= String.length prefix
    && String.sub s 0 (String.length prefix) = prefix
  in
  let kind_of line =
    (* "[<ts>] <kind> <rule>: ..." *)
    match String.split_on_char ' ' line with _ :: k :: _ -> k | _ -> line
  in
  let alerts_for seed =
    let o = Readfleet.run { Readfleet.default_cfg with Readfleet.seed } in
    o.Readfleet.alerts
  in
  let all = List.concat_map alerts_for [ 1; 4 ] in
  Alcotest.(check bool) "alerts fired" true (all <> []);
  List.iter
    (fun l ->
      Alcotest.(check bool) (l ^ ": starts with timestamp") true (has_prefix ~prefix:"[" l))
    all;
  let kinds = List.sort_uniq String.compare (List.map kind_of all) in
  Alcotest.(check (list string)) "rate and gauge kinds both fire"
    [ "rate_spike"; "slo_breach" ] kinds;
  let contains needle hay =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    n = 0 || go 0
  in
  Alcotest.(check bool) "markdown churn alerted" true
    (List.exists (contains "fleet-markdown-churn") all);
  Alcotest.(check bool) "replica lag alerted" true
    (List.exists (contains "replica-lag:") all);
  Alcotest.(check bool) "abort spike alerted" true
    (List.exists (contains "abort-spike") all);
  (* Determinism, asserted directly on the alert log (the fingerprint
     already covers it, but a diff here reads better on failure). *)
  Alcotest.(check (list string)) "alert log replays byte-identically"
    (alerts_for 1) (alerts_for 1)

let test_harness_no_failover () =
  let cfg =
    { Readfleet.default_cfg with Readfleet.seed = 11; failover = false; txns_per_worker = 30 }
  in
  let o = Readfleet.run cfg in
  check_clean o "no failover";
  Alcotest.(check bool) "no promotion" true (o.Readfleet.promote_cseq = None)

let () =
  Alcotest.run "readfleet"
    [
      ( "regressions",
        [
          Alcotest.test_case "latest-safe on empty replica" `Quick test_latest_safe_empty;
          Alcotest.test_case "rtxn invalidated by reset" `Quick test_rtxn_invalidated_by_reset;
          Alcotest.test_case "rtxn invalidated by promote" `Quick
            test_rtxn_invalidated_by_promote;
          Alcotest.test_case "wait_snapshot deadline under partition" `Quick
            test_wait_snapshot_partition_deadline;
        ] );
      ( "router",
        [
          Alcotest.test_case "routes to replica" `Quick test_routes_to_replica;
          Alcotest.test_case "degrades to primary" `Quick test_degrades_to_primary;
          Alcotest.test_case "probation and readmit" `Quick test_probation_and_readmit;
          Alcotest.test_case "bounded staleness skips" `Quick test_bounded_staleness_skips;
          Alcotest.test_case "read-your-writes" `Quick test_read_your_writes;
          Alcotest.test_case "session deadline miss counted" `Quick
            test_session_deadline_miss_counted;
          Alcotest.test_case "spans and explain" `Quick test_spans_and_explain;
        ] );
      ( "chaos-harness",
        [
          Alcotest.test_case "acceptance" `Quick test_harness_acceptance;
          Alcotest.test_case "deterministic replay" `Quick test_harness_determinism;
          Alcotest.test_case "watchdog alerts" `Quick test_harness_watchdog_alerts;
          Alcotest.test_case "seed matrix" `Quick test_harness_seed_matrix;
          Alcotest.test_case "no failover" `Quick test_harness_no_failover;
        ] );
    ]
