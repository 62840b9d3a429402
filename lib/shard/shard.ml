(* Cross-shard SSI: hash-partitioned engines behind a 2PC coordinator.
   See shard.mli for the protocol and its §5.7/§7.1 grounding.  Everything
   here runs on the virtual clock: the coordinator and the per-shard
   message handlers are ordinary simulation processes, and all adversity
   (drops, duplicates, reordering, partitions) comes from the seeded
   network, so a whole multi-shard history replays byte-identically. *)

module E = Ssi_engine.Engine
module Net = Ssi_net.Net
module Obs = Ssi_obs.Obs
module Sim = Ssi_sim.Sim
module Waitq = Ssi_util.Waitq
module Certifier = Ssi_core.Certifier

(* The per-participant SSI conflict summary piggybacked on prepare-acks
   and commit-acks (the wire format of DESIGN.md §12). *)
type summary = {
  sm_shard : int;
  sm_xid : int;  (* branch xid local to the shard *)
  sm_snap_cseq : int;
  sm_in : bool;
  sm_out : bool;
  sm_conservative : bool;
  sm_digest : string;  (* canonical SIREAD footprint digest *)
}

type msg =
  | Prepare_req of { gid : string }
  | Prepare_ack of { gid : string; summary : summary }
  | Prepare_nack of { gid : string; shard : int; reason : string; fault : bool }
  | Commit_req of { gid : string }
  | Commit_ack of { gid : string; shard : int; summary : summary }
  | Abort_req of { gid : string }
  | Abort_ack of { gid : string; shard : int }

type phase = Preparing | Committing | Aborting

type pending = {
  pd_gid : string;
  pd_gxid : int;
  pd_parts : int list;  (* participating shards, sorted *)
  mutable pd_phase : phase;
  mutable pd_acked : int list;  (* shards that answered the current phase *)
  mutable pd_summaries : (int * summary) list;  (* prepare-time, by shard *)
  mutable pd_commit_summaries : (int * summary) list;  (* commit-time *)
  mutable pd_nack : (string * bool) option;  (* reason, is-transient-fault *)
  pd_wake : Waitq.t;
}

type t = {
  n_shards : int;
  sobs : Obs.t;
  net : msg Net.t;
  engines : E.t array;
  nodes : string array;  (* shard i's network node name, [node_name i] *)
  rto : float;
  (* Cross-shard deadlock wound deadline: each engine detects waits-for
     cycles among its own transactions, but a cycle threaded through two
     engines (G1 holds on shard A and waits on shard B, G2 the reverse) is
     invisible to both.  A data-plane op still in flight after [wound_ttl]
     virtual seconds wounds its global transaction: every branch except the
     one executing the op is aborted, releasing that gtxn's locks on the
     other shards and waking whoever waits there.  Since every blocked
     gtxn's timer fires, every cross-engine edge of a cycle loses its
     holder and the cycle unwinds; purely local cycles never reach the
     deadline (the engine's own detector fails them first). *)
  wound_ttl : float;
  mutable next_gxid : int;
  mutable next_cts : int;
  pending : (string, pending) Hashtbl.t;
  (* gid -> branches, installed by the committing session before the first
     Prepare_req so the shard-side handlers can reach the txn handles. *)
  branches_of : (string, (int * E.txn) list) Hashtbl.t;
  (* (gid, shard) -> prepare-time summary, so a duplicate Prepare_req
     re-acks the ORIGINAL summary: after acking, the shard closes its
     window with the conservative flags, and a re-taken summary would
     misreport that deliberate conservatism as summarized metadata. *)
  acked_summaries : (string * int, summary) Hashtbl.t;
  (* The coordinator's decision log, written before phase 2 begins: the
     recovery scan resolves in-doubt participants from it. *)
  decisions : (string, [ `Commit of int | `Abort ]) Hashtbl.t;
  c_fastpath : Obs.counter;
  c_readonly : Obs.counter;
  c_twopc : Obs.counter;
  c_commits : Obs.counter;
  c_aborts : Obs.counter;
  c_cross_aborts : Obs.counter;
  c_participant_aborts : Obs.counter;
  c_conservative : Obs.counter;
  c_window_edges : Obs.counter;
  c_retransmits : Obs.counter;
  c_indoubt_commits : Obs.counter;
  c_indoubt_aborts : Obs.counter;
  c_wounds : Obs.counter;
  h_decision_wait : Obs.histogram;
}

let node_name s = "s" ^ string_of_int s
let coord = "coord"

let shards t = t.n_shards
let engines t = t.engines
let obs t = t.sobs
let net_ops t = Net.ops t.net

let shard_of_key t key = Hashtbl.hash key mod t.n_shards

(* Real rw edges of a branch right now (committed or prepared), ignoring
   the conservative flags: the commit-ack summary wants edges that formed
   during the decision window, and the window-closing flags themselves
   must not read as such. *)
let edge_summary t shard ~xid ~snap_cseq =
  let (Certifier.Cert ((module C), c)) = E.certifier t.engines.(shard) in
  match C.info c xid with
  | Some i ->
      {
        sm_shard = shard;
        sm_xid = xid;
        sm_snap_cseq = snap_cseq;
        sm_in = i.Certifier.info_in <> [];
        sm_out = i.info_out <> [];
        sm_conservative = false;
        sm_digest = "";
      }
  | None ->
      {
        sm_shard = shard;
        sm_xid = xid;
        sm_snap_cseq = snap_cseq;
        sm_in = false;
        sm_out = false;
        sm_conservative = false;
        sm_digest = "";
      }

let summary_of_prepared t shard ~gid =
  let ps = E.prepared_summary t.engines.(shard) ~gid in
  {
    sm_shard = shard;
    sm_xid = ps.E.ps_xid;
    sm_snap_cseq = ps.E.ps_snap_cseq;
    sm_in = ps.E.ps_in_conflict;
    sm_out = ps.E.ps_out_conflict;
    sm_conservative = ps.E.ps_conservative;
    sm_digest = ps.E.ps_siread_digest;
  }

let send t ~src ~dst m = Net.send t.net ~src ~dst m

let is_prepared e gid = List.mem gid (E.prepared_gids e)

(* ---- Shard-side handler ---------------------------------------------------- *)

let shard_handler t s ~src:_ msg =
  let e = t.engines.(s) in
  let reply m = send t ~src:t.nodes.(s) ~dst:coord m in
  match msg with
  | Prepare_req { gid } -> (
      match Hashtbl.find_opt t.acked_summaries (gid, s) with
      | Some summary ->
          (* Duplicate (drop/retransmit/dup chaos): re-ack the original. *)
          if is_prepared e gid then reply (Prepare_ack { gid; summary })
      | None -> (
          match List.assoc_opt s (Option.value ~default:[] (Hashtbl.find_opt t.branches_of gid)) with
          | None -> ()  (* late retransmit after cleanup: decision already final *)
          | Some txn when E.is_finished txn ->
              () (* a retransmit after a failed prepare rolled it back and nacked *)
          | Some txn -> (
              try
                E.prepare txn ~gid;
                (* Summary first (exact state at prepare time), THEN close
                   the window: edges formed against this branch while the
                   coordinator deliberates make the edge-former give way. *)
                let summary = summary_of_prepared t s ~gid in
                E.mark_prepared_conservative e ~gid;
                Hashtbl.replace t.acked_summaries (gid, s) summary;
                reply (Prepare_ack { gid; summary })
              with
              | E.Error (E.Serialization_failure { reason; _ }) ->
                  reply (Prepare_nack { gid; shard = s; reason; fault = false })
              | E.Error (E.Transient_fault { reason; _ }) ->
                  reply (Prepare_nack { gid; shard = s; reason; fault = true }))))
  | Commit_req { gid } ->
      let xid, snap =
        match Hashtbl.find_opt t.acked_summaries (gid, s) with
        | Some sm -> (sm.sm_xid, sm.sm_snap_cseq)
        | None -> (0, 0)
      in
      if is_prepared e gid then E.commit_prepared e ~gid;
      (* Idempotent ack; the piggybacked summary carries the edges the
         branch accumulated during the decision window. *)
      reply (Commit_ack { gid; shard = s; summary = edge_summary t s ~xid ~snap_cseq:snap })
  | Abort_req { gid } ->
      if is_prepared e gid then E.rollback_prepared e ~gid;
      reply (Abort_ack { gid; shard = s })
  | Prepare_ack _ | Prepare_nack _ | Commit_ack _ | Abort_ack _ -> ()

(* ---- Coordinator-side handler ---------------------------------------------- *)

let coord_handler t ~src:_ msg =
  let with_pending gid f =
    match Hashtbl.find_opt t.pending gid with
    | Some pd ->
        f pd;
        Waitq.wake_all pd.pd_wake
    | None -> ()  (* late ack after cleanup *)
  in
  match msg with
  | Prepare_ack { gid; summary } ->
      with_pending gid (fun pd ->
          if pd.pd_phase = Preparing && not (List.mem summary.sm_shard pd.pd_acked) then begin
            pd.pd_acked <- summary.sm_shard :: pd.pd_acked;
            pd.pd_summaries <- (summary.sm_shard, summary) :: pd.pd_summaries
          end)
  | Prepare_nack { gid; shard; reason; fault } ->
      with_pending gid (fun pd ->
          if pd.pd_phase = Preparing && not (List.mem shard pd.pd_acked) then begin
            pd.pd_acked <- shard :: pd.pd_acked;
            if pd.pd_nack = None then pd.pd_nack <- Some (reason, fault)
          end)
  | Commit_ack { gid; shard; summary } ->
      with_pending gid (fun pd ->
          if pd.pd_phase = Committing && not (List.mem shard pd.pd_acked) then begin
            pd.pd_acked <- shard :: pd.pd_acked;
            pd.pd_commit_summaries <- (shard, summary) :: pd.pd_commit_summaries
          end)
  | Abort_ack { gid; shard } ->
      with_pending gid (fun pd ->
          if pd.pd_phase = Aborting && not (List.mem shard pd.pd_acked) then
            pd.pd_acked <- shard :: pd.pd_acked)
  | Prepare_req _ | Commit_req _ | Abort_req _ -> ()

(* ---- Construction ----------------------------------------------------------- *)

let create ?obs:(sobs = Obs.create ()) ?(config = E.default_config) ?(rto = 1e-3)
    ?(wound_ttl = 0.05) ~shards ~seed () =
  if shards < 1 then invalid_arg "Shard.create: shards must be >= 1";
  let net = Net.create ~obs:sobs ~seed () in
  let engines =
    Array.init shards (fun _ -> E.create ~scheduler:Sim.scheduler ~config ~obs:sobs ())
  in
  let t =
    {
      n_shards = shards;
      sobs;
      net;
      engines;
      nodes = Array.init shards node_name;
      rto;
      wound_ttl;
      next_gxid = 2;  (* 1 is every shard's seed writer *)
      next_cts = 0;
      pending = Hashtbl.create 64;
      branches_of = Hashtbl.create 64;
      acked_summaries = Hashtbl.create 64;
      decisions = Hashtbl.create 256;
      c_fastpath = Obs.counter sobs "shard.fastpath";
      c_readonly = Obs.counter sobs "shard.readonly";
      c_twopc = Obs.counter sobs "shard.twopc";
      c_commits = Obs.counter sobs "shard.commits";
      c_aborts = Obs.counter sobs "shard.aborts";
      c_cross_aborts = Obs.counter sobs "shard.cross_aborts";
      c_participant_aborts = Obs.counter sobs "shard.participant_aborts";
      c_conservative = Obs.counter sobs "shard.conservative_fallbacks";
      c_window_edges = Obs.counter sobs "shard.window_edges";
      c_retransmits = Obs.counter sobs "shard.retransmits";
      c_indoubt_commits = Obs.counter sobs "shard.indoubt_commits";
      c_indoubt_aborts = Obs.counter sobs "shard.indoubt_aborts";
      c_wounds = Obs.counter sobs "shard.wounds";
      h_decision_wait = Obs.histogram sobs "shard.decision_wait";
    }
  in
  Net.add_node net coord ~handler:(coord_handler t);
  for s = 0 to shards - 1 do
    Net.add_node net t.nodes.(s) ~handler:(shard_handler t s)
  done;
  t

let create_table t ~name ~cols ~key =
  Array.iter (fun e -> E.create_table e ~name ~cols ~key) t.engines

let seed_rows t ~table ~rows =
  let by_shard = Array.make t.n_shards [] in
  List.iter
    (fun row ->
      let s = shard_of_key t row.(0) in
      by_shard.(s) <- row :: by_shard.(s))
    rows;
  Array.iteri
    (fun s rows ->
      if rows <> [] then
        E.with_txn t.engines.(s) (fun txn ->
            List.iter (fun row -> E.insert txn ~table row) (List.rev rows)))
    by_shard

(* ---- Distributed transactions ----------------------------------------------- *)

type gtxn = {
  g : t;
  g_xid : int;
  mutable g_branches : (int * E.txn) list;
  mutable g_wrote : bool;
  mutable g_finished : bool;
  mutable g_wounded : bool;
  (* Monotone per-op sequence plus the shard of the op in flight: a wound
     timer only fires for the exact op it was armed for. *)
  mutable g_opseq : int;
  mutable g_inflight : int option;
}

let begin_txn t =
  let gxid = t.next_gxid in
  t.next_gxid <- t.next_gxid + 1;
  {
    g = t;
    g_xid = gxid;
    g_branches = [];
    g_wrote = false;
    g_finished = false;
    g_wounded = false;
    g_opseq = 0;
    g_inflight = None;
  }

let gxid g = g.g_xid
let touched g = List.sort compare (List.map fst g.g_branches)

let branch g s =
  match List.assoc_opt s g.g_branches with
  | Some txn -> txn
  | None ->
      let txn = E.begin_txn g.g.engines.(s) in
      g.g_branches <- (s, txn) :: g.g_branches;
      txn

let check_wounded g =
  if g.g_wounded then
    raise
      (E.Error (E.Serialization_failure
         { xid = g.g_xid; reason = "wounded: cross-shard lock wait exceeded deadline" }))

(* Run one data-plane op on shard [s] under a wound timer (see [wound_ttl]
   above).  The branch executing the op is spared so the blocked coroutine
   resumes on a live transaction; the op's result is then discarded and the
   gtxn fails with a retryable serialization failure. *)
let guarded g s f =
  check_wounded g;
  let t = g.g in
  let txn = branch g s in
  g.g_opseq <- g.g_opseq + 1;
  let seq = g.g_opseq in
  g.g_inflight <- Some s;
  Sim.at ~after:t.wound_ttl (fun () ->
      if g.g_opseq = seq && g.g_inflight = Some s && not g.g_finished then begin
        g.g_wounded <- true;
        Obs.incr t.c_wounds;
        Obs.trace t.sobs "shard.wound"
          ~fields:[ ("gxid", Obs.I g.g_xid); ("stuck_on", Obs.I s) ];
        List.iter
          (fun (s', b) -> if s' <> s then try E.abort b with _ -> ())
          g.g_branches
      end);
  match f txn with
  | r ->
      g.g_inflight <- None;
      check_wounded g;
      r
  | exception e ->
      g.g_inflight <- None;
      raise e

let read g ~table ~key =
  guarded g (shard_of_key g.g key) (fun txn -> E.read txn ~table ~key)

let insert g ~table row =
  guarded g (shard_of_key g.g row.(0)) (fun txn -> E.insert txn ~table row);
  g.g_wrote <- true

let update g ~table ~key ~f =
  let r = guarded g (shard_of_key g.g key) (fun txn -> E.update txn ~table ~key ~f) in
  if r then g.g_wrote <- true;
  r

let delete g ~table ~key =
  let r = guarded g (shard_of_key g.g key) (fun txn -> E.delete txn ~table ~key) in
  if r then g.g_wrote <- true;
  r

let abort g =
  if not g.g_finished then begin
    g.g_finished <- true;
    List.iter (fun (_, txn) -> E.abort txn) g.g_branches
  end

let fresh_cts t =
  t.next_cts <- t.next_cts + 1;
  t.next_cts

(* Drive one 2PC phase against lossy links: send the phase's request to
   every participant that has not answered, wait up to [rto] for acks,
   resend.  Short partitions just stretch the loop; past [max_rounds] the
   coordinator gives up and leaves the stragglers to the recovery scan
   ({!resolve_indoubt} — the decision, once logged, stands).  Returns
   whether every participant answered. *)
let drive t pd ~complete ~send_round ~max_rounds =
  let rounds = ref 0 in
  while (not (complete ())) && !rounds < max_rounds do
    if !rounds > 0 then Obs.incr t.c_retransmits;
    incr rounds;
    send_round ();
    let fired = ref false in
    Sim.at ~after:t.rto (fun () ->
        fired := true;
        Waitq.wake_all pd.pd_wake);
    while (not (complete ())) && not !fired do
      Sim.wait pd.pd_wake
    done
  done;
  complete ()

(* The cross-shard dangerous-structure test (DESIGN.md §12): the global
   transaction is a potential pivot when some shard reports an edge in
   and a DIFFERENT shard an edge out.  Same-shard in/out pairs were
   already subjected to that shard's exact precommit test; the split
   pivot is the one no local certifier can see, and with neither remote
   T1 nor T3 identifiable the commit-order test degrades to the paper's
   conservative abort. *)
let cross_pivot summaries =
  let flag f = List.filter_map (fun (s, sm) -> if f sm then Some s else None) summaries in
  let ins = flag (fun sm -> sm.sm_in || sm.sm_conservative) in
  let outs = flag (fun sm -> sm.sm_out || sm.sm_conservative) in
  List.fold_left
    (fun acc a ->
      match acc with
      | Some _ -> acc
      | None -> (
          match List.find_opt (fun b -> b <> a) outs with
          | Some b -> Some (a, b)
          | None -> None))
    None ins

let two_phase g parts =
  let t = g.g in
  Obs.incr t.c_twopc;
  let gid = Printf.sprintf "g%d" g.g_xid in
  let span =
    Obs.Span.start t.sobs "shard.twopc"
      ~attrs:
        [
          ("gxid", Obs.I g.g_xid);
          ("participants", Obs.S (String.concat "," (List.map string_of_int parts)));
        ]
  in
  let started = Sim.now () in
  Hashtbl.replace t.branches_of gid g.g_branches;
  let pd =
    {
      pd_gid = gid;
      pd_gxid = g.g_xid;
      pd_parts = parts;
      pd_phase = Preparing;
      pd_acked = [];
      pd_summaries = [];
      pd_commit_summaries = [];
      pd_nack = None;
      pd_wake = Waitq.create ();
    }
  in
  Hashtbl.replace t.pending gid pd;
  let all_answered () = List.length pd.pd_acked = List.length pd.pd_parts in
  let broadcast m =
    List.iter
      (fun s ->
        if not (List.mem s pd.pd_acked) then
          Net.send t.net ~span_ctx:(Obs.Span.ctx span) ~src:coord ~dst:t.nodes.(s) m)
      pd.pd_parts
  in
  let prepared_all =
    drive t pd ~complete:all_answered ~max_rounds:32
      ~send_round:(fun () -> broadcast (Prepare_req { gid }))
  in
  if (not prepared_all) && pd.pd_nack = None then
    (* An unreachable participant may or may not have prepared; its
       branch, if prepared, is presumed-aborted by the recovery scan. *)
    pd.pd_nack <- Some ("prepare timeout: participant unreachable", true);
  Obs.observe t.h_decision_wait (Sim.now () -. started);
  let decision =
    match pd.pd_nack with
    | Some (reason, fault) ->
        Obs.incr t.c_participant_aborts;
        `Abort (reason, fault)
    | None -> (
        let conservative =
          List.exists (fun (_, sm) -> sm.sm_conservative) pd.pd_summaries
        in
        if conservative then Obs.incr t.c_conservative;
        match cross_pivot pd.pd_summaries with
        | Some (a, b) ->
            Obs.incr t.c_cross_aborts;
            Obs.trace t.sobs "shard.cross_abort"
              ~fields:
                [
                  ("gxid", Obs.I g.g_xid);
                  ("in_shard", Obs.I a);
                  ("out_shard", Obs.I b);
                  ("conservative", Obs.B conservative);
                ];
            `Abort
              ( Printf.sprintf
                  "cross-shard pivot: conflict in on shard %d, out on shard %d" a b,
                false )
        | None -> `Commit)
  in
  let finish_phase phase req =
    pd.pd_phase <- phase;
    pd.pd_acked <- [];
    (* The decision is already final; a participant unreachable past the
       retransmission budget is finished by {!resolve_indoubt}. *)
    ignore (drive t pd ~complete:all_answered ~max_rounds:32 ~send_round:(fun () -> broadcast req))
  in
  let result =
    match decision with
    | `Commit ->
        let cts = fresh_cts t in
        (* Decision logged before phase 2: a participant crash between
           here and its Commit_req is resolved by the recovery scan. *)
        Hashtbl.replace t.decisions gid (`Commit cts);
        Obs.Span.add span "outcome" (Obs.S "committed");
        Obs.Span.add span "cts" (Obs.I cts);
        finish_phase Committing (Commit_req { gid });
        (* The commit-ack summaries expose edges formed during the
           decision window — resolved conservatively by the closed
           window, surfaced here for the explainer. *)
        List.iter
          (fun (s, sm) ->
            let before =
              match List.assoc_opt s pd.pd_summaries with
              | Some p -> (p.sm_in, p.sm_out)
              | None -> (false, false)
            in
            if (sm.sm_in && not (fst before)) || (sm.sm_out && not (snd before)) then begin
              Obs.incr t.c_window_edges;
              Obs.trace t.sobs "shard.window_edge"
                ~fields:[ ("gxid", Obs.I g.g_xid); ("shard", Obs.I s) ]
            end)
          pd.pd_commit_summaries;
        Obs.incr t.c_commits;
        Ok cts
    | `Abort (reason, fault) ->
        Hashtbl.replace t.decisions gid `Abort;
        Obs.Span.add span "outcome" (Obs.S "aborted");
        Obs.Span.add span "error" (Obs.B true);
        finish_phase Aborting (Abort_req { gid });
        (* A branch the network never reached is still a live local handle
           owned by this session — a Prepare_req lost to a partition leaves
           it active (not prepared, so invisible to [resolve_indoubt]),
           holding write locks forever.  The abort decision is final, so
           finish every straggler directly; for branches the Abort_req did
           reach this is a no-op. *)
        List.iter (fun (_, txn) -> try E.abort txn with _ -> ()) g.g_branches;
        Obs.incr t.c_aborts;
        Error (reason, fault)
  in
  Hashtbl.remove t.pending gid;
  Hashtbl.remove t.branches_of gid;
  List.iter (fun s -> Hashtbl.remove t.acked_summaries (gid, s)) pd.pd_parts;
  Obs.Span.finish t.sobs span;
  match result with
  | Ok cts -> cts
  | Error (reason, fault) ->
      if fault then raise (E.Error (E.Transient_fault { op = "shard.commit"; reason }))
      else raise (E.Error (E.Serialization_failure { xid = g.g_xid; reason }))

let commit g =
  if g.g_finished then invalid_arg "Shard.commit: transaction already finished";
  check_wounded g;
  g.g_finished <- true;
  let t = g.g in
  match List.sort (fun (a, _) (b, _) -> compare a b) g.g_branches with
  | [] ->
      Obs.incr t.c_fastpath;
      Obs.incr t.c_commits;
      fresh_cts t
  | [ (_, txn) ] ->
      (* Single shard: the local certifier is exact; no network round. *)
      Obs.incr t.c_fastpath;
      (* The commit timestamp is drawn BEFORE the commit point.  Writers
         of the same key are serialized by that key's (single) shard's
         write locks, so for any two conflicting writers the later one
         begins its commit after the earlier one's commit point — the
         draw order is a linear extension of every per-key write order,
         which is what the combined-DSG oracle splices on. *)
      let cts = fresh_cts t in
      (try E.commit txn
       with e ->
         Obs.incr t.c_aborts;
         raise e);
      Obs.incr t.c_commits;
      cts
  | branches when not g.g_wrote ->
      (* Multi-shard read-only: rw edges point only out of readers, so
         the transaction cannot be a pivot; each branch commits locally
         (its shard still runs the exact read-only SSI tests). *)
      Obs.incr t.c_readonly;
      let cts = fresh_cts t in
      (try List.iter (fun (_, txn) -> E.commit txn) branches
       with e ->
         List.iter (fun (_, txn) -> E.abort txn) branches;
         Obs.incr t.c_aborts;
         raise e);
      Obs.incr t.c_commits;
      cts
  | branches -> two_phase g (List.map fst branches)

(* ---- Failure handling -------------------------------------------------------- *)

let crash_shard t s = E.simulate_connection_loss t.engines.(s)

let resolve_indoubt t =
  let touched = ref [] in
  Array.iteri
    (fun s e ->
      let gids =
        (* In-flight 2PC transactions are not in doubt — their coordinator
           session is still driving them. *)
        List.filter (fun gid -> not (Hashtbl.mem t.pending gid)) (E.prepared_gids e)
      in
      if gids <> [] then touched := s :: !touched;
      List.iter
        (fun gid ->
          match Hashtbl.find_opt t.decisions gid with
          | Some (`Commit _) ->
              E.commit_prepared e ~gid;
              Obs.incr t.c_indoubt_commits;
              Obs.trace t.sobs "shard.indoubt"
                ~fields:[ ("gid", Obs.S gid); ("shard", Obs.I s); ("outcome", Obs.S "commit") ]
          | Some `Abort | None ->
              (* Presumed abort: no logged commit decision means the
                 coordinator never reached one. *)
              E.rollback_prepared e ~gid;
              Obs.incr t.c_indoubt_aborts;
              Obs.trace t.sobs "shard.indoubt"
                ~fields:[ ("gid", Obs.S gid); ("shard", Obs.I s); ("outcome", Obs.S "abort") ])
        gids)
    t.engines;
  List.rev !touched

let decided t ~gid = Hashtbl.find_opt t.decisions gid

let stats t =
  [
    ("shard.aborts", Obs.counter_value t.c_aborts);
    ("shard.commits", Obs.counter_value t.c_commits);
    ("shard.conservative_fallbacks", Obs.counter_value t.c_conservative);
    ("shard.cross_aborts", Obs.counter_value t.c_cross_aborts);
    ("shard.fastpath", Obs.counter_value t.c_fastpath);
    ("shard.indoubt_aborts", Obs.counter_value t.c_indoubt_aborts);
    ("shard.indoubt_commits", Obs.counter_value t.c_indoubt_commits);
    ("shard.participant_aborts", Obs.counter_value t.c_participant_aborts);
    ("shard.readonly", Obs.counter_value t.c_readonly);
    ("shard.retransmits", Obs.counter_value t.c_retransmits);
    ("shard.twopc", Obs.counter_value t.c_twopc);
    ("shard.window_edges", Obs.counter_value t.c_window_edges);
    ("shard.wounds", Obs.counter_value t.c_wounds);
  ]
