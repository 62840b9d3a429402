open Ssi_util
module E = Ssi_engine.Engine
module Wal = Ssi_wal.Wal
module Obs = Ssi_obs.Obs

type t = {
  rep_name : string;
  rep_obs : Obs.t;
  config : E.config;
  mutable engine : E.t;
  mutable seeded : bool;  (** a base backup has been applied *)
  mutable promoted : bool;  (** the engine is a primary now: apply nothing more *)
  mutable base_cseq : int;
  mutable applied : int;
  mutable last_safe : int;
  mutable lag : int;
  mutable minted : int;  (** the last read owner xid minted, counting down *)
  mutable recorder : (Ssi_engine.Recorded.txn -> unit) option;
  mutable reads_done : int;  (** recorded read transactions, for their names *)
  pending : (Wal.record * Obs.span_ctx option) Queue.t;
  safe_arrived : Waitq.t;
  (* Gauges under replica.<name>.*: how far behind the replica is (records
     held back), and the frontiers it has reached. *)
  g_apply_lag : Obs.gauge;
  g_applied : Obs.gauge;
  g_safe : Obs.gauge;
}

(* The creator of a base backup's rows.  Like the owners of read snapshots
   (-2, -3, ...) it is negative: no primary ever allocates it. *)
let base_xid = -1

let standby t =
  let e = E.create ~config:t.config () in
  E.set_recorder e t.recorder;
  e

let apply t (record, span) =
  (* A commit's apply is a span parented under the origin commit's span
     context, which travels beside the record, so a trace tree crosses the
     network: txn.commit on the primary -> replica.apply here. *)
  let sp =
    match (record, span) with
    | Wal.Commit { c_xid; c_cseq; _ }, Some ctx ->
        Some
          (Obs.Span.start t.rep_obs ~ctx
             ~attrs:[ ("replica", Obs.S t.rep_name); ("cseq", Obs.I c_cseq); ("xid", Obs.I c_xid) ]
             "replica.apply")
    | _ -> None
  in
  E.redo t.engine ~base_xid record;
  let applied cseq =
    t.applied <- max t.applied cseq;
    Obs.set_gauge t.g_applied (float_of_int t.applied)
  in
  (match record with
  | Wal.Checkpoint { k_cseq; _ } ->
      t.seeded <- true;
      t.base_cseq <- k_cseq;
      applied k_cseq
  | Wal.Commit { c_cseq; c_safe; _ } ->
      applied c_cseq;
      if c_safe then begin
        t.last_safe <- max t.last_safe c_cseq;
        Obs.set_gauge t.g_safe (float_of_int t.last_safe);
        Waitq.wake_all t.safe_arrived
      end
  | _ -> ());
  match sp with Some s -> Obs.Span.finish t.rep_obs s | None -> ()

let drain t =
  while Queue.length t.pending > t.lag do
    apply t (Queue.pop t.pending)
  done;
  Obs.set_gauge t.g_apply_lag (float_of_int (Queue.length t.pending))

let deliver t ?span record =
  if not t.promoted then begin
    Queue.add (record, span) t.pending;
    drain t
  end

let create ?obs ?(name = "replica") ?(config = E.default_config) () =
  let obs = match obs with Some o -> o | None -> Obs.create () in
  let metric suffix = Printf.sprintf "replica.%s.%s" name suffix in
  (* The primary's charge closures would bill its simulated CPU for the
     standby's work: a standby charges nothing. *)
  let config = { config with E.charge_cpu = None; charge_io = None } in
  {
    rep_name = name;
    rep_obs = obs;
    config;
    engine = E.create ~config ();
    seeded = false;
    promoted = false;
    base_cseq = 0;
    applied = 0;
    last_safe = 0;
    lag = 0;
    minted = base_xid;
    recorder = None;
    reads_done = 0;
    pending = Queue.create ();
    safe_arrived = Waitq.create ();
    g_apply_lag = Obs.gauge obs (metric "apply_lag");
    g_applied = Obs.gauge obs (metric "applied_cseq");
    g_safe = Obs.gauge obs (metric "safe_cseq");
  }

let attach ?name primary =
  let obs = E.obs primary in
  let name =
    match name with
    | Some n -> n
    | None ->
        (* One counter per primary registry numbers its replicas, so
           multi-replica attach never collides on gauge names. *)
        let c = Obs.counter obs "replica.attached" in
        Obs.incr c;
        Printf.sprintf "r%d" (Obs.counter_value c)
  in
  let t = create ~obs ~name ~config:(E.config primary) () in
  deliver t (E.backup primary);
  E.set_on_log primary (fun record span -> deliver t ?span record);
  t

let name t = t.rep_name
let obs t = t.rep_obs

(* Reads still open on the standby end as a crashed session's would: their
   next step fails with a retryable [Transient_fault]. *)
let end_reads t = if E.active_transactions t.engine > 0 then E.simulate_connection_loss t.engine

let reset t =
  if not t.promoted then end_reads t;
  t.engine <- standby t;
  Queue.clear t.pending;
  t.seeded <- false;
  t.promoted <- false;
  t.base_cseq <- 0;
  t.applied <- 0;
  t.last_safe <- 0;
  Obs.set_gauge t.g_applied 0.;
  Obs.set_gauge t.g_safe 0.;
  Obs.set_gauge t.g_apply_lag 0.

let applied_cseq t = t.applied
let last_safe_cseq t = t.last_safe
let pending_records t = Queue.length t.pending

let set_apply_lag t n =
  t.lag <- max 0 n;
  drain t

let set_recorder t f =
  t.recorder <- f;
  E.set_recorder t.engine f

let begin_read t mode =
  let unavailable why =
    raise
      (E.Error
         (E.Transient_fault
            { op = "begin_read"; reason = Printf.sprintf "replica %s has no %s yet" t.rep_name why }))
  in
  let horizon =
    match mode with
    | `Latest_safe ->
        (* The horizon-0 snapshot reads an empty database: silently
           serving it looks like data loss to the client.  Fail retryably
           so a router can fall back. *)
        if t.last_safe = 0 then unavailable "safe snapshot";
        t.last_safe
    | `Latest_applied ->
        if not t.seeded then unavailable "base backup";
        t.applied
  in
  t.minted <- t.minted - 1;
  let txn = E.begin_snapshot t.engine ~xid:t.minted ~horizon:(horizon + 1) in
  if t.recorder <> None then begin
    t.reads_done <- t.reads_done + 1;
    E.tag txn (Printf.sprintf "%s#%d" t.rep_name t.reads_done)
  end;
  txn

let wait_snapshot ?deadline t ~after =
  let timed_out = ref false in
  (match deadline with
  | None -> ()
  | Some d ->
      Ssi_sim.Sim.at ~after:d (fun () ->
          timed_out := true;
          (* Spurious wakeups are fine: other waiters recheck and re-wait. *)
          Waitq.wake_all t.safe_arrived));
  while t.last_safe <= after && not !timed_out do
    Ssi_sim.Sim.wait t.safe_arrived
  done;
  if t.last_safe > after then t.last_safe
  else
    raise
      (E.Error (E.Transient_fault
         {
           op = "wait_snapshot";
           reason = Printf.sprintf "no safe snapshot after cseq %d within the deadline" after;
         }))

type promotion = { engine : E.t; promote_cseq : int; discarded_commits : int }

let promote t mode =
  (* Drain everything already received, apply lag included: WAL the replica
     holds must not be silently dropped by a failover. *)
  let held = t.lag in
  t.lag <- 0;
  drain t;
  t.lag <- held;
  t.promoted <- true;
  end_reads t;
  let promote_cseq, discarded =
    match mode with
    | `Latest_applied -> (t.applied, 0)
    | `Latest_safe ->
        (* The newest safe point is the last safe commit or, before one
           arrives, the base backup. *)
        (max t.last_safe t.base_cseq, E.rollback_unsafe t.engine)
  in
  Obs.trace t.rep_obs "replica.promote"
    ~fields:
      [
        ("replica", Obs.S t.rep_name);
        ("cseq", Obs.I promote_cseq);
        ("discarded", Obs.I discarded);
      ];
  { engine = t.engine; promote_cseq; discarded_commits = discarded }
