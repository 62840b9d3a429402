open Ssi_util
module E = Ssi_engine.Engine
module Obs = Ssi_obs.Obs
module Sim = Ssi_sim.Sim

type consistency = [ `Latest_safe | `Latest_applied | `Bounded of int | `Deferrable ]

let mode_label = function
  | `Latest_safe -> "latest_safe"
  | `Latest_applied -> "latest_applied"
  | `Bounded n -> Printf.sprintf "bounded_%d" n
  | `Deferrable -> "deferrable"

type policy = {
  max_staleness : int;
  markdown_base : float;
  markdown_multiplier : float;
  markdown_max : float;
  markdown_jitter : float;
  session_deadline : float option;
  retry : E.retry_policy;
}

let default_policy =
  {
    max_staleness = max_int;
    markdown_base = 0.01;
    markdown_multiplier = 2.0;
    markdown_max = 1.0;
    markdown_jitter = 0.5;
    session_deadline = Some 1.0;
    retry = E.default_retry_policy;
  }

(* Mark-down state machine.  [Down] holds the virtual time at which the
   replica becomes probe-able again; the transition Down -> Probation
   happens lazily, at the first routing decision past the deadline. *)
type health = Healthy | Probation | Down of float

(* [m_stale] mirrors the last staleness reading the routing decision
   computed for this replica — the [fleet.staleness.<name>] gauge the
   scrape/watchdog layer turns into a time series. *)
type member = {
  m_rep : Replica.t;
  mutable m_health : health;
  mutable m_fails : int;
  m_stale : Obs.gauge;
}

type session = { mutable s_era : int; mutable s_cseq : int }

type t = {
  policy : policy;
  r_obs : Obs.t;
  rng : Rng.t;
  mutable r_primary : E.t;
  mutable members : member list;
  mutable era : int;
  (* Commit frontier of the current primary, fed by a commit hook; the
     xid->cseq side table turns "my write committed" into a session
     token without racing other sessions' commits. *)
  mutable primary_cseq : int;
  cseq_of_xid : (int, int) Hashtbl.t;
  c_route_replica : Obs.counter;
  c_route_primary : Obs.counter;
  c_fallbacks : Obs.counter;
  c_degraded : Obs.counter;
  c_markdowns : Obs.counter;
  c_probes : Obs.counter;
  c_readmits : Obs.counter;
  c_too_stale : Obs.counter;
  c_session_resets : Obs.counter;
  c_session_waits : Obs.counter;
  c_session_deadline_misses : Obs.counter;
  c_primary_switches : Obs.counter;
  h_session_wait : Obs.histogram;
  g_healthy : Obs.gauge;
}

(* The router lives on the virtual clock when one is running; in direct
   mode time stands still, so a marked-down replica stays down (callers
   still get primary fallback). *)
let vnow () = if Sim.running () then Sim.now () else 0.

let update_healthy_gauge t =
  let n =
    List.fold_left
      (fun acc m -> match m.m_health with Healthy -> acc + 1 | _ -> acc)
      0 t.members
  in
  Obs.set_gauge t.g_healthy (float_of_int n)

let install_primary_hook t db =
  E.set_on_commit db (fun r ->
      (* Hooks cannot be removed; guard so a deposed primary's late
         commits stop moving the frontier after a failover. *)
      if t.r_primary == db then begin
        if r.E.wal_cseq > t.primary_cseq then t.primary_cseq <- r.E.wal_cseq;
        if Hashtbl.length t.cseq_of_xid > 8192 then Hashtbl.reset t.cseq_of_xid;
        Hashtbl.replace t.cseq_of_xid r.E.wal_xid r.E.wal_cseq
      end)

let create ?(policy = default_policy) ?(seed = 0) ~primary () =
  let obs = E.obs primary in
  let t =
    {
      policy;
      r_obs = obs;
      rng = Rng.make (Hashtbl.hash (seed, "router"));
      r_primary = primary;
      members = [];
      era = 0;
      primary_cseq = 0;
      cseq_of_xid = Hashtbl.create 64;
      c_route_replica = Obs.counter obs "fleet.route.replica";
      c_route_primary = Obs.counter obs "fleet.route.primary";
      c_fallbacks = Obs.counter obs "fleet.fallbacks";
      c_degraded = Obs.counter obs "fleet.degraded";
      c_markdowns = Obs.counter obs "fleet.markdowns";
      c_probes = Obs.counter obs "fleet.probes";
      c_readmits = Obs.counter obs "fleet.readmits";
      c_too_stale = Obs.counter obs "fleet.too_stale";
      c_session_resets = Obs.counter obs "fleet.session_resets";
      c_session_waits = Obs.counter obs "fleet.session_waits";
      c_session_deadline_misses = Obs.counter obs "fleet.session_deadline_misses";
      c_primary_switches = Obs.counter obs "fleet.primary_switches";
      h_session_wait = Obs.histogram obs "fleet.session_wait";
      g_healthy = Obs.gauge obs "fleet.replicas.healthy";
    }
  in
  install_primary_hook t primary;
  update_healthy_gauge t;
  t

let add_replica t rep =
  let m_stale = Obs.gauge t.r_obs ("fleet.staleness." ^ Replica.name rep) in
  t.members <- t.members @ [ { m_rep = rep; m_health = Healthy; m_fails = 0; m_stale } ];
  update_healthy_gauge t

let remove_replica t rep =
  t.members <- List.filter (fun m -> m.m_rep != rep) t.members;
  update_healthy_gauge t

let set_primary t db =
  t.r_primary <- db;
  t.era <- t.era + 1;
  (* The new lineage's cseqs restart; the hook rebuilds the frontier. *)
  t.primary_cseq <- 0;
  Hashtbl.reset t.cseq_of_xid;
  install_primary_hook t db;
  Obs.trace t.r_obs "fleet.set_primary" ~fields:[ ("era", Obs.I t.era) ]

let primary t = t.r_primary
let replicas t = List.map (fun m -> m.m_rep) t.members

let healthy_replicas t =
  List.fold_left (fun acc m -> match m.m_health with Healthy -> acc + 1 | _ -> acc) 0 t.members

let obs t = t.r_obs

(* ---- Sessions --------------------------------------------------------------------------------- *)

let session t = { s_era = t.era; s_cseq = 0 }
let session_token s = s.s_cseq

(* A token minted under an old primary is meaningless against the new
   lineage's cseqs (the promotion may even have discarded the commit it
   names): reset it, and count the reset — it is a visible weakening of
   the session guarantee across failover. *)
let sync_session t = function
  | Some s when s.s_era <> t.era ->
      s.s_era <- t.era;
      s.s_cseq <- 0;
      Obs.incr t.c_session_resets
  | Some _ | None -> ()

(* ---- Health ----------------------------------------------------------------------------------- *)

let markdown_period t m =
  let b =
    Float.min t.policy.markdown_max
      (t.policy.markdown_base
      *. (t.policy.markdown_multiplier ** float_of_int (max 0 (m.m_fails - 1))))
  in
  if t.policy.markdown_jitter > 0. then
    b *. (1. -. t.policy.markdown_jitter +. Rng.float t.rng t.policy.markdown_jitter)
  else b

let mark_down t m =
  m.m_fails <- m.m_fails + 1;
  m.m_health <- Down (vnow () +. markdown_period t m);
  Obs.incr t.c_markdowns;
  Obs.trace t.r_obs "fleet.markdown"
    ~fields:[ ("replica", Obs.S (Replica.name m.m_rep)); ("fails", Obs.I m.m_fails) ];
  update_healthy_gauge t

let mark_success t m =
  (match m.m_health with
  | Healthy -> ()
  | Probation | Down _ ->
      Obs.incr t.c_readmits;
      Obs.trace t.r_obs "fleet.readmit"
        ~fields:[ ("replica", Obs.S (Replica.name m.m_rep)) ]);
  m.m_health <- Healthy;
  m.m_fails <- 0;
  update_healthy_gauge t

(* ---- Routing ---------------------------------------------------------------------------------- *)

type ro = { ro_name : string; ro_horizon : int; ro_kind : kind }
and kind = K_primary of E.t * E.txn | K_replica of Replica.rtxn

let backend ro = ro.ro_name
let ro_cseq ro = ro.ro_horizon
let ro_engine ro = match ro.ro_kind with K_primary (e, _) -> Some e | K_replica _ -> None

let read ro ~table ~key =
  match ro.ro_kind with
  | K_primary (_, txn) -> E.read txn ~table ~key
  | K_replica r -> Replica.read r ~table ~key

let scan ro ~table ?filter () =
  match ro.ro_kind with
  | K_primary (_, txn) -> E.seq_scan txn ~table ?filter ()
  | K_replica r -> Replica.scan r ~table ?filter ()

let snapshot_mode = function
  | `Latest_applied -> `Latest_applied
  | `Latest_safe | `Bounded _ | `Deferrable -> `Latest_safe

let frontier_of m = function
  | `Latest_applied -> Replica.applied_cseq m.m_rep
  | `Latest_safe | `Bounded _ | `Deferrable -> Replica.last_safe_cseq m.m_rep

(* Is [m] routable right now for this read?  Checks (and lazily advances)
   the mark-down state machine, then the staleness bound.  Too-stale is
   not a failure: the replica stays healthy, this read just skips it. *)
let eligible t ~consistency ~tried m =
  (not (List.memq m tried))
  && (match m.m_health with
     | Healthy | Probation -> true
     | Down until ->
         if vnow () >= until then begin
           m.m_health <- Probation;
           Obs.incr t.c_probes;
           Obs.trace t.r_obs "fleet.probe"
             ~fields:[ ("replica", Obs.S (Replica.name m.m_rep)) ];
           true
         end
         else false)
  &&
  let bound =
    match consistency with
    | `Bounded n -> min n t.policy.max_staleness
    | _ -> t.policy.max_staleness
  in
  let staleness = max 0 (t.primary_cseq - frontier_of m consistency) in
  Obs.set_gauge m.m_stale (float_of_int staleness);
  if staleness > bound then begin
    Obs.incr t.c_too_stale;
    false
  end
  else true

(* One attempt on one replica: wait (bounded) for the session/deferrable
   target if its safe frontier has not reached it, open the snapshot,
   run the body under a [replica.read] span.  Any retryable failure
   propagates to the fallback loop. *)
let replica_attempt t m ~consistency ~required ~route_span f =
  let rep = m.m_rep in
  let need =
    match consistency with `Deferrable -> max required t.primary_cseq | _ -> required
  in
  if Replica.last_safe_cseq rep < need then begin
    match t.policy.session_deadline with
    | Some deadline when Sim.running () ->
        Obs.incr t.c_session_waits;
        let before = Sim.now () in
        (* A deadline miss raises a retryable fault.  It must not be
           swallowed: serving the snapshot anyway would hand the session a
           stale read below its own token.  Count the miss and re-raise so
           the fallback ladder (next replica, then primary) takes over. *)
        (match Replica.wait_snapshot ~deadline rep ~after:(need - 1) with
        | (_ : int) -> Obs.observe t.h_session_wait (Sim.now () -. before)
        | exception (E.Error (E.Transient_fault _) as e) ->
            Obs.observe t.h_session_wait (Sim.now () -. before);
            Obs.incr t.c_session_deadline_misses;
            Obs.trace t.r_obs "fleet.session_deadline_miss"
              ~fields:
                [
                  ("replica", Obs.S (Replica.name rep));
                  ("target", Obs.I need);
                  ("safe", Obs.I (Replica.last_safe_cseq rep));
                ];
            raise e)
    | Some _ | None ->
        raise
          (E.Error (E.Transient_fault
             {
               op = "fleet.route";
               reason =
                 Printf.sprintf "replica %s safe frontier %d behind session target %d"
                   (Replica.name rep) (Replica.last_safe_cseq rep) need;
             }))
  end;
  let rtxn = Replica.begin_read rep (snapshot_mode consistency) in
  let horizon = Replica.snapshot_cseq rtxn in
  let sp =
    Obs.Span.start t.r_obs ~parent:route_span "replica.read"
      ~attrs:
        [
          ("replica", Obs.S (Replica.name rep));
          ("horizon", Obs.I horizon);
          ("staleness", Obs.I (max 0 (t.primary_cseq - horizon)));
        ]
  in
  match f { ro_name = Replica.name rep; ro_horizon = horizon; ro_kind = K_replica rtxn } with
  | v ->
      Obs.Span.finish t.r_obs sp;
      v
  | exception e ->
      Obs.Span.add sp "error" (Obs.B true);
      Obs.Span.finish t.r_obs sp;
      raise e

(* Whether to fall back to the next backend, or re-enter on a new primary. *)
let retryable t e = E.retryable e && t.policy.retry.E.retry_if e

(* The policy, narrowed to stop the engine's retry loop once primary [p]
   is switched out from under it: the caller re-routes against the new
   one instead of burning the remaining attempts on a fenced engine. *)
let stop_on_switch t p =
  { t.policy.retry with E.retry_if = (fun e -> t.policy.retry.E.retry_if e && t.r_primary == p) }

let primary_attempt t ~consistency ~route_span f =
  Obs.Span.add route_span "backend" (Obs.S "primary");
  let p = t.r_primary in
  let policy = stop_on_switch t p in
  let deferrable = match consistency with `Deferrable -> Sim.running () | _ -> false in
  E.retry_with ~isolation:E.Serializable ~read_only:true ~deferrable ~policy ~rng:t.rng
    ~span:route_span p (fun txn ->
      (* The engine's snapshot horizon is exclusive; [ro_cseq] is the
         inclusive convention the replica side uses. *)
      f
        {
          ro_name = "primary";
          ro_horizon = E.snapshot_cseq txn - 1;
          ro_kind = K_primary (p, txn);
        })

let read_only ?session ?(consistency = `Latest_safe) ?span t f =
  let sp =
    Obs.Span.start t.r_obs ?parent:span "fleet.route"
      ~attrs:[ ("mode", Obs.S (mode_label consistency)) ]
  in
  (* Degradation ladder: seeded pick among eligible replicas, marking
     each failed one down and falling to the next; the primary is the
     last rung and runs under the full retry policy. *)
  let rec route ~required tried =
    match List.filter (eligible t ~consistency ~tried) t.members with
    | [] ->
        Obs.incr t.c_route_primary;
        if t.members <> [] then Obs.incr t.c_degraded;
        primary_attempt t ~consistency ~route_span:sp f
    | cands -> (
        let m = List.nth cands (Rng.int t.rng (List.length cands)) in
        match replica_attempt t m ~consistency ~required ~route_span:sp f with
        | v ->
            mark_success t m;
            Obs.incr t.c_route_replica;
            v
        | exception E.Error e when retryable t e ->
            mark_down t m;
            Obs.incr t.c_fallbacks;
            route ~required (m :: tried))
  in
  let rec run () =
    sync_session t session;
    let p0 = t.r_primary in
    let required = match session with Some s -> s.s_cseq | None -> 0 in
    match route ~required [] with
    | v ->
        Obs.Span.finish t.r_obs sp;
        v
    | exception E.Error e when retryable t e && t.r_primary != p0 ->
        Obs.incr t.c_primary_switches;
        run ()
    | exception e ->
        Obs.Span.add sp "error" (Obs.B true);
        Obs.Span.finish t.r_obs sp;
        raise e
  in
  run ()

(* ---- Writes ----------------------------------------------------------------------------------- *)

type write_info = { wi_backend : E.t; wi_xid : int; wi_cseq : int }

let write_info ?session ?(isolation = E.Serializable) ?rng ?span t f =
  let rng = match rng with Some r -> r | None -> t.rng in
  let rec go () =
    sync_session t session;
    let p = t.r_primary in
    let policy = stop_on_switch t p in
    let last_xid = ref (-1) in
    match
      E.retry_with ~isolation ~policy ~rng ?span p (fun txn ->
          let v = f txn in
          last_xid := E.xid txn;
          v)
    with
    | v ->
        let cseq =
          match Hashtbl.find_opt t.cseq_of_xid !last_xid with
          | Some c ->
              Hashtbl.remove t.cseq_of_xid !last_xid;
              c
          | None -> t.primary_cseq
        in
        (match session with
        | None -> ()
        | Some s -> if cseq > s.s_cseq then s.s_cseq <- cseq);
        (v, { wi_backend = p; wi_xid = !last_xid; wi_cseq = cseq })
    | exception E.Error e when retryable t e && t.r_primary != p ->
        Obs.incr t.c_primary_switches;
        go ()
  in
  go ()

let write ?session ?isolation ?rng ?span t f =
  fst (write_info ?session ?isolation ?rng ?span t f)
