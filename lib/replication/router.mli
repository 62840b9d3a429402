(** Read-fleet router: fault-tolerant read scale-out on safe snapshots
    (§7.2).

    A {!t} fronts one primary engine plus N {!Replica.t}s and routes
    read-only transactions to a healthy, sufficiently-fresh replica —
    falling back to another replica and finally to the primary when a
    replica fails, lags too far, or has no safe snapshot yet.  Writes
    always go to the current primary through the engine's retry
    machinery, and each client {!session} carries a causal commit-cseq
    token so its later reads observe its own writes (read-your-writes),
    enforced on replicas with {!Replica.wait_snapshot}.

    {b Health tracking.}  Every replica is [Healthy], [Probation] or
    [Down].  A retryable failure (no safe snapshot, snapshot invalidated
    by promote/reset, session wait deadline — anything raising
    [Engine.Transient_fault]) marks the replica down for a seeded,
    jittered, exponentially growing backoff; when the backoff passes the
    replica enters probation and the next routing decision may try it
    again — success re-admits it (and resets the backoff), failure marks
    it down for longer.  A replica whose staleness (primary commit
    frontier minus replica frontier) exceeds the policy bound is skipped
    for that read without being marked down.

    {b Degradation ladder.}  replica → other replicas → primary.  When
    the whole fleet is down the router degrades to primary-only service
    ([fleet.degraded] counts those reads) and keeps answering; it never
    fails a read for a fault the retry policy calls retryable.

    {b Observability.}  Every routing decision is counted under
    [fleet.*] in the primary's registry and wrapped in a [fleet.route]
    span; reads served by a replica carry a child [replica.read] span
    recording the routed-to replica's name, snapshot horizon and
    staleness at read time. *)

type t

type consistency =
  [ `Latest_safe  (** newest safe snapshot — serializable, may be stale *)
  | `Latest_applied  (** newest applied state — snapshot isolation only *)
  | `Bounded of int
    (** newest safe snapshot, but only from a replica within this many
        commits of the primary's frontier *)
  | `Deferrable
    (** wait for a safe snapshot at or after the primary's current
        frontier before reading (the §7.2 replica analogue of
        [BEGIN DEFERRABLE]); on the primary this runs a DEFERRABLE
        transaction when a scheduler is available *) ]

type policy = {
  max_staleness : int;
      (** replicas further than this many commits behind the primary's
          frontier are not routed to (checked against the frontier the
          chosen consistency mode reads from); [max_int] disables the
          check.  [`Bounded n] tightens it per-read. *)
  markdown_base : float;
      (** virtual seconds a replica stays down after its first failure *)
  markdown_multiplier : float;  (** backoff growth per consecutive failure *)
  markdown_max : float;  (** backoff ceiling in virtual seconds *)
  markdown_jitter : float;
      (** fraction of each mark-down period randomized (seeded), in
          [0..1] — spreads probes so a recovering fleet is not probed in
          lockstep *)
  session_deadline : float option;
      (** how long a replica read may wait (via {!Replica.wait_snapshot})
          for the safe frontier to reach a session token or a
          [`Deferrable] target before the attempt fails over; [None]
          fails over immediately instead of waiting *)
  retry : Ssi_engine.Engine.retry_policy;
      (** drives primary-side retries (reads and writes); its [retry_if]
          also narrows which {!Ssi_engine.Engine.retryable} replica
          failures fall back rather than propagate *)
}

val default_policy : policy
(** [max_staleness = max_int], mark-down 10ms..1s (×2, 50% jitter),
    [session_deadline = Some 1.0], [retry = Engine.default_retry_policy]. *)

val create : ?policy:policy -> ?seed:int -> primary:Ssi_engine.Engine.t -> unit -> t
(** A router over [primary] with an empty fleet.  [seed] feeds the
    router's private rng (replica choice, mark-down jitter); routing is
    a deterministic function of it.  Registers the [fleet.*] metrics in
    the primary's observability registry and a commit hook tracking the
    primary's commit frontier (and xid→cseq for session tokens). *)

val add_replica : t -> Replica.t -> unit
(** Add a replica to the fleet (initially healthy). *)

val remove_replica : t -> Replica.t -> unit
(** Drop a replica from the fleet (e.g. it was promoted to primary). *)

val set_primary : t -> Ssi_engine.Engine.t -> unit
(** Failover: route writes (and primary-fallback reads) to [db] from now
    on.  Bumps the session era — tokens minted against the old primary
    are reset rather than compared against the new lineage's cseqs
    ([fleet.session_resets] counts them).  In-flight {!write} calls
    notice the switch and re-enter against the new primary. *)

val primary : t -> Ssi_engine.Engine.t
val replicas : t -> Replica.t list
val healthy_replicas : t -> int
val obs : t -> Ssi_obs.Obs.t
(** The registry the [fleet.*] metrics live in (the creating primary's). *)

(** {1 Sessions} *)

type session
(** A client session: carries the causal token (commit cseq of the
    session's last write) that makes read-your-writes hold across
    routed reads.  Sessions are cheap; make one per logical client. *)

val session : t -> session
val session_token : session -> int
(** Commit cseq the session's reads must observe (0 = none yet). *)

(** {1 Read-only transactions} *)

type ro
(** Handle passed to a routed read-only body: a snapshot on whichever
    backend the router chose. *)

val backend : ro -> string
(** ["primary"] or the replica's name. *)

val ro_cseq : ro -> int
(** Snapshot horizon: every commit with cseq <= this is visible (the
    primary's exclusive snapshot horizon is normalized to this inclusive
    convention). *)

val ro_engine : ro -> Ssi_engine.Engine.t option
(** The physical engine serving this read when it was routed to the
    primary, [None] for replica-served reads — lets a harness attribute
    a read to a lineage by engine identity across failovers. *)

val read : ro -> table:string -> key:Ssi_storage.Value.t -> Ssi_storage.Value.t array option

val scan :
  ro -> table:string -> ?filter:(Ssi_storage.Value.t array -> bool) -> unit ->
  Ssi_storage.Value.t array list

val read_only :
  ?session:session -> ?consistency:consistency -> ?span:Ssi_obs.Obs.span ->
  t -> (ro -> 'a) -> 'a
(** Route one read-only transaction.  [f] may run more than once (on a
    different backend each time) when an attempt fails retryably, so it
    must be pure apart from reading through the {!ro}.  Raises only an
    error the policy does not retry, or the last error after the primary
    itself gives up. *)

val write :
  ?session:session -> ?isolation:Ssi_engine.Engine.isolation -> ?rng:Ssi_util.Rng.t ->
  ?span:Ssi_obs.Obs.span -> t -> (Ssi_engine.Engine.txn -> 'a) -> 'a
(** Run a read/write transaction on the current primary under the
    policy's retry machinery ([rng] jitters backoff as in
    [Engine.retry_with]).  On commit, [session]'s token advances to the
    commit's cseq.  If the primary is switched mid-retry (failover), the
    call re-enters against the new primary instead of burning its
    remaining attempts on the fenced one. *)

type write_info = {
  wi_backend : Ssi_engine.Engine.t;  (** the engine that committed it *)
  wi_xid : int;  (** the committed attempt's transaction id *)
  wi_cseq : int;
      (** its commit cseq per the router's frontier tracking (best
          effort: the frontier itself if the exact entry was evicted) *)
}

val write_info :
  ?session:session -> ?isolation:Ssi_engine.Engine.isolation -> ?rng:Ssi_util.Rng.t ->
  ?span:Ssi_obs.Obs.span -> t -> (Ssi_engine.Engine.txn -> 'a) -> 'a * write_info
(** As {!write}, additionally reporting which engine committed the
    transaction and under what id — the era attribution a chaos harness
    needs when a failover can land between attempts. *)
