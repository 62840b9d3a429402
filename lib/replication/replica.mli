(** Replica: a standby engine replaying its primary's log, with
    serializable reads on the safe snapshots the log marks (§7.2).

    A {!t} owns an {!Ssi_engine.Engine.t} in redo mode: it applies the
    primary's log records — a base backup ([Wal.Checkpoint]), then the
    [Wal.Schema], [Wal.Index] and [Wal.Commit] records in log order —
    through {!Ssi_engine.Engine.redo}, the replay step recovery runs, so
    commits keep the primary's xids and cseqs and the standby keeps its
    indexes.  Because SSI — unlike S2PL or classic OCC — does not
    guarantee that the commit order matches the apparent serial order,
    reading an arbitrary applied position can observe anomalies (the
    paper's REPORT example).  The replica therefore tracks the
    {e safe-snapshot points} marked on commit records and offers the
    three §7.2 options:

    - [`Latest_safe]: read from the most recent safe snapshot (possibly
      stale, but serializable);
    - [`Latest_applied]: read from the newest applied state — snapshot
      isolation only, may expose SSI anomalies (the "weaker isolation
      level" option);
    - waiting for the next safe snapshot is available through
      {!wait_snapshot} in simulation.

    Records reach a replica through one of two transports: {!attach}
    ships the primary's base backup and then hooks its log in process (a
    perfect, synchronous link — fine for examples and direct-mode tests),
    while {!Stream} feeds {!deliver} over the adversarial
    {!Ssi_net.Net} message network (loss, reordering, duplication,
    partitions) with stream positions, retransmission and epoch
    fencing. *)

module E := Ssi_engine.Engine

type t

val create : ?obs:Ssi_obs.Obs.t -> ?name:string -> ?config:E.config -> unit -> t
(** A detached replica: records are fed in with {!deliver} (what the
    streaming transport does).  Its standby engine is made by
    [E.create ~config] with its own registry, so replica reads move none
    of the primary's [engine.*] metrics, and it charges no virtual time.
    Gauges are registered in [obs] (a private registry when omitted)
    under [replica.<name>.*]; [name] defaults to ["replica"]. *)

val attach : ?name:string -> E.t -> t
(** Create a replica of the primary's configuration, seed it with the
    primary's {!E.backup} and feed it synchronously from the primary's
    log hook.  Hooks are additive: attaching several replicas to one
    primary feeds them all.  Each replica reports [replica.<name>.apply_lag]
    (records held back by the configured lag), [replica.<name>.applied_cseq]
    and [replica.<name>.safe_cseq] gauges into the primary's observability
    registry; [name] defaults to ["r<N>"] with N the attach count, so
    multiple replicas never collide on gauge names. *)

val name : t -> string
val obs : t -> Ssi_obs.Obs.t

val deliver : t -> ?span:Ssi_obs.Obs.span_ctx -> Ssi_wal.Wal.record -> unit
(** Feed one log record, in log order; [span] is the context of the
    commit span that produced it.  The transport is responsible for
    ordering and exactly-once delivery ({!Stream} does gap detection and
    deduplication); [deliver] trusts its caller.  After {!promote} it
    ignores everything. *)

val reset : t -> unit
(** Drop all replica state (a fresh standby engine, frontiers, pending
    records): the replica is about to be re-seeded from a base backup,
    e.g. after re-subscribing to a new primary whose history diverged.
    Reads open on the old engine fail with a retryable
    [E.Transient_fault]. *)

val applied_cseq : t -> int
(** Commit sequence number of the newest applied commit (or base backup). *)

val last_safe_cseq : t -> int
(** Newest safe-snapshot point seen in the stream (0 if none yet). *)

val set_apply_lag : t -> int -> unit
(** Hold back the last [n] records from application (simulates apply
    lag; default 0).  Records are applied as newer ones arrive. *)

val pending_records : t -> int
(** Records received but held back by the configured apply lag. *)

val set_recorder : t -> (Ssi_engine.Recorded.txn -> unit) option -> unit
(** Record this replica's read transactions in the primary's history:
    versions are named by the xid of the primary commit that created
    them (the rows of a base backup by a negative xid, which no recorded
    writer has), and each entry's gid ([<replica>#<n>]) keeps it apart
    from the primary's transactions. *)

val begin_read : t -> [ `Latest_safe | `Latest_applied ] -> E.txn
(** Open a read-only snapshot on the standby ({!E.begin_snapshot}) at the
    chosen horizon: read it with [E.read], [E.seq_scan] or
    [E.index_scan], end it with [E.commit] (which hands it to the
    recorder) or [E.abort].  [`Latest_safe] before any safe-snapshot
    point has arrived ([last_safe_cseq t = 0]), and [`Latest_applied]
    before the base backup, raise a retryable [E.Transient_fault]: the
    empty snapshot would silently read an empty database, so callers
    (e.g. a read router) should fall back to another replica or the
    primary instead.  A read still open when the replica is promoted or
    reset fails retryably at its next step. *)

val wait_snapshot : ?deadline:float -> t -> after:int -> int
(** In simulation: suspend until a safe snapshot with cseq > [after]
    appears, and return its cseq (the DEFERRABLE-style replica option).
    With [deadline] (virtual seconds from now), give up when it passes —
    raising a retryable [E.Transient_fault] instead of suspending
    forever, which is what happens to a deferrable replica read cut off
    from its primary by a partition. *)

type promotion = {
  engine : E.t;  (** the new primary: the standby engine itself *)
  promote_cseq : int;  (** the newest commit the new primary holds *)
  discarded_commits : int;
      (** commits the replica had applied but the chosen mode rolled back
          (only [`Latest_safe] can discard: everything after the last
          safe point) *)
}

val promote : t -> [ `Latest_safe | `Latest_applied ] -> promotion
(** Failover: drain every record already received (even those held back
    by apply lag — WAL the replica holds must not be dropped by a
    promotion), stop applying, and hand over the standby engine as the
    new primary, with the primary's xids, cseqs, indexes and
    configuration.  [`Latest_applied] keeps everything applied but may
    expose SSI anomalies.  [`Latest_safe] yields a prefix of history that
    is guaranteed serializable (the §7.2 property): it rolls back the
    commits past the last safe point ({!E.rollback_unsafe}) and marks
    their xids aborted, so a new transaction can write their keys; the
    count is {!promotion.discarded_commits}.  Before any safe commit
    arrives, the safe point is the base backup.  Reads open on the
    standby fail retryably at their next step; a promotion itself never
    raises. *)
