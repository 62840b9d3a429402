(** Replica state machine: WAL application and serializable reads (§7.2).

    A {!t} applies committed transactions' changes in commit order,
    building a versioned copy of the primary's data.  Because SSI — unlike
    S2PL or classic OCC — does not guarantee that the commit order matches
    the apparent serial order, running a read-only query on an arbitrary
    replica snapshot can observe anomalies (the paper's REPORT example).
    The replica therefore tracks the {e safe-snapshot points} marked in
    the WAL stream and offers the three §7.2 options:

    - [`Latest_safe]: read from the most recent safe snapshot (possibly
      stale, but serializable);
    - [`Latest_applied]: read from the newest applied state — snapshot
      isolation only, may expose SSI anomalies (the "weaker isolation
      level" option);
    - waiting for the next safe snapshot is available through
      {!wait_snapshot} in simulation.

    Records reach a replica through one of two transports: {!attach}
    hooks the primary's in-process commit hook (a perfect, synchronous
    link — fine for examples and direct-mode tests), while {!Stream}
    feeds {!deliver} over the adversarial {!Ssi_net.Net} message network
    (loss, reordering, duplication, partitions) with sequence numbers,
    retransmission and epoch fencing. *)

open Ssi_storage

type t

val create : ?obs:Ssi_obs.Obs.t -> ?name:string -> unit -> t
(** A detached replica core: records are fed in with {!deliver} (what the
    streaming transport does).  Gauges are registered in [obs] (a private
    registry when omitted) under [replica.<name>.*]; [name] defaults to
    ["replica"]. *)

val attach : ?name:string -> Ssi_engine.Engine.t -> t
(** Create a replica fed synchronously by the primary's commit hook.
    Commit hooks are additive: attaching several replicas to one primary
    feeds them all.  Each replica reports [replica.<name>.apply_lag]
    (records held back by the configured lag), [replica.<name>.applied_cseq]
    and [replica.<name>.safe_cseq] gauges into the primary's observability
    registry; [name] defaults to ["r<N>"] with N the attach count, so
    multiple replicas never collide on gauge names. *)

val name : t -> string
val obs : t -> Ssi_obs.Obs.t

val deliver : t -> Ssi_engine.Engine.commit_record -> unit
(** Feed one commit record, in commit order.  The transport is responsible
    for ordering and exactly-once delivery ({!Stream} does gap detection
    and deduplication); [deliver] trusts its caller. *)

val reset : t -> unit
(** Drop all replica state (tables, frontiers, pending records): the
    replica is about to be re-seeded from a base snapshot, e.g. after
    re-subscribing to a new primary whose history diverged. *)

val applied_cseq : t -> int
(** Commit sequence number of the newest applied transaction. *)

val last_safe_cseq : t -> int
(** Newest safe-snapshot point seen in the stream (0 if none yet). *)

val set_apply_lag : t -> int -> unit
(** Hold back the last [n] commit records from application (simulates
    apply lag; default 0).  Records are applied as newer ones arrive. *)

val pending_records : t -> int
(** Records received but held back by the configured apply lag. *)

type rtxn
(** A read-only transaction on the replica: a fixed snapshot.  The
    snapshot is invalidated by {!promote} and {!reset}: reads through an
    rtxn opened before either raise a retryable [Engine.Transient_fault]
    instead of observing a store whose history diverged. *)

val set_recorder : t -> (Ssi_engine.Recorded.txn -> unit) option -> unit
(** Record this replica's read transactions ({!finish_read}) in the
    primary's history: versions are named by the xid of the primary commit
    that created them (versions of a base snapshot by xid [0], which no
    recorded writer has), horizons are exclusive, and each entry's gid
    ([<replica>#<n>]) keeps it apart from the primary's transactions. *)

val begin_read : t -> [ `Latest_safe | `Latest_applied ] -> rtxn
(** Open a snapshot.  [`Latest_safe] before any safe-snapshot point has
    arrived ([last_safe_cseq t = 0]) raises a retryable
    [Engine.Transient_fault] — the horizon-0 snapshot would silently read
    an empty database; callers (e.g. a read router) should fall back to
    another replica or the primary instead. *)

val snapshot_cseq : rtxn -> int

val read : rtxn -> table:string -> key:Value.t -> Value.t array option
(** Raises [Engine.Transient_fault] if the snapshot was invalidated by a
    {!promote} or {!reset} since [begin_read]. *)

val scan : rtxn -> table:string -> ?filter:(Value.t array -> bool) -> unit -> Value.t array list
(** Raises [Engine.Transient_fault] if the snapshot was invalidated, as
    {!read}. *)

val finish_read : rtxn -> unit
(** The read transaction is over: hand its reads to the recorder as one
    read-only entry.  No-op without a recorder. *)

val wait_snapshot : ?deadline:float -> t -> after:int -> int
(** In simulation: suspend until a safe snapshot with cseq > [after]
    appears, and return its cseq (the DEFERRABLE-style replica option).
    With [deadline] (virtual seconds from now), give up when it passes —
    raising a retryable [Engine.Transient_fault] instead of suspending
    forever, which is what happens to a deferrable replica read cut off
    from its primary by a partition. *)

type promotion = {
  engine : Ssi_engine.Engine.t;  (** the new primary *)
  promote_cseq : int;  (** the snapshot the new primary was built from *)
  discarded_commits : int;
      (** commits the replica had received but the chosen mode discarded
          (only [`Latest_safe] can discard: everything after the last
          safe point) *)
}

val promote : t -> primary:Ssi_engine.Engine.t -> [ `Latest_safe | `Latest_applied ] -> promotion
(** Failover: drain every record already received (even those held back by
    apply lag — WAL the replica holds must not be dropped by a promotion),
    build a fresh engine from the chosen snapshot and return it as the new
    primary.  Promoting at [`Latest_safe] yields a prefix of history that
    is guaranteed serializable (the §7.2 property), at the cost of
    discarding commits after the last safe point — the count is reported
    in {!promotion.discarded_commits}; [`Latest_applied] keeps everything
    applied but may expose SSI anomalies.  Schemas are copied from
    [primary] (the failed engine's in-memory catalog, standing in for the
    schema shipped in a base backup); the returned engine runs in direct
    mode with the default configuration.  Promotion invalidates every
    rtxn open on this replica (their reads raise a retryable
    [Engine.Transient_fault]); a [`Latest_safe] promotion itself never
    raises — with no safe point yet its snapshot is the empty history. *)
