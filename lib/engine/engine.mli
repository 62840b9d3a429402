(** The database engine: an in-memory multiversion relational store with
    four isolation levels, reproducing PostgreSQL 9.1's concurrency
    control as described in the paper.

    {ul
    {- [Read_committed]: snapshot per statement.}
    {- [Repeatable_read]: snapshot isolation — one snapshot per transaction,
       first-updater-wins write conflicts (PostgreSQL's pre-9.1
       "SERIALIZABLE").}
    {- [Serializable]: SSI — snapshot isolation plus rw-antidependency
       tracking and dangerous-structure aborts (the paper's contribution).}
    {- [Serializable_2pl]: the strict two-phase-locking baseline of §8,
       built on the heavyweight lock manager with multigranularity and
       index-range locks.}}

    Transactions are cooperative: in simulation the engine suspends callers
    that must wait (write-lock waits, S2PL lock waits, deferrable
    admission) through the scheduler passed to {!create}; in direct
    (non-simulated) use those situations fail with {!Lock_not_available}.
    SSI itself never blocks.

    Every table implicitly maintains a primary-key B+-tree index
    ("[<table>_pkey]"), which is what gives point reads and inserts
    phantom protection via index-gap SIREAD locks. *)

open Ssi_storage

type isolation = Read_committed | Repeatable_read | Serializable | Serializable_2pl

val isolation_to_string : isolation -> string
(** The SQL name: ["READ COMMITTED"], ["REPEATABLE READ"], ["SERIALIZABLE"]
    or ["SERIALIZABLE (2PL)"]. *)

val pp_isolation : Format.formatter -> isolation -> unit
(** Prints {!isolation_to_string}. *)

include module type of struct
  include Ssi_util.Db_error
end
(** Every failure a client can cause or must handle is [Error e]
    ({!Ssi_util.Db_error}); {!retryable} says whether to retry the whole
    transaction at once, as {!retry_with} does.  The [Invalid_argument]s
    left are programmer errors: an operation on a finished or prepared
    transaction, or an index scanned through another table. *)

(** Virtual-time costs, charged through the scheduler so that benchmarks
    can model CPU-bound and disk-bound configurations.  All zero by
    default (no charging). *)
type costs = {
  cpu_per_op : float;  (** base CPU per DML call *)
  cpu_per_tuple : float;  (** per tuple version visited *)
  cpu_per_lock : float;
      (** per SIREAD lock / conflict check (SSI) or per heavyweight lock
          (S2PL): the read-tracking overhead of §8.1 *)
  io_per_page : float;  (** per buffer-cache miss *)
  miss_ratio : float;  (** probability a page access misses the cache *)
  io_commit : float;  (** WAL flush at commit *)
}

val zero_costs : costs

type config = {
  certifier : Ssi_core.Certifier.config;
      (** Which serializability certifier the engine runs ([kind]: the
          paper's SSI by default, the Serial Safety Net, or its extended
          variant) and its settings.  SSI is the only certifier with safe
          snapshots, so [BEGIN DEFERRABLE] is rejected under the others. *)
  tuples_per_page : int;
  btree_order : int;
  next_key_gaps : bool;
      (** Use next-key index-gap SIREAD locks instead of leaf-page locks —
          the refinement the paper names as future work (§5.2.1).  Finer
          gaps mean fewer false-positive conflicts. *)
  costs : costs;
  charge_cpu : (float -> unit) option;
      (** Defaults to the scheduler's [charge]. *)
  charge_io : (float -> unit) option;
}

val default_config : config

type t
type txn

val create :
  ?scheduler:Ssi_util.Waitq.scheduler -> ?config:config -> ?obs:Ssi_obs.Obs.t -> unit -> t
(** With no scheduler, the engine runs in direct mode: operations that
    would block fail with {!Lock_not_available}.  [obs] is the observability
    registry shared by every layer of this engine (SSI manager, predicate
    and heavyweight lock managers, and the engine itself); a private one
    is created when omitted.  The registry's clock is pointed at the
    scheduler's virtual clock. *)

val set_on_log : t -> (Ssi_wal.Wal.record -> Ssi_obs.Obs.span_ctx option -> unit) -> unit
(** Register a log-shipping hook.  It sees, in log order, every
    [Wal.Schema] and [Wal.Index] record this engine's DDL writes and one
    [Wal.Commit] per commit, the last with the context of its commit span
    so that a replica's apply span can be parented across the network.
    Its [c_safe] marks a safe-snapshot point: no read/write serializable
    transaction was active when the commit completed (§7.2).  Hooks run in
    registration order; replication registers one, observers (chaos
    harness, tests) may register more. *)

val set_on_wait : t -> (waiter:Heap.xid -> holder:Heap.xid -> unit) -> unit
(** Install the hook run before [waiter] waits for the write lock of an
    unprepared [holder], after the local deadlock check.  It may {!abort}
    or {!wound} the holder: the waiter waits only for an unfinished one. *)

val set_recorder : t -> (Recorded.txn -> unit) option -> unit
(** Attach (or detach) a history recorder.  From now on every transaction
    that commits is handed to it as one {!Recorded.txn}, at its commit
    point: its point reads (with the creator xid of the version returned,
    or absent), its index and sequential scans as predicate reads, and
    one write per row it changed, with the old and new index keys.  COMMIT
    PREPARED entries carry their gid.  Aborted and crashed attempts leave
    nothing.  [Ssi_check.Dsg] checks the entries.  Detached (the default),
    the recorder costs each operation one branch and allocates nothing. *)

val recording : t -> bool
(** A recorder is attached. *)

val tag : txn -> string -> unit
(** Name the transaction's recorded entry: it carries [gid = Some name]
    unless it commits through 2PC under a gid of its own.  A sharded
    coordinator tags every branch of a global transaction alike, so the
    shards' histories join on it.  No-op without a recorder. *)

val set_commit_gate : t -> (unit -> unit) option -> unit
(** Install (or clear) a pre-commit gate, run at the commit point of every
    transaction (after the fault point, before the serialization check).
    Raising {!Transient_fault} there rejects the commit and rolls the
    transaction back — how a fenced (deposed) primary refuses writes its
    cluster would discard. *)

val set_commit_wait : t -> (int -> unit) option -> unit
(** Install (or clear) a post-commit acknowledgment hold, called with the
    commit's cseq.  It runs after the commit is locally durable and its
    record reached the log hooks, and may suspend the committing session
    (quorum-synchronous replication waits here for replica acks).  Raising
    is not allowed: the commit has already happened.  Only invoked when a
    log hook is installed. *)

val set_fault_injector : t -> (op:string -> unit) option -> unit
(** Install (or clear) a fault injector.  The injector is invoked at the
    fault point of every data operation, [commit] and [prepare] with the
    operation's name; raising {!Transient_fault} there aborts the calling
    transaction and surfaces the fault to the client.  Faults are never
    injected after the commit point, so an acknowledged commit is durable
    and a faulted attempt wrote nothing — retrying is always safe. *)

(** {1 Schema} *)

val create_table : t -> name:string -> cols:string list -> key:string -> unit

val create_index :
  t -> table:string -> name:string -> column:string -> ?predicate_locks:bool ->
  ?next_key_gaps:bool -> unit -> unit
(** [predicate_locks:false] models an index access method without
    predicate-lock support: scans fall back to a whole-index SIREAD lock
    (§7.4).  [next_key_gaps] overrides the engine-wide default for this
    index. *)

val drop_index : t -> name:string -> unit
(** Replaces index-gap SIREAD locks with relation locks on the heap
    (§5.2.1).  The drop is logged like the index's creation, so
    {!redo} drops it on a replica and in a recovered engine. *)

val recluster : t -> table:string -> unit
(** Rewrites the table (like CLUSTER / ALTER TABLE): physical locations
    change, so page- and tuple-granularity SIREAD locks are promoted to
    relation granularity (§5.2.1). *)

(** {1 Transactions} *)

val begin_txn :
  ?isolation:isolation -> ?read_only:bool -> ?deferrable:bool ->
  ?span:Ssi_obs.Obs.span -> t -> txn
(** Default isolation is [Serializable].  [~deferrable:true] (with
    [~read_only:true], serializable) blocks until a safe snapshot is
    available (§4.3); it requires a scheduler.

    [span] is the observability span engine operations report under
    (each data operation, the commit and any lock wait become child
    spans of it, and the SSI/lock layers attach conflict events to it);
    when omitted the engine opens — and finishes — a root [txn] span of
    its own, so every transaction belongs to some trace. *)

val commit : txn -> unit
(** On any [Error], such as a {!Serialization_failure} at the pre-commit
    check, the transaction is rolled back before the error is raised. *)

val abort : txn -> unit
(** Roll back.  Idempotent on already-finished transactions. *)

val wound : txn -> unit
(** Its next step fails retryably; a tuple-write wait it is in ends now. *)

val xid : txn -> Heap.xid
val is_finished : txn -> bool
(** Any further operation but {!abort} is a programmer error.  A
    transaction that vanished in {!simulate_connection_loss} is not
    finished: its next operation fails with {!Transient_fault}. *)

val begin_snapshot : t -> xid:Heap.xid -> horizon:int -> txn
(** A standby's read (§7.2): a read-only REPEATABLE READ transaction that
    sees exactly the commits with cseq below [horizon].  Its owner [xid]
    must be negative, an id no clog hands out, so that a primary commit
    redone later with a freshly allocated xid never counts as its own
    write.  It has no certifier node, and {!commit} consumes no cseq: the
    recorded entry carries [horizon] as its cseq. *)

val snapshot_cseq : txn -> int
(** Commit-sequence horizon of the transaction's snapshot: every commit
    with cseq {e strictly below} this is visible (for
    snapshot-per-transaction isolation levels; statement-snapshot levels
    report the current statement's horizon). *)

val engine_of : txn -> t
(** The engine this transaction runs on — lets a multi-primary harness
    (e.g. a failover test) attribute a transaction to its lineage by
    physical engine identity. *)

val snapshot_is_safe : txn -> bool
(** For serializable read-only transactions: the §4.2 safe-snapshot
    property has been established and SSI tracking dropped. *)

(** {1 Savepoints (§7.3)} *)

val savepoint : txn -> string -> unit
val rollback_to_savepoint : txn -> string -> unit
(** Undoes data changes since the savepoint and drops their redo ops from
    the commit record, in time linear in the changes undone.  SIREAD locks
    acquired in the subtransaction are retained, as the paper requires. *)

val release_savepoint : txn -> string -> unit

(** {1 Two-phase commit (§7.1)} *)

val prepare : txn -> gid:string -> unit
(** Runs the pre-commit serialization check; afterwards the transaction
    can no longer be aborted by conflict resolution.  A failed PREPARE,
    such as a duplicate [gid], rolls the transaction back. *)

val commit_prepared : t -> gid:string -> unit
val rollback_prepared : t -> gid:string -> unit

val prepared_gids : t -> string list
(** Sorted by gid, so recovery reports and coordinator recovery scans are
    byte-identical across runs. *)

val mark_prepared_conservative : t -> gid:string -> unit
(** Close the prepared transaction's local conflict window with the §7.1
    conservative flags: its remote rw edges are invisible to this engine's
    certifier, so local transactions forming new edges with it during the
    distributed coordinator's decision window must give way.  The flags
    are set here and by crash recovery only; a summarized conflict
    partner leaves its edge on the transaction instead (§6.2), which
    {!conflicts} reports.  Read {!conflicts} {e first} when the report
    should hold the state at prepare time, not the conservatism added
    here. *)

val conflicts : txn -> Ssi_core.Certifier.conflicts
(** The transaction's rw-antidependency flags from its certifier node
    ({!Ssi_core.Certifier.S.conflicts}), valid after commit too: what a
    2PC participant piggybacks on its prepare- and commit-acks (§7.1).
    All [false] for a transaction the certifier does not track (not
    serializable, or on a safe snapshot). *)

val simulate_connection_loss : t -> unit
(** Simulate a backend crash without losing server state: in-flight
    transactions vanish, prepared transactions survive with conservative
    SSI flags (§7.1).  Sessions still holding a handle to a vanished
    transaction see {!Transient_fault} ("connection lost") on their next
    operation, so a retry loop recovers them; suspended lock waiters are
    woken.  Cold-start recovery that rebuilds the server from its durable
    log is {!recover}. *)

(** {1 Durability (WAL)}

    With a durable log {!attach_wal}ed, every commit/prepare/abort is
    framed, checksummed and staged on the device, and the acknowledgment
    waits for the group-commit flush that makes it durable.  Commit records
    are appended with no suspension point after the commit point, so log
    order is cseq order — recovery's truncation of a damaged tail always
    leaves a dense prefix of commit history. *)

val attach_wal : t -> Ssi_wal.Wal.t -> unit
(** Attach the durable log.  From now on commits block until their record
    is flushed; the log's [wal.*] metrics move into this engine's
    registry. *)

val checkpoint : t -> unit
(** Write a checkpoint record — a consistent image of every table at the
    current commit horizon plus the prepared-transaction state — and flush
    it.  Recovery replays only the records after the latest checkpoint.
    Captured atomically (no suspension point), so the image is exact.
    No-op without an attached log. *)

val backup : t -> Ssi_wal.Wal.record
(** A base backup: the [Wal.Checkpoint] image {!checkpoint} would log —
    every table, its secondary indexes and its rows at the current commit
    horizon — without the prepared transactions, which reach a standby as
    their COMMIT PREPARED records.  Works without an attached log. *)

val redo : t -> base_xid:Heap.xid -> Ssi_wal.Wal.record -> unit
(** Apply one log record, as {!recover} does for each record from the
    latest checkpoint on and as a standby does for its primary's stream:
    DDL, a checkpoint image (its rows created by [base_xid], committed at
    its horizon), and commits under their original xid and cseq.  The
    undo entries of the commits redone since the last safe-point commit
    are kept for {!rollback_unsafe}. *)

val rollback_unsafe : t -> int
(** Take back every commit {!redo}ne since the last safe-point commit,
    newest first, and mark its xid aborted; returns how many.  A standby
    promoted at its latest safe snapshot runs it (§7.2). *)

val note_epoch : t -> int -> unit
(** Record the replication epoch this node adopted as primary, so a
    recovered node resumes at a higher epoch.  No-op without an attached
    log. *)

type recovery_report = {
  rr_records : int;  (** log records replayed (after the checkpoint) *)
  rr_truncated : int;  (** damaged tail bytes truncated *)
  rr_prepared : int;  (** prepared transactions restored *)
  rr_checkpoint_cseq : int option;  (** horizon of the checkpoint used *)
  rr_last_cseq : int;  (** highest commit sequence number recovered *)
  rr_epoch : int;  (** last adopted replication epoch; [0] if none *)
}

val recover :
  ?scheduler:Ssi_util.Waitq.scheduler -> ?config:config -> ?obs:Ssi_obs.Obs.t ->
  Ssi_wal.Wal.t -> t * recovery_report
(** Cold-start recovery: build a fresh engine from the durable log alone.
    The damaged tail (torn write, CRC failure) is truncated; the latest
    checkpoint image is installed; every later commit is redo-replayed in
    cseq order; prepared transactions are reinstated with their SIREAD
    locks and conservative conflict flags (§5.7, §7.1), awaiting
    [commit_prepared] / [rollback_prepared].  The log is reopened and
    attached to the new engine, which resumes appending after the valid
    prefix.  Registers [recovery.records_replayed],
    [recovery.tail_truncated] and [recovery.prepared_restored] counters. *)

(** {1 Data access} *)

val insert : txn -> table:string -> Value.t array -> unit
(** Fails with {!Unique_violation} when the primary key already exists. *)

val read : txn -> table:string -> key:Value.t -> Value.t array option
(** Point read by primary key. *)

val update : txn -> table:string -> key:Value.t -> f:(Value.t array -> Value.t array) -> bool
(** Read-modify-write of one row; [false] when the key is not visible.
    The primary key must not be changed by [f]. *)

val delete : txn -> table:string -> key:Value.t -> bool

val index_scan :
  txn -> table:string -> index:string -> lo:Value.t -> hi:Value.t -> Value.t array list
(** Range scan via a secondary (or primary) index, in key order. *)

val seq_scan : txn -> table:string -> ?filter:(Value.t array -> bool) -> unit -> Value.t array list
(** Full-table scan; takes a relation-granularity SIREAD (or S2PL shared)
    lock. *)

val row_count : txn -> table:string -> int
(** [List.length (seq_scan ...)] convenience. *)

(** {1 Helpers} *)

val with_txn :
  ?isolation:isolation -> ?read_only:bool -> ?deferrable:bool ->
  ?span:Ssi_obs.Obs.span -> t -> (txn -> 'a) -> 'a
(** Run, commit on return, abort on exception.  [span] as in
    {!begin_txn}. *)

(** Client-side resilience policy for {!retry_with}: how many times to
    retry, how long to back off between attempts (charged as virtual time
    through the scheduler), and which {!retryable} errors to retry. *)
type retry_policy = {
  max_attempts : int;  (** total attempts, including the first; >= 1 *)
  backoff_base : float;
      (** virtual seconds charged before the second attempt; [0.] retries
          immediately (the paper's §5.4 safe-retry assumption) *)
  backoff_multiplier : float;  (** exponential growth factor per failure *)
  backoff_max : float;  (** backoff ceiling in virtual seconds *)
  jitter : float;
      (** fraction of each backoff randomized, in [0..1]: the charged wait
          is uniform in [b*(1-jitter), b].  Needs the [rng] argument of
          {!retry_with}; without one the full backoff is charged. *)
  deadline : float option;
      (** per-transaction time budget: once this much virtual time has
          passed since the first attempt, the next failure is fatal *)
  retry_if : error -> bool;  (** narrows {!retryable}: retry when both hold *)
}

val default_retry_policy : retry_policy
(** 100 attempts, no backoff, no deadline; retries every {!retryable}
    error. *)

val retry_with :
  ?isolation:isolation -> ?read_only:bool -> ?deferrable:bool ->
  ?policy:retry_policy -> ?rng:Ssi_util.Rng.t -> ?span:Ssi_obs.Obs.span ->
  t -> (txn -> 'a) -> 'a
(** Like {!with_txn} but governed by [policy]: retryable failures restart
    [f] in a fresh transaction after the policy's backoff; the last failure
    is re-raised once attempts or the deadline run out (counted in
    [stats.giveups]).  [rng] seeds the backoff jitter.

    [span] is the logical transaction's root span (it survives retries);
    each attempt then runs under its own [txn.attempt] child span, so a
    retry storm is visible as a fan of failed attempts under one root. *)

val retry :
  ?isolation:isolation -> ?read_only:bool -> ?deferrable:bool -> ?max_attempts:int ->
  t -> (txn -> 'a) -> 'a
(** [retry_with] under {!default_retry_policy} (immediate retries) — the
    middleware retry loop the paper assumes (§3, §5.4).  Raises the last
    failure after [max_attempts] (default 100). *)

(** {1 Maintenance and introspection} *)

val vacuum : t -> unit
(** Prune dead tuple versions no live snapshot can see. *)

val obs : t -> Ssi_obs.Obs.t
(** The engine's observability registry.  Engine-level metrics:
    [engine.begins], [engine.commits], [engine.aborts],
    [engine.serialization_failures] (counted per failed attempt in
    {!retry_with}), [engine.write_conflicts], [engine.deadlocks],
    [engine.retries], [engine.giveups], [engine.faults_injected], and
    per-operation virtual-time latency histograms
    [engine.latency.read|index_scan|seq_scan|insert|update|delete|commit].
    The same registry carries the [ssi.*], [predlock.*] and [lockmgr.*]
    metrics of the layers below, and trace events ([txn.commit] with
    [xid], [cseq] and, for COMMIT PREPARED, [gid]; [txn.abort],
    [txn.serialization_failure], [txn.giveup], [fault], [crash],
    [ssi.*]).  This event log is the engine's only debug channel.
    Windowed readings come from [Obs.snap] plus the
    [Obs.delta_*] accessors, which replaced the old mutable stats
    records. *)

val certifier : t -> Ssi_core.Certifier.packed
(** The engine's certifier instance with its implementation: unpack it as
    [let (Certifier.Cert ((module C), c)) = certifier db in C.dump_graph c]
    to introspect through {!Ssi_core.Certifier.S}. *)

val certifier_kind : t -> Ssi_core.Certifier.kind
val config : t -> config

val predicate_locks : t -> Ssi_core.Predlock.t
(** The certifier's SIREAD lock table. *)

val active_transactions : t -> int
val table_names : t -> string list

val table_schema : t -> table:string -> Schema.t
(** Fails with {!Undefined_object} for unknown tables. *)

val table_indexes : t -> table:string -> (string * string) list
(** [(index name, indexed column)] for every index on the table, the
    primary-key index first. *)

exception Serialization_failure of error
exception Transient_fault of error
(** Aliases of {!Error}, each matching every [Error _], kept while
    [perfbench/workloads.ml] catches sharded aborts by these names. *)
