(** WAL streaming over an unreliable network: stream positions, gap
    detection and retransmission, multi-replica fan-out, quorum-synchronous
    commit, and epoch fencing at failover.

    The paper ships safe-snapshot points "in the WAL stream" (§7.2) and
    leaves the stream itself to PostgreSQL's streaming replication.  Here
    the stream is first-class: a {!primary} ships [Wal.record]s — a base
    backup ({!Ssi_engine.Engine.backup}) at position 0, then every record
    the engine's log hook sees, DDL and commits alike — each stamped with
    the primary's epoch and a dense stream position, to its subscribers
    over a {!Ssi_net.Net}, which may drop, duplicate, reorder or
    partition.  A commit's span context travels in the message beside
    its record.  A {!subscription} reassembles the stream exactly once and
    in order for a {!Replica.t}:

    - records arriving in order are applied and acknowledged by position;
    - a gap parks later records out-of-order and sends a bounded number of
      NACKs asking for retransmission;
    - duplicates (network or retransmission overlap) are dropped;
    - a fresh or diverged subscriber is (re)seeded from position 0, the
      base backup, then streamed the records after it.

    {b Epochs and fencing.}  Every stream message carries the primary's
    epoch.  Failover ({!promote}) turns a replica's engine into the
    primary at [epoch + 1]; it ships the log the replica applied (less
    the commits the promotion rolled back) and then its own, so its
    subscribers replay one lineage.  Subscribers adopt the higher epoch
    and from then on reject the deposed primary's stale stream, replying
    with its new epoch.  A deposed primary learns of its fencing from any
    such reply and from then on {e refuses new commits} (its commit gate
    raises a retryable [Engine.Transient_fault]) — after a partition heals
    there is no split-brain: at most one primary accepts writes.

    {b Quorum commit.}  With a {!quorum} configured, the primary holds
    each commit acknowledgment until [k] subscribers have acked the
    commit's position, or until [deadline] virtual seconds pass — in
    which case the commit degrades to asynchronous (counted in
    [stream.quorum_timeouts]) rather than blocking forever under a
    partition.

    Primary-side metrics (in the engine's registry): [stream.wal_sent],
    [stream.retransmits], [stream.quorum_waits], [stream.quorum_timeouts],
    [stream.quorum_wait] (histogram of ack-wait latency), [stream.epoch]
    (gauge).  Subscriber-side (in the replica core's registry):
    [stream.<name>.dups_dropped], [stream.<name>.nacks],
    [stream.<name>.fenced_rejects], [stream.<name>.resyncs]. *)

module E = Ssi_engine.Engine

type msg
(** The stream protocol: positioned log records, acks, nacks, subscribe
    requests and fencing rejections. *)

type net = msg Ssi_net.Net.t

type quorum = { k : int; deadline : float }
(** Hold each commit ack for [k] subscriber acks, at most [deadline]
    virtual seconds.  Requires a simulation scheduler. *)

type primary
type subscription

val make_primary : net -> node:string -> epoch:int -> ?quorum:quorum -> E.t -> primary
(** Turn [engine] into a streaming primary on network node [node] (the
    node is registered if new, its handler replaced if it already exists).
    Takes the engine's base backup for late or diverged subscribers, and
    installs the log-shipping hook, the fencing commit gate, and (with
    [quorum]) the quorum-commit acknowledgment hold. *)

val epoch : primary -> int
val primary_node : primary -> string
val engine : primary -> E.t

val is_deposed : primary -> bool
(** The primary has seen evidence of a higher epoch: it is fenced and
    refuses new commits. *)

val last_cseq : primary -> int
(** The cseq of the newest commit (or base backup) in the shipped log. *)

val subscribers : primary -> (string * int) list
(** [(node, acked stream position)] per subscriber, in subscription order;
    [-1] before it holds the base backup. *)

val retransmit_unacked : primary -> unit
(** Resend every shipped record past each subscriber's acked position —
    the operator-driven catch-up used after a partition heals (the
    in-protocol NACK path is bounded so that a permanent partition cannot
    generate traffic forever). *)

val subscribe : net -> node:string -> primary_node:string -> epoch:int -> Replica.t -> subscription
(** Register [node] on the network feeding the given replica core, and ask
    [primary_node] for the stream from the beginning (base backup, then
    every record after it).  A gap is NACKed and the NACK renewed after
    [1e-3] virtual seconds without a retransmission, at most 16 times per
    gap, so a permanent partition cannot loop forever. *)

val core : subscription -> Replica.t
val sub_node : subscription -> string

val sync : subscription -> unit
(** Ask the current primary to retransmit past this subscriber's applied
    position (or from the base backup if never seeded) — the
    operator-driven catch-up after a heal, complementing
    {!retransmit_unacked} from the primary side. *)

val resubscribe : subscription -> primary_node:string -> epoch:int -> unit
(** Point the subscription at a (new) primary: reset the replica core,
    adopt [epoch] and request the stream from its base backup.  Used for replicas whose state may have diverged from the new
    primary's history (e.g. they applied commits the promotion discarded). *)

type failover = { new_primary : primary; promotion : Replica.promotion }

val promote : subscription -> ?quorum:quorum -> [ `Latest_safe | `Latest_applied ] -> failover
(** Fenced failover: promote this subscription's replica
    ({!Replica.promote}) and turn its engine into a streaming primary on
    the same network node at the subscription's epoch + 1, shipping the
    log the replica applied, less the commits the promotion rolled back.
    Other replicas adopt the new epoch when its stream reaches them (or
    explicitly via {!resubscribe}); the deposed primary is fenced as soon
    as any subscriber rejects its stale stream. *)
