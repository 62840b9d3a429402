(** Cross-shard SSI: hash-partitioned engines behind a 2PC coordinator.

    A {!t} is [N] independent {!Ssi_engine.Engine} instances, one per
    shard, each running its own certifier, plus a commit coordinator.
    Relations are hash-partitioned by primary key, so every key — and
    therefore every rw-antidependency {e edge} — lives on exactly one
    shard.  What crosses shards is the {e path} through a distributed
    transaction: an edge into its branch on shard [a] and an edge out of
    its branch on shard [b] form a dangerous-structure pivot no single
    certifier can see.

    The control plane speaks the seeded adversarial {!Ssi_net.Net}
    network (one node per shard plus the coordinator), so prepares,
    commit decisions and aborts can be delayed, dropped, duplicated or
    partitioned — the coordinator retransmits until each phase completes,
    and every shard-side handler is idempotent.  The data plane
    (reads/writes) is colocated and does not traverse the network.

    Certification of the cross-shard structures (paper §5.7 / §7.1
    applied to sharding):

    - single-shard transactions commit directly on their shard (fast
      path) — the local certifier is exact;
    - multi-shard writers run the engine's 2PC.  Each participant's
      prepare-ack carries its shard number and its branch's SSI conflict
      flags ({!Ssi_engine.Engine.conflicts}: an rw edge in, one out, and
      the §7.1 conservative bit of crash recovery), read from the
      branch's certifier node at prepare time.  An edge to a conflict
      partner that was summarized (§6.2) still counts.  The coordinator
      aborts the transaction as a potential pivot when some shard reports
      an in-conflict and a {e different} shard an out-conflict (same-shard
      pairs were already subjected to the local precommit test).  A
      conservative participant counts as both;
    - immediately after acking, each participant closes its local window
      ({!Ssi_engine.Engine.mark_prepared_conservative}): edges formed
      against the prepared branch while the coordinator deliberates make
      the {e edge-former} give way, exactly as after crash recovery;
    - commit-acks carry the same flags read after the commit, so edges
      that appeared during the window are visible post-hoc
      ([shard.window_edges] and the [shard.window_edge] trace).

    The coordinator's commit-decision sequence ("commit timestamp") is a
    linear extension of every shard's per-key write order.  Every branch
    is tagged ({!Ssi_engine.Engine.tag}) with its global transaction's gid,
    so the shards' recorded histories join into one DSG.

    Metrics (prefix [shard.]): [shard.fastpath], [shard.readonly],
    [shard.twopc], [shard.commits], [shard.aborts],
    [shard.cross_aborts], [shard.participant_aborts],
    [shard.conservative_fallbacks], [shard.window_edges],
    [shard.retransmits], [shard.indoubt_commits], [shard.indoubt_aborts],
    [shard.wounds] (wound-wait aborts, see {!create}),
    and the [shard.decision_wait] histogram; [shard.twopc] spans wrap
    each distributed commit with its [net.msg] hops as children. *)

open Ssi_storage
module E = Ssi_engine.Engine

type t

val create :
  ?obs:Ssi_obs.Obs.t -> ?config:E.config -> ?rto:float -> shards:int -> seed:int -> unit -> t
(** Build the sharded system: [shards] engines (sharing [obs]), the
    coordinator, and the network connecting them.  [rto] is the
    coordinator's retransmission timeout in virtual seconds (default
    [1e-3]).  All randomness (network adversity) derives from [seed].

    Each engine breaks waits-for cycles among its own transactions; none
    can run through several, by wound-wait on gxid age.  A gtxn about to
    wait for a younger, uncommitting gtxn's write lock wounds it instead:
    the younger one's op in flight fails with a retryable serialization
    failure and its other branches abort at once. *)

val shards : t -> int
val engines : t -> E.t array
val obs : t -> Ssi_obs.Obs.t

val net_ops : t -> Ssi_net.Net.ops
(** Type-erased control surface of the coordinator network — the
    [net_ops] target for {!Ssi_fault.Fault} partitions and chaos. *)

val shard_of_key : t -> Value.t -> int
(** The hash partition owning [key]; deterministic within a binary. *)

val create_table : t -> name:string -> cols:string list -> key:string -> unit
(** Broadcast DDL: creates the table on every shard. *)

val seed_rows : t -> table:string -> rows:Value.t array list -> unit
(** Load rows into their owning shards, one local transaction per shard
    (the oracle's setup writer, xid 1 on every shard).  Must be the first
    transaction on each engine. *)

(** {1 Distributed transactions} *)

type gtxn

val begin_txn : t -> gtxn
val gxid : gtxn -> int
(** Globally unique transaction id (starts at 2; 1 is the seed writer). *)

val read : gtxn -> table:string -> key:Value.t -> Value.t array option
val insert : gtxn -> table:string -> Value.t array -> unit
val update : gtxn -> table:string -> key:Value.t -> f:(Value.t array -> Value.t array) -> bool
val delete : gtxn -> table:string -> key:Value.t -> bool

val touched : gtxn -> int list
(** Shards this transaction has a branch on, sorted. *)

val commit : gtxn -> int
(** Commit and return the coordinator commit timestamp (the combined-DSG
    [order]).  Single-shard and read-only transactions take the fast
    path; multi-shard writers run 2PC over the network, which may abort
    the transaction as a cross-shard pivot.  A participant unreachable
    past the coordinator's retransmission budget is left to
    {!resolve_indoubt} (the logged decision stands).  Raises
    [E.Serialization_failure] / [E.Transient_fault] (the transaction is
    rolled back on every shard first). *)

val abort : gtxn -> unit
(** Roll back every branch.  Idempotent. *)

(** {1 Failure handling} *)

val crash_shard : t -> int -> unit
(** [E.simulate_connection_loss] on one shard: its in-flight branches
    vanish (their distributed transactions will abort), prepared branches
    survive with conservative flags. *)

val resolve_indoubt : t -> int list
(** Coordinator recovery scan: walk every shard's (sorted)
    [prepared_gids]; gids with a logged commit decision are committed,
    all others rolled back (presumed abort).  Returns the shards that had
    in-doubt transactions.  Idempotent. *)

val decided : t -> gid:string -> [ `Commit of int | `Abort ] option
(** The coordinator's durable-decision log ([`Commit cts] carries the
    commit timestamp). *)

val stats : t -> (string * int) list
(** The [shard.*] counters as a sorted assoc list. *)
