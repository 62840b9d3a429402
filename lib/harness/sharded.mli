(** Sharded chaos harness: seeded end-to-end scenarios for the
    {!Ssi_shard.Shard} coordinator under network partitions, message
    chaos and participant crashes — the shards' recorded histories
    checked as one DSG ({!Ssi_check.Dsg}).

    One {!run} hash-partitions a single table across [shards] engines,
    drives [workers] concurrent clients whose uniform-key transactions
    freely straddle shards (single-shard fast path, multi-shard 2PC),
    while a seeded {!Ssi_fault.Fault} plan partitions coordinator links,
    raises drop/duplicate/reorder floors, and crashes shards mid-2PC.
    After the workload quiesces the harness heals the network, runs the
    coordinator recovery scan ({!Ssi_shard.Shard.resolve_indoubt}), and
    checks:

    - {e combined serializability}: every shard's engine records its
      history, each branch tagged with its global transaction's gid, and
      the histories joined on the gids form an acyclic DSG — the
      cross-shard dangerous-structure test no single certifier can run;
    - {e exactness}: every read, the final read of each key included,
      returned the last version its shard committed before the reader's
      snapshot;
    - {e decision durability}: every surviving prepared transaction was
      resolved according to the coordinator's decision log.

    Runs are deterministic: the same [cfg] replays byte-identically
    ({!Scenario.replay}). *)

type cfg = {
  seed : int;
  shards : int;
  keys : int;  (** uniform hot-key set, seeded before the run *)
  workers : int;
  txns_per_worker : int;
  ops_per_txn : int;
  write_bias : float;  (** probability an op is an update *)
  partitions : int;  (** node-isolation events in the fault plan *)
  net_chaos : int;  (** drop/dup/reorder windows *)
  crashes : int;  (** participant crashes ([simulate_connection_loss]) *)
}

val default_cfg : cfg
(** seed 1, 2 shards, 16 keys, 4 workers x 40 txns, 3 ops/txn, 0.5
    write bias, one partition, one chaos window, one crash. *)

type outcome = {
  commits : int;  (** client transactions that committed *)
  client_aborts : int;  (** retryable failures surfaced to clients *)
  fastpath : int;  (** [shard.fastpath] *)
  readonly : int;  (** [shard.readonly] *)
  twopc : int;  (** [shard.twopc] *)
  cross_aborts : int;  (** cross-shard pivots aborted by the coordinator *)
  participant_aborts : int;  (** 2PC aborts from a participant nack *)
  conservative_fallbacks : int;  (** decisions taken on §7.1 conservative flags *)
  window_edges : int;  (** edges formed during a decision window *)
  retransmits : int;
  indoubt_commits : int;  (** recovery-scan commits *)
  indoubt_aborts : int;  (** recovery-scan presumed aborts *)
  wounds : int;  (** wound-wait aborts ([shard.wounds]) *)
  crashes : int;  (** crash events executed *)
  violation : string option;  (** first oracle violation, [None] when clean *)
  chaos_log : string list;  (** the replayable fault schedule *)
  final_rows : (int * int) list;  (** key -> last writer, sorted *)
}

val header : cfg -> string
val run : cfg -> outcome

val pp : Format.formatter -> outcome -> unit
(** Human-readable report: coordinator counters, oracle verdict, chaos
    log. *)

val ok : outcome -> bool
(** The DSG check found no violation. *)

(** {1 Bench preset} *)

val bench :
  ?keys:int ->
  ?workers:int ->
  ?duration:float ->
  ?ops_per_txn:int ->
  ?write_bias:float ->
  ?op_cost:float ->
  shards:int ->
  seed:int ->
  unit ->
  Ssi_workload.Driver.result
(** Throughput of the uniform-key update mix at a given shard count, on
    the virtual clock.  Each shard owns a capacity-1 CPU
    ({!Ssi_sim.Sim.resource}); every data-plane op spends [op_cost]
    virtual seconds on its owning shard's CPU, so single-shard ceilings
    are real and throughput scales with the shard count until 2PC
    latency and cross-shard aborts eat the headroom — the [sharded]
    bench preset plots exactly that curve.  Every failed attempt is a
    new transaction, so [attempts_per_commit] is (commits + failures) /
    commits; [deadlocks] counts the engines' local deadlock failures. *)
