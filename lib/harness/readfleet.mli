(** Read-fleet chaos harness: seeded end-to-end scenarios for the
    {!Ssi_replication.Router} under network faults, replica lag and
    fenced failover — every routed read checked against the commit order
    in the primaries' recorded histories.

    One {!run} builds a streaming primary plus [replicas] cores fed over
    an adversarial {!Ssi_net.Net}, fronts them with a read router, and
    drives [workers] concurrent clients at a [read_mix] read fraction
    while a seeded {!Ssi_fault.Fault} plan injects partitions, lag
    spikes, network chaos and (optionally) a fenced failover.  After the
    workload quiesces and the network heals, the harness drives replica
    catch-up and then checks:

    - {e exactness + serializability} of every routed read: each primary
      records its history ({!Ssi_engine.Engine.set_recorder}) and each
      replica records its reads into the history of the primary it
      follows ({!Ssi_replication.Replica.set_recorder}); every read must
      return the last version committed before its snapshot
      ({!Ssi_check.Dsg.stale_read}) and the graph must be acyclic
      ({!Ssi_check.Dsg.check}), for the old era and for the lineage a
      failover leaves ({!Scenario.lineage}): the promoted engine keeps the
      old era's xids and cseqs, so the old era up to the promotion point
      and the new era check as one history;
    - {e convergence}: every still-subscribed replica ends byte-identical
      to the acting primary;
    - {e availability}: no client-visible failure for a retryable fault
      ([read_giveups] / [write_giveups] stay 0), and read-your-writes
      session tokens were never violated.

    Runs are deterministic: the same [cfg] replays byte-identically
    ({!Scenario.replay}). *)

type cfg = {
  seed : int;
  replicas : int;  (** fleet size (N streaming replicas) *)
  read_mix : float;  (** fraction of client transactions that are reads *)
  workers : int;
  txns_per_worker : int;
  partitions : int;  (** partition events in the fault plan *)
  lag_spikes : int;  (** lag-spike events (spread across the fleet) *)
  net_chaos : int;  (** drop/dup/reorder windows *)
  failover : bool;  (** promote a replica at 90% of the horizon *)
}

val default_cfg : cfg
(** seed 1, 2 replicas, 0.9 read mix, 4 workers x 50 txns, one
    partition, two lag spikes, one net-chaos window, failover on. *)

type outcome = {
  commits_old : int;  (** committed writes on the original primary *)
  commits_new : int;  (** committed writes on the promoted primary *)
  reads_ok : int;  (** routed reads that returned to the client *)
  read_giveups : int;  (** reads that raised out of the router (must be 0) *)
  write_giveups : int;  (** writes that raised out of the router (must be 0) *)
  session_violations : int;
      (** reads whose snapshot horizon was behind the session's
          read-your-writes token (must be 0) *)
  replica_routed : int;  (** [fleet.route.replica] *)
  primary_routed : int;  (** [fleet.route.primary] *)
  fallbacks : int;
  degraded : int;
  markdowns : int;
  probes : int;
  readmits : int;
  too_stale : int;
  session_resets : int;
  session_waits : int;
  primary_switches : int;
  promote_cseq : int option;  (** [Some] iff the failover ran *)
  violation : string option;
      (** first oracle / convergence violation, [None] when clean *)
  chaos_log : string list;  (** the replayable fault schedule *)
  alerts : string list;
      (** rendered SLO-watchdog firings ({!Ssi_obs.Watchdog}), in firing
          order — an always-on scraper samples the run and evaluates the
          default rule catalog, so lag breaches / mark-down churn /
          abort spikes under the fault plan surface here and replay
          byte-identically (they are part of the replayed outcome) *)
  final_rows : (int * int) list;  (** acting primary's state, sorted *)
}

val header : cfg -> string
val run : cfg -> outcome

val pp : Format.formatter -> outcome -> unit
(** Human-readable report: routing counters, oracle verdict, chaos log. *)

val ok : outcome -> bool
(** No violation, no client-visible giveup, no session violation. *)
