(** Deterministic fault injection: seeded chaos plans executed on the
    simulator's virtual clock against a live engine/replica system.

    The paper's claim is that SSI stays serializable {e under adversity}:
    immediate safe retries after aborts (§5.4), crash recovery of prepared
    transactions with conservative conflict flags (§7.1), summarization
    under memory pressure (§6.2), and serializable reads from lagging
    replicas (§7.2).  This module turns each of those adversities into a
    schedulable event:

    - {e crash}: [Engine.simulate_connection_loss] fires mid-workload —
      in-flight transactions vanish (their sessions see a retryable
      [Transient_fault]), prepared transactions survive;
    - {e fault burst}: a window during which the {!injector} kills engine
      operations with retryable I/O errors at a seeded rate;
    - {e memory pressure}: [max_committed_sxacts] is shrunk, forcing a
      summarization storm, then restored;
    - {e lag spike}: the replica's apply lag jumps, then drains;
    - {e failover}: a marker event — the harness promotes the replica
      ({!Ssi_replication.Replica.promote}) and checks the lineage it
      leaves.

    Everything is derived from an integer seed through {!Ssi_util.Rng}, so
    a plan, its virtual-time schedule, and the full perturbed history
    replay identically from the same seed. *)

module E = Ssi_engine.Engine

(** {1 Fault injector} *)

type injector
(** Seeded source of transient faults, installed into an engine with
    [E.set_fault_injector db (Some (hook inj))].  While its rate is zero
    it draws no randomness, so arming windows are reproducible. *)

val injector : seed:int -> injector

val hook : injector -> op:string -> unit
(** The engine-facing fault point: raises [E.Transient_fault] with
    probability [rate] per operation. *)

val set_fault_rate : injector -> float -> unit
val injected : injector -> int
(** Faults raised so far. *)

(** {1 Fault plans} *)

type kind =
  | Crash
  | Fault_burst of { rate : float; duration : float }
  | Memory_pressure of { cap : int; duration : float }
  | Lag_spike of { lag : int; duration : float }
  | Failover
  | Partition of { victim : int; duration : float }
      (** Isolate one network node ([victim] is an index into the net's
          registered nodes, modulo their count) from all others for
          [duration], then rejoin it. *)
  | Net_chaos of { drop : float; dup : float; reorder : float; duration : float }
      (** Raise the network-wide drop/duplicate/reorder chaos floor for a
          window, then restore the previous floor. *)

type event = { at : float; kind : kind }
type plan = { seed : int; events : event list }  (** events sorted by [at] *)

val gen_plan :
  seed:int -> horizon:float -> ?crashes:int -> ?bursts:int -> ?pressures:int ->
  ?lag_spikes:int -> ?failover:bool -> ?partitions:int -> ?net_chaos:int -> unit -> plan
(** Draw a plan from the seed: event times land inside the horizon (a
    failover, if requested, lands near its end), burst rates, pressure
    caps, lag depths, partition victims and network fault floors are all
    seeded.  Defaults: one each of the original perturbations, no
    failover, and no network events ([partitions] and [net_chaos] default
    to 0) — with the network classes disabled a plan is byte-identical to
    one generated before they existed. *)

val kind_name : kind -> string
val describe : plan -> string list
(** One human-readable line per event, in schedule order. *)

(** {1 Execution} *)

type target = {
  engine : E.t;
  injector : injector option;  (** required for [Fault_burst] events *)
  replica : Ssi_replication.Replica.t option;  (** required for [Lag_spike] *)
  fleet : Ssi_replication.Replica.t list;
      (** read-fleet members: when non-empty, each [Lag_spike] hits one
          member (picked deterministically from the event parameters)
          instead of [replica] *)
  net : Ssi_replication.Stream.net option;
      (** required for [Partition] and [Net_chaos] *)
  net_ops : Ssi_net.Net.ops option;
      (** alternative target for [Partition] / [Net_chaos]: the type-erased
          control surface of a network whose message type is not the
          replication stream's (e.g. a shard coordinator's).  Takes
          precedence over [net] when both are set. *)
}

val execute :
  ?observer:([ `Before | `After ] -> event -> unit) ->
  target -> plan -> log:(string -> unit) -> unit
(** Run the plan to completion from inside a simulation process: sleep on
    the virtual clock until each event, apply it, and emit one
    deterministic, virtual-time-stamped log line per state change (the
    replayable chaos schedule).  Restorations (burst end, pressure end, lag
    drain) run as spawned processes, so perturbation windows overlap the
    workload.  [observer] is called around each event — the place for a
    harness to capture invariants (e.g. prepared transactions across a
    crash) or to perform the actual failover.  Events whose target is
    missing (no injector/replica) are logged as skipped. *)
