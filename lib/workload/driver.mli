(** Generic benchmark driver: runs a transaction mix against the engine
    under the discrete-event simulator and measures throughput, exactly in
    the shape of the paper's §8 experiments.

    A bench models the hardware as a CPU resource with a fixed number of
    cores and (optionally) a disk resource with a fixed number of spindles.
    Engine operations charge virtual CPU/IO time against those resources
    through the cost model, so CPU overhead (SSI read tracking), blocking
    (S2PL, write locks) and abort/retry work all show up in committed
    transactions per simulated second. *)

module E = Ssi_engine.Engine

(** Concurrency-control mode under test — the four series of Figures 4/5. *)
type mode = SI | SSI | SSI_no_ro_opt | S2PL

val mode_name : mode -> string
val all_modes : mode list

val isolation_of_mode : mode -> E.isolation

type spec = {
  name : string;
  weight : float;  (** relative frequency in the mix *)
  read_only : bool;  (** declared READ ONLY at BEGIN *)
  body : Ssi_util.Rng.t -> E.txn -> unit;
  routed : (Ssi_util.Rng.t -> Ssi_replication.Router.ro -> unit) option;
      (** read-fleet form of a read-only body: when the bench configures a
          {!bench.fleet} router, read-only specs carrying one are routed
          through {!Ssi_replication.Router.read_only} (replica or primary,
          per the router's health/staleness state) instead of opening an
          engine transaction.  Ignored without a fleet; [None] keeps the
          spec primary-only. *)
}

type bench = {
  mode : mode;
  certifier : Ssi_core.Certifier.kind;
      (** Which serializability certifier serializable modes run under
          (SSI, SSN or ESSN); ignored by SI and S2PL.  The window metrics
          ([ssi_summarized], [ssi_conflicts], [abort_reasons]) are read
          from the matching [<certifier>.*] namespace. *)
  workers : int;  (** concurrent client sessions *)
  duration : float;  (** measured simulated seconds *)
  warmup : float;  (** simulated seconds discarded before measuring *)
  cpu_cores : int;
  disks : int;  (** 0 disables the disk resource (I/O charged unqueued) *)
  costs : E.costs;
  seed : int;
  max_committed_sxacts : int;
  predlock : Ssi_core.Predlock.config;  (** SIREAD promotion thresholds *)
  next_key_gaps : bool;  (** next-key instead of page index-gap locks *)
  retry : E.retry_policy;  (** client-side retry/backoff policy (§5.4) *)
  chaos : (E.t -> unit) option;
      (** called on the fresh engine before [setup], from inside the
          simulation — the place to attach a replica, install a fault
          injector, and [Sim.spawn] a {!Ssi_fault.Fault.execute} process *)
  trace_capacity : int option;
      (** when set, size both the event log and the finished-span table of
          the engine's registry to this many entries (default registry
          sizes otherwise).  Trace exports and the abort explainer need
          capacities well above the workload's event volume, or parents
          and conflict evidence fall out of the bounded tables (the
          [obs.*.dropped] counters say when that happened). *)
  fleet : (E.t -> Ssi_replication.Router.t) option;
      (** called on the fresh engine after [chaos] and before [setup]
          (so attach-mode replicas see the setup WAL): build the read
          fleet and return its router.  Each worker then gets its own
          {!Ssi_replication.Router.session}; specs with a [routed] body
          flow through {!Ssi_replication.Router.read_only}, read/write
          specs through {!Ssi_replication.Router.write} (both under the
          router's policy, which the builder typically seeds with the
          bench retry policy), and read-only specs without a [routed]
          body keep the direct primary path.  [None] (the default)
          leaves the single-engine path byte-identical to previous
          behaviour. *)
}

val default_bench : bench
(** SSI, 4 workers, 5 simulated seconds (1s warmup), 4 cores, no disk,
    in-memory cost model, seed 42, default retry policy, no chaos. *)

type result = {
  committed : int;
  failures : int;  (** serialization failures (including deadlocks) *)
  deadlocks : int;
  sim_seconds : float;
  throughput : float;  (** committed transactions per simulated second *)
  failure_rate : float;  (** failures / (failures + committed) *)
  cpu_busy : float;  (** utilisation of the CPU resource, 0..1 *)
  ssi_summarized : int;  (** committed transactions summarized (§6.2) *)
  ssi_safe_snapshots : int;  (** read-only transactions that got safe snapshots *)
  ssi_conflicts : int;  (** rw-antidependencies flagged *)
  retries : int;  (** attempts retried after a retryable failure *)
  giveups : int;  (** retry loops exhausted (attempts or deadline) *)
  injected_faults : int;  (** transient faults injected into engine ops *)
  attempts_per_commit : float;  (** 1 + retries/committed; 0 if nothing committed *)
  latency_mean : float;
      (** mean client-observed latency (virtual seconds, retries included)
          of transactions committing in the window; [nan] when none *)
  latency_p50 : float;  (** nearest-rank percentiles of the same samples *)
  latency_p95 : float;
  latency_p99 : float;
  abort_reasons : (string * int) list;
      (** serialization-failure breakdown by SSI victim reason,
          descending count, reasons slugified ([ssi.victims.*]) *)
}

val run : setup:(E.t -> unit) -> specs:spec list -> bench -> result
(** Build a fresh engine, run [setup], then drive [bench.workers] workers
    through the weighted mix for the configured duration, retrying
    serialization failures (the middleware retry loop of §5.4). *)

val in_memory_costs : E.costs
(** Cost model of the paper's tmpfs configurations (§8.1, §8.2 in-memory):
    CPU-dominated, tiny per-lock tracking cost, no I/O. *)

val disk_bound_costs : E.costs
(** Cost model of the §8.2 disk-bound configuration: page misses cost disk
    time, commits flush a log. *)
