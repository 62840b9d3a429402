(** Plain chaos scenario: SIBENCH under SSI (or another certifier) while a
    seeded {!Ssi_fault.Fault} plan crashes sessions, injects I/O faults
    and memory pressure, spikes replica lag, partitions the network and
    fails over — the [pg_ssi chaos] default mode.

    With [replicas = 0] the replica hangs off the primary's in-process
    log hook; otherwise WAL records stream to [replicas] subscribers
    over a seeded adversarial {!Ssi_net.Net}, optionally
    quorum-synchronous, and the run ends by healing every partition and
    driving catch-up.  Optional telemetry (an always-on scrape plus the
    SLO watchdog), abort explanations and span export ride along.

    The outcome is plain data captured after the run, so the scenario
    replays byte-identically ({!Scenario.replay}). *)

type cfg = {
  seed : int;
  certifier : Ssi_core.Certifier.kind;
  duration : float;  (** fault horizon and measured seconds *)
  workers : int;
  failover : bool;
  replicas : int;  (** 0 = direct mode *)
  quorum : int option;  (** replica acks per commit (2 ms deadline) *)
  partitions : int;
  net_chaos : int;
  explain : bool;  (** render {!Explain} after the run *)
  trace_out : string option;  (** Chrome trace-event export *)
  trace_capacity : int option;
  alerts : bool;  (** print the watchdog's alerts *)
  scrape_out : string option;  (** scraped time series, JSON Lines *)
  metrics_out : string option;  (** final registry, OpenMetrics *)
}

val default_cfg : cfg
(** Seed 42, SSI, 3 s, 8 workers, direct mode, no failover, no network
    faults, no telemetry or exports: [pg_ssi chaos] with no flags. *)

type outcome = {
  log : string list;  (** the executed fault schedule *)
  result : Ssi_workload.Driver.result;
  report : string list;
      (** The rest of the report, rendered while the engines were still
          reachable: replica and streaming state, explanations, exports,
          alerts and the exposition check. *)
  exposition_valid : bool;  (** the OpenMetrics check passed, or did not run *)
  violation : string option;
      (** The primary's recorded history and, after a failover, the
          lineage ({!Scenario.lineage}) checked by {!Ssi_check.Dsg}: a
          cycle or an inexact read, or [None]. *)
}

(** {1 As a {!Scenario.S}} *)

val header : cfg -> string
(** The run's knobs and its fault plan. *)

val run : cfg -> outcome

val pp : Format.formatter -> outcome -> unit

val ok : outcome -> bool
(** [exposition_valid] and no [violation]. *)
