(** One experiment per table and figure of the paper's evaluation (§8).

    Each experiment returns structured measurements; {!figures} runs and
    renders the paper's figures for [bench/main.exe] and [pg_ssi bench].
    Throughput series are normalized to snapshot isolation, exactly as the
    paper's figures plot them.  Parameters default to values sized for a
    few-minute run; tests override them with smaller ones. *)

open Ssi_workload

type measurement = {
  x_label : string;  (** table size, read-only fraction, … *)
  x_value : float;
  mode : Driver.mode;
  result : Driver.result;
}

(** {1 Figure 4: SIBENCH} *)

val fig4 :
  ?tap:(Driver.bench -> Driver.bench) -> ?sizes:int list -> ?duration:float -> ?workers:int ->
  ?cores:int -> unit -> measurement list
(** SIBENCH throughput vs. table size for SI / SSI / SSI-without-read-only
    optimizations / S2PL, in-memory cost model.  Every figure passes each
    run's bench through [tap] (default: unchanged), so a caller can
    change the certifier or attach a history recorder through
    [Driver.chaos]. *)

(** {1 Figure 5: DBT-2++} *)

val fig5a :
  ?tap:(Driver.bench -> Driver.bench) -> ?fractions:float list -> ?warehouses:int ->
  ?duration:float -> ?workers:int -> ?cores:int -> unit -> measurement list
(** In-memory configuration: throughput vs. fraction of read-only
    transactions (paper: 25 warehouses, 4 clients, tmpfs). *)

val fig5b :
  ?tap:(Driver.bench -> Driver.bench) -> ?fractions:float list -> ?warehouses:int ->
  ?duration:float -> ?workers:int -> ?cores:int -> ?disks:int -> unit -> measurement list
(** Disk-bound configuration (paper: 150 warehouses, 36 clients, RAID
    array).  The SSI-without-read-only-optimization series is omitted, as
    in the paper's Figure 5b. *)

(** {1 Figure 6: RUBiS} *)

val fig6 :
  ?tap:(Driver.bench -> Driver.bench) -> ?users:int -> ?items:int -> ?duration:float ->
  ?workers:int -> ?cores:int -> unit -> measurement list
(** RUBiS bidding mix: absolute throughput and serialization-failure rate
    for SI, SSI and S2PL. *)

(** {1 §8.4: deferrable transactions} *)

type deferrable_result = {
  samples : int;
  median_s : float;
  p90_s : float;
  max_s : float;
  latencies : Ssi_util.Stats.t;
}

val deferrable :
  ?samples:int -> ?warehouses:int -> ?workers:int -> ?cores:int -> ?disks:int -> unit ->
  deferrable_result
(** Latency to obtain a safe snapshot for DEFERRABLE transactions started
    once per simulated second while the DBT-2++ disk-bound workload (8%
    read-only) runs. *)

(** {1 Ablations (design choices called out in DESIGN.md)} *)

val ablation_promotion :
  ?thresholds:int list -> ?rows:int -> ?duration:float -> unit -> measurement list
(** Sweep the SIREAD granularity-promotion threshold on SIBENCH under SSI:
    aggressive promotion saves lock-table memory at the cost of
    false-positive aborts (§5.2.1, §6 technique 2).  [x_label] is the
    threshold; the SI measurement at each x provides the baseline. *)

val ablation_summarization :
  ?limits:int list -> ?warehouses:int -> ?duration:float -> unit -> measurement list
(** Sweep [max_committed_sxacts] on DBT-2++ under SSI: smaller tables force
    more summarization, trading memory for extra false positives (§6.2). *)

val ablation_nextkey :
  ?warehouses:int -> ?duration:float -> unit -> measurement list
(** Compare page-granularity and next-key index-gap locking under SSI on
    DBT-2++ (§5.2.1 future work, implemented here): next-key gaps flag
    fewer false conflicts. *)

(** {1 Durability: group commit} *)

val group_commit :
  ?intervals:float list -> ?rows:int -> ?duration:float -> ?workers:int -> ?cores:int ->
  unit -> measurement list
(** SIBENCH under SSI with a durable log attached, sweeping the
    group-commit flush interval: [0.] flushes synchronously on every
    append; longer intervals batch more commits per flush (higher
    throughput per fsync) at the cost of commit latency, which
    {!render_latency} makes visible.  [x_label] is the interval ("sync"
    for 0). *)

val render_ablation : title:string -> x_header:string -> measurement list -> string
(** Rows = x values; columns = throughput and failure rate of the SSI run
    (normalized against the SI run at the same x when present). *)

(** {1 Rendering} *)

val render_latency : title:string -> measurement list -> string
(** Rows = measurements; columns = throughput, nearest-rank p50/p95/p99
    client latency (virtual seconds) and failure rate. *)

val bench_json : workload:string -> duration:float -> measurement list -> string
(** One JSON object — [{"workload";"duration_s";"modes":[...]}] — with
    per-mode throughput, latency percentiles and SSI metric deltas.
    Non-finite numbers render as [null].  Written by [bench/main.exe] to
    [BENCH_<workload>.json]. *)

(** {1 Figure presets} *)

type figure = {
  name : string;  (** [fig4], [fig5a], [fig5b], [fig6] or [defer] *)
  title : string;
  table : quick:bool -> string;
      (** Run the experiment and render its table: at the full paper-shaped
          sizes, or at the reduced [quick] preset. *)
}

val quick_sweeps : (string * (tap:(Driver.bench -> Driver.bench) -> measurement list)) list
(** The [quick] presets of the four figure sweeps ([fig4], [fig5a],
    [fig5b], [fig6]), with their bench tap open: {!figures} runs them with
    [Fun.id], and [test/check_presets.exe] with a history recorder. *)

val figures : figure list
(** The paper's figures and the §8.4 latency table, in paper order: the
    one preset table both [bench/main.exe] and [pg_ssi bench] print. *)
