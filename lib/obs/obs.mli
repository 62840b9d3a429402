(** Unified observability core.

    One process-wide-capable (but deliberately instantiable) registry of
    named metrics — counters, gauges and bounded log-bucketed histograms
    ({!Ssi_util.Bhist}: O(buckets) memory, mergeable, quantile error
    ≤ {!hist_accuracy}) — plus one bounded log of structured trace
    events stamped with the virtual clock, plus a bounded table of causal
    {e spans} (Dapper-style: [(trace_id, span_id, parent_id)] with typed
    attributes).  An event emitted under a span carries that span's
    identity in its fields; spans themselves hold no events, so the log
    is the only event store and everything that reads events ([pg_ssi
    trace], the abort explainer, the Chrome export's instants) is a view
    of it.  Every layer of the system (predicate locks, SSI
    manager, heavyweight lock manager, engine, replication, workload
    driver) reports through one of these registries instead of keeping a
    private stats record, so tools can snapshot, diff and render the
    whole system's state uniformly.

    Registries are per-engine rather than global: simulations and tests
    construct many engines and must stay deterministic and isolated.
    All identifiers (event [seq], [trace_id], [span_id]) are sequential
    per registry, so traces replay identically from a seed.

    Metric naming scheme: dotted lowercase paths,
    [<layer>.<metric>[.<detail>]] — e.g. [ssi.summarized],
    [predlock.locks.tuple], [engine.latency.read], [lockmgr.waits],
    [replica.apply_lag], [driver.txn_latency].

    Truncation is never silent: [obs.trace.dropped] counts event-log
    overwrites and [obs.spans.dropped] counts finished-span-table
    overwrites.  Both counters exist from {!create} so they always
    appear in {!render}. *)

type t

val create : ?trace_capacity:int -> ?span_capacity:int -> unit -> t
(** Fresh registry.  [trace_capacity] bounds the event log (default
    4096 events); [span_capacity] bounds the finished-span table
    (default 4096 spans); older entries are overwritten, with the
    overwrites counted (see the drop counters above). *)

val set_clock : t -> (unit -> float) -> unit
(** Install the time source used to stamp trace events and spans.  The
    engine points this at the simulation's virtual clock; the default
    returns [0.]. *)

val now : t -> float
(** The registry clock's current reading.  Once a simulation-backed
    clock has ended (and raises), this freezes at the last successful
    reading instead — safe for post-run exports. *)

(** {1 Metrics}

    [counter]/[gauge]/[histogram] are get-or-create by name and return a
    cheap handle meant to be hoisted out of hot paths.  Asking for an
    existing name with a different kind raises [Invalid_argument]. *)

type counter
type gauge
type histogram

val counter : t -> string -> counter
val incr : ?by:int -> counter -> unit
val counter_value : counter -> int

val gauge : t -> string -> gauge

val set_gauge : gauge -> float -> unit
(** Write the gauge.  A gauge only becomes visible in {!dump}/{!render}
    (and via {!get_gauge}) once it has been written at least once. *)

val gauge_value : gauge -> float

val histogram : ?accuracy:float -> t -> string -> histogram
(** Get-or-create a bounded log-bucketed histogram
    ({!Ssi_util.Bhist}): O(buckets) memory however many observations it
    absorbs, quantiles within relative error [accuracy] (default
    {!hist_accuracy}).  [accuracy] only takes effect at creation; a
    later lookup returns the existing sketch unchanged. *)

val observe : histogram -> float -> unit
val histogram_hist : histogram -> Ssi_util.Bhist.t

val hist_accuracy : float
(** Default relative quantile error bound for registry histograms
    (0.01 = 1%): any reported p50/p95/p99 is within 1% of the value a
    full-sample nearest-rank percentile would report. *)

val get_counter : t -> string -> int
(** Counter value by name; [0] when the counter was never created. *)

val get_gauge : t -> string -> float
(** Gauge value by name; [nan] when the gauge is absent {e or was never
    written with {!set_gauge}}.  Callers doing arithmetic on the result
    must treat [nan] as "no reading" ([Float.is_nan]), not as a number —
    never-set gauges are likewise skipped by {!dump}/{!render} rather
    than rendered as [nan]. *)

val find_histogram : t -> string -> Ssi_util.Bhist.t option

(** {1 Snapshots and deltas}

    A [snap] freezes every counter value and a bucket-wise copy of every
    histogram (O(buckets) per histogram, not O(samples)).  Deltas
    against a snap give per-window readings — the replacement for the
    old pattern of hand-copying stats records at window edges. *)

type snap

val snap : t -> snap

val delta_counter : t -> snap -> string -> int
(** Counter increase since the snap ([0] if absent in both). *)

val delta_hist : t -> snap -> string -> Ssi_util.Bhist.t
(** The histogram's increment since the snap as a fresh sketch (exact
    bucket counts/sum; min/max at bucket resolution — see
    {!Ssi_util.Bhist.diff}).  Empty if the histogram is absent; the
    whole sketch if it was created after the snap. *)

val raw_metrics :
  t -> (string * [ `Counter of int | `Gauge of float | `Hist of Ssi_util.Bhist.t ]) list
(** Every metric with its raw current value, sorted by name — the
    scrape layer's sampling surface.  Histograms are the {e live}
    sketches (copy before retaining); never-written gauges are
    omitted. *)

(** {1 Rendered views} *)

type hist_summary = {
  h_count : int;
  h_mean : float;
  h_p50 : float;
  h_p95 : float;
  h_p99 : float;
  h_max : float;
}

type value = Counter_v of int | Gauge_v of float | Histogram_v of hist_summary

val dump : t -> (string * value) list
(** All metrics, sorted by name.  Histogram percentiles are
    nearest-rank.  Gauges that were never written are omitted (see
    {!get_gauge}). *)

val render : t -> string
(** Pretty table of every metric, suitable for [pg_ssi stats]. *)

(** {1 Trace events}

    Structured events in one bounded log, stamped with the registry
    clock.  Every event is appended exactly once; the log keeps the most
    recent [trace_capacity] and counts overwrites in
    [obs.trace.dropped]. *)

type field = I of int | F of float | S of string | B of bool

type event = {
  seq : int;  (** emission index: dense, so retained seqs never gap *)
  ts : float;  (** registry clock at emission (virtual seconds) *)
  name : string;  (** dotted event name, e.g. [txn.commit] *)
  fields : (string * field) list;
}

type span

val trace : t -> ?span:span -> ?fields:(string * field) list -> string -> unit
(** Emit one event.  Under [span], the fields start with [span]/[trace]
    identifying it (see {!owner_span} for layers that know only an
    xid). *)

val events : t -> event list
(** Retained events in emission order, with contiguous [seq]s. *)

val event_to_json : event -> string
(** One JSON object, fields flattened alongside [seq]/[ts]/[event]. *)

val json_escape : string -> string
(** JSON string-body escaping, shared by every exporter in the tree. *)

val json_float : float -> string
(** Shortest-round-trip float literal; non-finite values render as
    [null]. *)

(** {1 Spans}

    A span is a named interval of virtual time with a causal identity:
    it belongs to a trace ([trace_id]), has its own [span_id], and
    optionally a [parent_id] — either a live parent span in the same
    process or a {!span_ctx} propagated from another node (e.g. inside a
    WAL commit record), which is how trace trees cross the simulated
    network.  Finished spans land in a bounded table whose overwrites are
    counted in [obs.spans.dropped]. *)

type span_ctx = { trace_id : int; span_id : int }
(** The wire form of a span's identity, embeddable in protocol
    messages.  Starting a span with [?ctx] parents it across the
    boundary. *)

module Span : sig
  (** A span is an [int] handle into its registry's span store (DESIGN
      §8.1).  It stays valid while its span is open or retained among the
      finished ones; once the span is dropped from the finished-span
      table its slot may be reused, and the handle is {e stale}: every
      accessor below ([add] through [attrs]) raises [Invalid_argument]
      on it, as do [start ~parent] and [trace ~span], and {!finish}
      ignores it.  No call ever reads or closes another span through a
      stale handle. *)

  val start :
    t ->
    ?parent:span ->
    ?ctx:span_ctx ->
    ?attrs:(string * field) list ->
    string ->
    span
  (** Open a span.  [?parent] (local) wins over [?ctx] (remote); with
      neither, a fresh trace is started.  The start timestamp is taken
      from the registry clock. *)

  val child : t -> span_ctx -> string -> span
  (** [child t ctx name] is [start t ~ctx name] for hot paths: the
      parent is positional, so the call allocates nothing, and named by
      its identity, which stays valid after its handle goes stale. *)

  val finish : t -> span -> unit
  (** Close the span and move it into the bounded finished-span table.
      Idempotent: only the first call records anything. *)

  val finish_observe : t -> span -> histogram -> unit
  (** [finish], then observe the span's duration (end minus start) into
      the histogram, without boxing it; nothing is observed when the
      span was not open. *)

  val add : span -> string -> field -> unit
  (** Set an attribute (replacing any previous value for the key). *)

  val ctx : span -> span_ctx
  val name : span -> string
  val trace_id : span -> int
  val id : span -> int
  val parent : span -> int option
  val start_ts : span -> float

  val end_ts : span -> float
  (** [nan] while the span is open. *)

  val is_open : span -> bool
  val attrs : span -> (string * field) list
end

(** {2 Owner rendezvous}

    Layers below the engine (the certifiers, the lock manager) know
    transactions only by xid; the engine registers each live
    transaction's span here so those layers can emit conflict events
    under it ([trace ?span:(owner_span obs xid)]) and parent lock-wait
    spans on it without new plumbing through every call. *)

val set_owner_span : t -> int -> span -> unit
val clear_owner_span : t -> int -> unit
val owner_span : t -> int -> span option

(** {2 Consuming spans} *)

module Spans : sig
  val finished : t -> span list
  (** Retained finished spans, in creation order. *)

  val open_spans : t -> span list
  (** Spans started but not yet finished, in creation order. *)

  val all : t -> span list

  val dropped : t -> int
  (** Finished spans lost to table overwrites so far. *)

  val to_chrome_json : t -> string
  (** Export every retained span in the Chrome trace-event JSON format,
      loadable in Perfetto or chrome://tracing: spans become complete
      (["ph":"X"]) events with microsecond timestamps on one track per
      trace ([tid] = [trace_id]); each retained event emitted under an
      exported span becomes an instant on that span's track.  [args] carries
      [trace_id]/[span_id]/[parent_id] so external tools can rebuild the
      tree; open spans are exported with [incomplete:true] and a
      duration running to "now". *)
end
