(** Serializable Snapshot Isolation: conflict tracking, dangerous-structure
    detection, and victim selection (paper §3–§6) — the paper's
    certifier, one implementation of {!Certifier_intf.S}.

    Whenever a new rw-antidependency completes a dangerous structure
    [T1 --rw--> T2 --rw--> T3] that passes the commit-ordering test
    (T3 committed first) and the read-only snapshot-ordering test
    (Theorem 3), a victim is chosen by the safe-retry rules of §5.4: the
    pivot T2 if it is still abortable, otherwise T1, never a committed or
    prepared transaction.  If the victim is the calling transaction,
    [Serialization_failure] is raised; otherwise the victim is {e doomed}
    and will fail at its next operation or commit.

    SSI is the only certifier with safe snapshots (§4.2) and therefore
    [BEGIN DEFERRABLE] (§4.3).  It ignores [read_from]: everything it needs
    comes from SIREAD locks and MVCC visibility.

    Metrics: [ssi.conflicts], [ssi.dooms], [ssi.failures],
    [ssi.summarized], [ssi.safe_snapshots], [ssi.cleanups], and
    per-abort-reason [ssi.victims.<reason>] counters, plus [ssi.fail] /
    [ssi.doom] / [ssi.dangerous] / [ssi.rw_edge] / [ssi.summarize] /
    [ssi.safe_snapshot] trace events. *)

include Certifier_intf.S

val create :
  ?config:Certifier_intf.config -> ?obs:Ssi_obs.Obs.t -> Ssi_mvcc.Mvcc.Clog.t -> t
(** [obs] is the metrics/trace registry this manager (and the predicate
    lock manager it owns) reports into; a private registry is created
    when omitted.  [config.kind] is not consulted. *)

val obs : t -> Ssi_obs.Obs.t
val xid_of : node -> Ssi_storage.Heap.xid
val is_doomed : node -> bool

val note_write : node -> unit
(** Record that the transaction modified data (clears read-only-in-practice
    status); {!conflict_in} does this itself. *)

val is_unsafe : node -> bool
(** The read-only snapshot was found unsafe (§4.2): full tracking stays
    on. *)
