(** The Serial Safety Net (Wang, Johnson, Fekete) and its extended variant
    (ESSN, Kitazawa et al.): serializability certification by
    per-transaction watermarks instead of dangerous-structure search — the
    second implementation of {!Certifier_intf.S}.

    Each transaction carries a high watermark [pstamp] (eta — the largest
    effective commit stamp among its committed predecessors) and a low
    watermark [sstamp] (pi — the smallest watermark among its committed
    rw-antidependency successors).  A transaction whose {e exclusion
    window} closes ([sstamp <= pstamp]) cannot be placed in any serial
    order and must abort.  Stamps only tighten, so the test runs eagerly
    at every stamp mutation: bystanders are doomed, the acting transaction
    raises [Db_error.Error (Serialization_failure _)].

    The evidence is SSI's: the engine's SIREAD locks, looked up at write
    time and handed to [conflict_in], and MVCC visibility at read time
    ([conflict_out]).  Where the signature leaves room, SSN differs from
    SSI as follows:
    - [read_from] feeds a committed creator's stamp (read from the Clog)
      into pstamp: w:r and w:w predecessors count here;
    - there are no safe snapshots: [is_safe] is always [false],
      [safety_determined] always [true], and [register] rejects
      [~deferrable:true];
    - [prepare] refuses an rw edge to another prepared transaction, so
      commit-time stamp propagation never has to doom a prepared peer, and
      [precommit] fails a committer that would close a prepared peer's
      window;
    - [restore_prepared] / [mark_conservative] close the window outright
      ([pstamp = sstamp = 0]): every later transaction forming an rw edge
      with it gives way, generalizing §7.1's both-ways flags, and
      [dump_graph] reports that state as both conservative bits.

    With [extended = true] the effective stamp of a read-only-in-theory
    transaction is its snapshot position rather than its commit stamp
    (ESSN), admitting schedules SSN would abort.  Metrics and events go to
    the [ssn.*] namespace, or [essn.*] when extended. *)

include Certifier_intf.S

val create :
  ?config:Certifier_intf.config -> ?obs:Ssi_obs.Obs.t -> extended:bool ->
  Ssi_mvcc.Mvcc.Clog.t -> t
(** [extended] selects ESSN's effective-commit-stamp refinement, which
    [config.read_only_opt] gates; [config.max_committed_sxacts] bounds
    retained committed nodes before summarization, as in the SSI manager.
    [config.kind] is not consulted. *)
