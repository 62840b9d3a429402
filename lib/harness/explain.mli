(** Abort explainer: reconstruct and pretty-print the dangerous
    structures behind SSI serialization failures.

    The SSI manager records one [ssi.dangerous] event — the full
    [T1 --rw--> T2 --rw--> T3] triple, the rule that fired, and the
    victim-selection reason — at the moment it dooms or fails a
    transaction, plus [ssi.rw_edge] events for every flagged
    rw-antidependency.  This module filters the registry's event log
    ({!Obs.events}) and turns those records into per-victim
    explanations, the consumer side of [pg_ssi explain]. *)

module Obs = Ssi_obs.Obs

(** One recorded dangerous structure.  Unknown transactions (lost to
    summarization §6.2 or crash recovery) are [-1]; a [_cseq] of [-1]
    means not committed (or unknown). *)
type structure = {
  seq : int;  (** emission order, ties explanations to the event stream *)
  ts : float;  (** virtual time of the doom/fail decision *)
  victim : int;  (** xid the decision killed *)
  reason : string;  (** victim-selection reason, e.g. [pivot gained rw-antidependency in] *)
  rule : string;
      (** which check fired: [commit-ordering] (§3.3.1),
          [read-only snapshot ordering] (Theorem 3, §4.1) or [pivot]
          (conservative, no commit-ordering information) *)
  t1 : int;
  t1_cseq : int;
  t1_ro : bool;
  t2 : int;  (** the pivot *)
  t2_cseq : int;
  t3 : int;
  t3_cseq : int;
}

(** One flagged rw-antidependency ([<certifier>.rw_edge]).  The [_cseq]
    fields are [-1] for the watermark certifiers, which record stamps on
    the event instead. *)
type edge = {
  e_seq : int;
  reader : int;
  writer : int;
  reader_cseq : int;  (** [-1] while uncommitted *)
  writer_cseq : int;
  summarized : bool;  (** one endpoint only known via the old-sxact table *)
}

(** One SSN/ESSN kill decision ([ssn.exclusion] / [essn.exclusion]): the
    victim's exclusion window at the moment it closed. *)
type exclusion = {
  x_seq : int;
  x_ts : float;
  x_victim : int;
  x_reason : string;
  x_pstamp : int;  (** high watermark (largest committed-predecessor stamp) *)
  x_sstamp : int;  (** low watermark; [-1] means infinity (never lowered) *)
  x_peer : int;  (** xid whose stamp closed the window; [-1] if unknown *)
}

val structures : Obs.t -> structure list
(** Every retained dangerous structure, in emission order. *)

val edges : Obs.t -> edge list
(** Every retained rw-antidependency edge, in emission order. *)

val exclusions : Obs.t -> exclusion list
(** Every retained SSN/ESSN exclusion-window violation, in emission
    order. *)

val doomed : Obs.t -> (int * string) list
(** [(xid, reason)] for every certifier doom/fail decision retained
    (any namespace), in emission order.  One transaction can appear more
    than once (doomed, then failing at its own commit). *)

val victims : Obs.t -> int list
(** Distinct xids with at least one retained structure or exclusion
    window, ascending. *)

val complete : structure -> bool
(** All three transactions identified and the rule known — nothing about
    the structure was lost to summarization or table overwrites. *)

val render_structure : structure -> string
(** One structure as [T1 x.. --rw--> T2 x.. --rw--> T3 x..] plus rule
    and victim-selection reason. *)

val render_exclusion : exclusion -> string
(** One closed exclusion window as [pstamp >= sstamp] plus the peer that
    closed it and the reason. *)

val render : Obs.t -> string
(** The full report: every victim with its reconstructed structures,
    prefixed by a warning when drop counters say evidence was lost. *)
