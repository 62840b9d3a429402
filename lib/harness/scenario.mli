(** One skeleton for the seeded robustness scenarios: the plain chaos plan
    ({!Chaos}), the kill-point torture sweep ({!Ssi_fault.Torture.Sweep}),
    the read fleet ({!Readfleet}) and sharded 2PC ({!Sharded}).  Each is a
    deterministic function from a configuration to a plain-data outcome plus
    a verdict; {!replay} checks the determinism the same way for all four. *)

module type S = sig
  type cfg

  type outcome
  (** Plain data (no closures, no engines): replay compares its bytes. *)

  val header : cfg -> string
  (** Printed before the run: the scenario and its knobs. *)

  val run : cfg -> outcome
  val pp : Format.formatter -> outcome -> unit

  val ok : outcome -> bool
  (** The scenario's verdict: oracle clean, invariants held. *)
end

val history_violation : string -> Ssi_check.Dsg.history list -> string option
(** [history_violation name histories]: the recorded histories, checked
    as one graph ({!Ssi_check.Dsg}), have a cycle or a read that was not
    the last version committed before its snapshot; the description
    starts with [name]. *)

val lineage :
  Ssi_check.Dsg.history -> promote_cseq:int -> Ssi_check.Dsg.history -> Ssi_check.Dsg.history
(** [lineage old ~promote_cseq promoted]: the one history a failover
    leaves — the old primary's entries at cseq [<= promote_cseq], then
    the promoted engine's, which keeps the old era's xids and cseqs. *)

type 'o verdict = {
  outcome : 'o;  (** the first run's *)
  ok : bool;  (** [S.ok outcome] *)
  identical : bool;  (** the second run's outcome was byte-identical *)
  exit_code : int;  (** 0 iff [ok && identical] *)
}

val replay : (module S with type cfg = 'c and type outcome = 'o) -> 'c -> 'o verdict
(** Run the scenario twice from the same configuration. *)

val main : (module S with type cfg = 'c and type outcome = 'o) -> 'c -> int
(** {!replay} reported on stdout: the header, the outcome and a
    [replay: byte-identical] (or [DIVERGED]) line.  Returns the exit
    code. *)
