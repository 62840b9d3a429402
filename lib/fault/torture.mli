(** Kill-point torture: crash the durable log at every k-th engine fault
    point, recover, and check the durability contract.

    Each {!run_one} lives twice.  The {e first life} runs a seeded
    workload (plus prepared-transaction sentinels) against an engine with
    an attached {!Ssi_wal.Wal} device under group commit, and crashes the
    device at the [kill_point]-th engine fault point — optionally writing
    a seeded torn write / short write / bit flip as the flush in flight.
    The {e second life} cold-starts with [Engine.recover], resolves every
    in-doubt prepared transaction (alternating COMMIT PREPARED and
    ROLLBACK PREPARED), runs more workload, and resyncs a streaming
    replica from the recovered primary at a fenced higher epoch.

    The {!outcome} records the invariants:
    - no acknowledged commit is lost ([o_lost_acked = \[\]]);
    - the recovered commit records form a dense cseq prefix [1..n]
      ([o_dense_prefix]) — tail truncation never punches holes;
    - the in-doubt set after recovery is exactly what the log prescribes
      ([o_prepared_ok]);
    - the recovered table equals the replay of the recovered commits
      ([o_state_ok]);
    - the streaming replica converges to the recovered primary
      ([o_replica_ok]);
    and the combined pre/post-crash committed history ([o_history]) for
    the caller's serializability check.  Both lives' engines record their
    histories ({!Ssi_engine.Engine.set_recorder}); recovery replays with
    the original xids and cseqs, so the first life's recovered commits and
    the second life's commits form one history. *)

type resolution = Committed | Rolled_back

type outcome = {
  o_seed : int;
  o_kill_point : int;
  o_crashed : bool;  (** the kill point fired (a [false] ends a sweep) *)
  o_damage : string option;  (** description of the applied damage, if any *)
  o_acked : int list;  (** cseqs acknowledged to clients before the crash *)
  o_lost_acked : int list;  (** acked cseqs missing after recovery: must be [[]] *)
  o_dense_prefix : bool;  (** recovered commit cseqs are exactly [1..n] *)
  o_truncated : int;  (** damaged tail bytes dropped at recovery *)
  o_replayed : int;  (** post-checkpoint log records replayed *)
  o_prepared_pending : (string * resolution) list;
      (** in-doubt transactions recovered, and the verdict applied *)
  o_prepared_ok : bool;  (** recovered in-doubt set matches the log *)
  o_state_ok : bool;  (** recovered table = replay of recovered commits *)
  o_replica_ok : bool;  (** streaming replica converged to the primary *)
  o_epoch : int;  (** epoch the recovered primary resumed at (> crashed) *)
  o_history : Ssi_engine.Recorded.txn list;
      (** the first life's commits that recovery kept, then the second
          life's, in commit order *)
  o_final : (int * int) list;  (** final (key, writer) rows *)
}

val invariants_ok : outcome -> bool
(** All of [o_lost_acked = []], [o_dense_prefix], [o_prepared_ok],
    [o_state_ok] and [o_replica_ok]. *)

val run_one :
  ?wal_out:string -> ?certifier:Ssi_core.Certifier.kind ->
  seed:int -> kill_point:int -> with_damage:bool -> unit -> outcome
(** One crash/recover cycle.  [kill_point] counts engine fault points
    (data operations, commits, prepares) after setup; if the workload
    finishes first, [o_crashed] is [false] and the run still recovers from
    the intact log.  [with_damage] draws a seeded torn write, short write
    or bit flip for the flush in flight.  [wal_out] saves the (crashed,
    truncated) device image to a file for [pg_ssi recover].  [certifier]
    (default SSI) selects the serializability certifier for both lives —
    first-life workload and the recovered engine. *)

val sweep :
  ?wal_out:string -> ?certifier:Ssi_core.Certifier.kind ->
  ?max_kills:int -> ?kill_every:int ->
  seed:int -> with_damage:bool -> unit -> outcome list
(** Crash at fault point [kill_every], [2*kill_every], ... (one {!run_one}
    each, at most [max_kills] runs, default 64) until a run completes
    without crashing — the exhaustive scan of crash points the durability
    claim is checked against.  [wal_out] applies to the first run. *)

(** The sweep as a {!Ssi_harness.Scenario.S}: [pg_ssi chaos --kill-points]. *)
module Sweep : sig
  type cfg = {
    seed : int;
    certifier : Ssi_core.Certifier.kind;
    kill_points : int;  (** [max_kills] *)
    kill_every : int;
    torn_writes : bool;  (** [with_damage] *)
    wal_out : string option;
  }

  type nonrec outcome = { runs : outcome list; saved_to : string option }

  val header : cfg -> string
  val run : cfg -> outcome
  val pp : Format.formatter -> outcome -> unit

  val ok : outcome -> bool
  (** Every run kept {!invariants_ok}. *)
end
