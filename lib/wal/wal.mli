(** The durable log: commit/prepare/abort/checkpoint records serialized to
    a simulated durable device with per-record CRCs and length framing.

    Durability here is earned, not assumed: {!append} stages a record in a
    volatile pending buffer; only {!flush} (an fsync) moves it to the
    durable region.  Under the simulator, appends are batched — one flush
    timer per [flush_interval] window serves every commit staged inside it
    (group commit), and committers block in {!wait_durable} until their
    record's lsn is covered.  Outside a simulation every append flushes
    synchronously.

    A {!crash} models power loss with an fsync in flight: the pending
    bytes are lost, except that an optional {!damage} writes a mangled
    prefix of them to the device first — a torn write (cut mid-record), a
    short write (trailing bytes dropped), or a bit flip.  Bytes that a
    completed {!flush} put in the durable region are never damaged, so an
    acknowledged commit always survives.  {!read_all} replays the durable
    region and truncates at the first frame that is incomplete, fails its
    CRC, or does not decode — the recovery truncation rule.

    Metrics (in the registry passed to {!create} / {!set_obs}):
    [wal.appends], [wal.flushes], and the [wal.group_commit_size]
    histogram of records per flush. *)

open Ssi_storage
module Predlock = Ssi_core.Predlock

(** {1 Record format} *)

(** A logged data operation, mirroring the engine's redo ops. *)
type op =
  | Insert of { table : string; key : Value.t; row : Value.t array }
  | Update of { table : string; key : Value.t; row : Value.t array }
  | Delete of { table : string; key : Value.t }

type index_def = {
  i_name : string;
  i_column : string;
  i_pred_locks : bool;
  i_next_key : bool;
}

type table_def = { d_name : string; d_cols : string list; d_key : string }

type prepared_image = {
  p_xid : int;
  p_gid : string;
  p_snap_cseq : int;
  p_ops : op list;  (** in execution order *)
  p_sireads : Predlock.target list;
      (** the SIREAD locks persisted with the 2PC state file (paper §5.7):
          recovery reinstalls them so the transaction's conservative
          conflict flags have predicate locks to fire against *)
}

type table_image = {
  s_def : table_def;
  s_indexes : index_def list;  (** secondary indexes *)
  s_rows : Value.t array list;  (** rows visible at the checkpoint horizon *)
}

type record =
  | Schema of table_def  (** CREATE TABLE *)
  | Index of { table : string; def : index_def }  (** CREATE INDEX *)
  | Commit of {
      c_xid : int;
      c_cseq : int;
      c_gid : string option;  (** [Some gid]: COMMIT PREPARED *)
      c_ops : op list;  (** in execution order *)
      c_safe : bool;  (** safe-snapshot point for replicas (§7.2) *)
    }
  | Prepare of prepared_image
  | Abort of { a_xid : int; a_gid : string }  (** ROLLBACK PREPARED *)
  | Checkpoint of {
      k_cseq : int;  (** commits with cseq <= this are in the image *)
      k_tables : table_image list;
      k_prepared : prepared_image list;  (** prepared as of the checkpoint *)
    }
  | Epoch of int  (** replication epoch adopted by the local primary *)

(** {1 The device} *)

type t

val create : ?obs:Ssi_obs.Obs.t -> ?flush_interval:float -> unit -> t
(** [flush_interval] (default [0.]) is the group-commit batching window in
    virtual seconds; [0.] — or running outside a simulation — makes every
    append flush synchronously. *)

val set_obs : t -> Ssi_obs.Obs.t -> unit
(** Re-register the [wal.*] metrics in another registry (e.g. the engine
    that adopts this log at recovery). *)

val set_flush_interval : t -> float -> unit
val flush_interval : t -> float

val append : t -> record -> int
(** Frame, checksum and stage a record; returns the lsn (end byte offset)
    to pass to {!wait_durable}.  On a dead device it fails with the
    retryable [Db_error.Transient_fault] "durable log lost in crash", the
    device's one error: the caller must not acknowledge the record. *)

val flush : t -> unit
(** Force the pending buffer to the durable region now (fsync). *)

val wait_durable : t -> Ssi_util.Waitq.scheduler -> int -> unit
(** Block until the durable region covers [lsn].  Fails as {!append} does
    if the device dies first. *)

(** Damage applied to the flush in flight at the crash.  Offsets/counts
    are interpreted against the pending buffer; the caller draws them from
    its seeded rng. *)
type damage =
  | Torn_write of int  (** only this prefix of the pending bytes lands *)
  | Short_write of int  (** the last [n] pending bytes never land *)
  | Bit_flip of int  (** all pending bytes land, with bit [n mod bits] flipped *)

val crash : ?damage:damage -> t -> unit
(** Kill the device: pending bytes are lost (modulo [damage], which writes
    a mangled prefix of them), waiters are woken to fail, and further
    appends fail — the node is down until {!reopen}. *)

val is_dead : t -> bool

val reopen : t -> unit
(** Bring the device back after recovery replayed it: appends resume after
    the (possibly truncated) durable tail. *)

val durable_size : t -> int
val pending_size : t -> int
val pending_records : t -> int

(** {1 Replay and persistence} *)

val read_all : t -> record list * int
(** Decode the durable region in append order, stopping at the first
    incomplete, CRC-failing or undecodable frame.  Returns the records and
    the number of truncated tail bytes. *)

val truncate_damaged_tail : t -> int
(** Physically drop the undecodable tail (returning its size) so that
    post-recovery appends follow the last valid record. *)

val save : t -> string -> unit
(** Write the durable region to a file (pending bytes are not durable and
    are not written). *)

val load : ?obs:Ssi_obs.Obs.t -> ?flush_interval:float -> string -> (t, string) result
(** Open a device over a saved log file.  [Error] names a file that cannot
    be read or is not a WAL image; a corrupt tail is fine — it is
    {!read_all}'s truncation, not a load failure. *)
