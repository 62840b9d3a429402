(** Heavyweight multigranularity lock manager with deadlock detection.

    This is the substrate for the strict two-phase-locking baseline the
    paper compares against (§8): "classic" read locks acquired in the
    heavyweight lock manager, plus the appropriate intention locks.  It is
    a blocking lock manager: acquisition suspends the caller (through the
    scheduler handed to {!create}) until the lock is granted, and a
    waits-for cycle raises {!Deadlock} in the requester, which the engine
    turns into a serialization failure.

    Lock targets use the same granularities as the SSI lock manager:
    relation, heap page, tuple, and index leaf page. *)

open Ssi_storage

type target =
  | Relation of string
  | Page of string * int
  | Tuple of string * Value.t
  | Index_page of string * int

val target_to_string : target -> string
(** ["rel:t"], ["page:t/3"], ["tuple:t/<key>"] or ["idxpage:i/3"], keys as
    {!Value.to_string}. *)

val pp_target : Format.formatter -> target -> unit
(** Prints {!target_to_string}. *)

type mode = IS | IX | S | SIX | X

val mode_to_string : mode -> string
(** ["IS"], ["IX"], ["S"], ["SIX"] or ["X"]. *)

val pp_mode : Format.formatter -> mode -> unit
(** Prints {!mode_to_string}. *)

val compatible : mode -> mode -> bool
(** Standard multigranularity compatibility matrix. *)

val covers : mode -> mode -> bool
(** [covers held requested]: holding [held] makes acquiring [requested]
    redundant (e.g. [X] covers everything, [SIX] covers [S]). *)

exception Deadlock of { victim : Heap.xid; cycle : Heap.xid list }
(** Raised in the requester whose wait would close a waits-for [cycle] (which ends with it). *)

type t

val create : ?obs:Ssi_obs.Obs.t -> Ssi_util.Waitq.scheduler -> t
(** [obs] is the metrics registry this lock manager reports into
    ([lockmgr.waits] counts requests that had to block, and
    [lockmgr.deadlocks] counts cycles detected); a private registry is
    created when omitted.  A request that blocks opens a [lockmgr.wait]
    span under its owner's transaction span: the registry is the lock
    manager's only debug channel. *)

val acquire : t -> owner:Heap.xid -> target -> mode -> unit
(** Grant the lock, suspending while incompatible locks are held by other
    owners.  Re-acquiring a covered mode is a no-op.  May raise
    {!Deadlock} (the request is withdrawn first) or
    [Db_error.Error Lock_not_available] under the direct scheduler. *)

val try_acquire : t -> owner:Heap.xid -> target -> mode -> bool
(** Like {!acquire} but returns [false] instead of waiting. *)

val release_all : t -> owner:Heap.xid -> unit
(** Drop every lock held by [owner] (commit/abort), granting waiters. *)

val holds : t -> owner:Heap.xid -> target -> mode -> bool
(** Whether [owner] holds a mode covering [mode] on [target]. *)

val held_by : t -> target -> (Heap.xid * mode) list
(** Current holders (for tests and introspection). *)

val lock_count : t -> int
(** Total number of (owner, mode) holder entries, summed over targets. *)

val waiting_count : t -> int
(** Number of suspended requests (for tests). *)
