(** Multiversion concurrency-control primitives: transaction ids, the
    commit log, snapshots, and tuple visibility.

    Commit order is captured by {e commit sequence numbers} (cseq): every
    commit is assigned the next cseq.  A snapshot is simply the cseq horizon
    at the time it was taken — transaction [w]'s effects are visible to
    snapshot [s] iff [w] committed with a cseq before [s]'s horizon.  This
    is equivalent to PostgreSQL's xmin/xmax/xip snapshot representation and
    is also exactly the quantity SSI's commit-ordering and read-only
    optimizations need (paper §3.3.1, §4.1). *)

type xid = Ssi_storage.Heap.xid
type cseq = int

val invalid_cseq : cseq
(** Sorts after every real cseq ([max_int]): "not committed yet". *)

module Clog : sig
  (** The commit log: status of every transaction ever started. *)

  type status = In_progress | Committed of cseq | Aborted

  type t

  val create : unit -> t

  val new_xid : t -> xid
  (** Allocate the next transaction id (starting at 1) and register it as
      in progress. *)

  val status : t -> xid -> status
  (** Raises [Invalid_argument] for ids never allocated. *)

  val commit : t -> xid -> cseq
  (** Mark committed, assigning the next commit sequence number. *)

  val abort : t -> xid -> unit

  val next_cseq : t -> cseq
  (** The cseq that the next commit will receive. *)

  val install : t -> xid -> status -> unit
  (** Recovery replay: record [xid]'s status under its original id (and
      original cseq for commits), bumping the xid/cseq allocators past it
      so nothing handed out later collides with replayed history. *)

  val commit_cseq : t -> xid -> cseq
  (** [Committed c -> c]; {!invalid_cseq} otherwise. *)

  val is_committed : t -> xid -> bool
end

module Snapshot : sig
  type t = {
    owner : xid;  (** the transaction the snapshot belongs to; 0 for none *)
    horizon : cseq;  (** commits with cseq < horizon are visible *)
  }

  val take : Clog.t -> owner:xid -> t

  val sees_xid : Clog.t -> t -> xid -> bool
  (** Whether [xid]'s effects are visible: it is the owner itself, or it
      committed before the horizon. *)
end

(** Tuple-level visibility, returning the rw-conflict information SSI's
    write-before-read detection needs (paper §5.2). *)
module Visibility : sig
  type verdict =
    | Visible of xid option
        (** The tuple version is visible.  [Some w]: it has been deleted or
            superseded by [w], which is in progress or committed after the
            snapshot — the reader has a rw-antidependency out to [w]. *)
    | Invisible of xid option
        (** Not visible.  [Some w]: it was created by [w], in progress or
            committed after the snapshot — the reader read {e around} [w]'s
            write, a rw-antidependency out to [w].  [None]: e.g. creator
            aborted, or deleted before the snapshot. *)

  val check : Clog.t -> Snapshot.t -> Ssi_storage.Heap.tuple -> verdict

  val find_visible :
    Clog.t ->
    Snapshot.t ->
    skipped:(xid -> unit) ->
    Ssi_storage.Heap.tuple ->
    Ssi_storage.Heap.tuple
  (** Walk a version chain from its head (as {!Ssi_storage.Heap.head}
      returns it, {!Ssi_storage.Heap.absent} included) and return the
      newest visible version, or [Heap.absent] when none is, calling
      [skipped w] for each conflicting writer [w] of an invisible newer
      version passed on the way, in chain order.  The walk allocates
      nothing.  The one walk behind {!latest_visible} and the engine's read
      path. *)

  val deleter : Clog.t -> Snapshot.t -> Ssi_storage.Heap.tuple -> xid
  (** For a version {!find_visible} returned: its deleter when that is a
      rw-antidependency out of the reader (in progress or committed after
      the snapshot), else [Heap.invalid_xid]. *)

  val latest_visible :
    Clog.t -> Snapshot.t -> Ssi_storage.Heap.tuple -> (Ssi_storage.Heap.tuple * xid option) option * xid list
  (** Walk a version chain from its head and return the newest visible
      version together with its deletion conflict, plus the list of
      conflict xids gathered from invisible newer versions passed on the
      way.  [None, conflicts] when no version is visible.  A wrapper over
      {!find_visible} and {!deleter}. *)
end
