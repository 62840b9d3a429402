(** The SSI lock manager: SIREAD predicate locks (paper §5.2).

    This lock manager stores only SIREAD locks.  It has no modes and cannot
    block; its two operations are "record that a transaction read
    something" and "find who read what a transaction is about to write".
    Locks are held at tuple, heap-page, relation, index-leaf-page, or
    whole-index granularity, and fine-grained locks are automatically
    {e promoted} to coarser ones when a transaction accumulates too many
    (§5.2.1, §6 technique 2).

    Locks survive their owner's commit; the SSI manager above decides when
    they may be released (§6.1) or consolidated into the {e old committed}
    dummy owner during summarization (§6.2).  Locks held by the dummy owner
    carry the commit sequence number of the most recent summarized holder.

    The lock manager also implements the DDL interactions of §5.2.1
    ({!promote_relation} for table rewrites, {!drop_index_to_relation} for
    index removal) and lock transfer on index-page splits.

    Internally every target is keyed on a tag in which the relation or
    index name is interned to an int, like PostgreSQL's fixed-size
    [PREDICATELOCKTARGETTAG]: hashing and comparing a tag allocate nothing,
    and keys that are [Value.equal] ([Int 3], [Float 3.0]) are one target.
    {!target} is the string-named external view. *)

open Ssi_storage

type xid = Heap.xid
type cseq = Ssi_mvcc.Mvcc.cseq

type target =
  | Relation of string
  | Page of string * int
  | Tuple of string * Value.t
  | Index_page of string * int
  | Index_key of string * Value.t
      (** Next-key gap lock: covers the gap below (and the entries at)
          this index key — the refinement to ARIES/KVL-style next-key
          locking the paper names as future work (§5.2.1). *)
  | Index_inf of string
      (** The gap above the highest key of the index. *)
  | Index_rel of string
      (** Whole-index lock, used by promotion and by index access methods
          that do not support predicate locking (§7.4). *)

val target_to_string : target -> string
(** ["rel:t"], ["page:t/3"], ["tuple:t/<key>"], ["idxpage:i/3"],
    ["idxkey:i/<key>"], ["idxinf:i"] or ["idx:i"], keys as
    {!Value.to_string}. *)

val pp_target : Format.formatter -> target -> unit
(** Prints {!target_to_string}. *)

type config = {
  max_tuple_locks_per_page : int;
      (** Tuple locks one owner may hold on one heap page before they are
          promoted to a page lock. *)
  max_page_locks_per_relation : int;
      (** Heap-page locks one owner may hold on one relation before they
          are promoted to a relation lock. *)
  max_page_locks_per_index : int;
      (** Index-page locks one owner may hold on one index before they are
          promoted to a whole-index lock. *)
}

val default_config : config
(** 4 tuple locks per page, 16 page locks per relation or index. *)

type t

val create : ?config:config -> ?obs:Ssi_obs.Obs.t -> unit -> t
(** [obs] is the metrics registry this lock manager reports into
    ([predlock.locks.<granularity>] acquisition counters and
    [predlock.promotions]); a private registry is created when omitted. *)

(** {1 Acquisition} *)

val lock_tuple : t -> owner:xid -> rel:string -> key:Value.t -> page:int -> unit

val lock_tuples_slice :
  t -> owner:xid -> rel:string -> page:int -> Value.t array -> pos:int -> len:int -> unit
(** Acquire tuple locks for a page's worth of keys from one scan, the
    slice [keys.(pos) .. keys.(pos + len - 1)].  The final lock table,
    the readers every [readers_for_*] lookup finds, {!promotions} and
    {!total_lock_count} are exactly what calling {!lock_tuple} on each key
    in order gives.

    The owner's coarse-coverage check runs once for the whole batch: an
    owner already holding a relation- or page-level lock pays nothing per
    tuple.  Otherwise the batch counts the slice's distinct keys the owner
    does not hold yet (a key held from another heap page is not fresh),
    stopping once the count crosses the threshold, and adds the owner's
    tuple locks already on [page].  If the sum exceeds
    [max_tuple_locks_per_page], it counts one promotion and grants the page
    lock directly, which can still promote to a relation lock; otherwise
    it grants the fresh tuple locks in slice order.  Sequential calls
    would grant tuple locks up to the threshold and drop them again at the
    promotion, so the [predlock.locks.tuple] counter counts fewer
    acquisitions: only the tuple locks the batch leaves held.

    Reads the slice only during the call and allocates nothing beyond the
    locks it takes and one lookup tag per key it checks (with a threshold
    above 7, the first batch to need it also grows a scratch array). *)

val lock_tuples_page :
  t -> owner:xid -> rel:string -> page:int -> keys:Value.t list -> unit
(** {!lock_tuples_slice} over a list of keys. *)

val lock_page : t -> owner:xid -> rel:string -> page:int -> unit
val lock_relation : t -> owner:xid -> rel:string -> unit
val lock_index_page : t -> owner:xid -> index:string -> page:int -> unit
val lock_index_key : t -> owner:xid -> index:string -> key:Value.t -> unit
val lock_index_inf : t -> owner:xid -> index:string -> unit
val lock_index_rel : t -> owner:xid -> index:string -> unit

val unlock_tuple : t -> owner:xid -> rel:string -> key:Value.t -> unit
(** Drop one tuple lock if held: the "writer already holds the tuple write
    lock" optimization of §7.3.  A no-op when the lock was promoted away.
    A held tuple lock sits in exactly one of the owner's per-page tuple
    lists, the one of the heap page it was granted on (the [page] given
    to {!lock_tuple}), which the owner's lock set remembers; only that
    list is edited, and only its prefix before the tuple is copied, so
    the cost does not grow with the number of pages the owner holds
    tuple locks on. *)

(** {1 Conflict checking} *)

type readers = {
  xids : xid list;
      (** live/committed owners holding a covering SIREAD lock, in the
          order first seen, coarsest lock first *)
  old_committed : cseq option;
      (** when the dummy owner holds one, the latest commit cseq recorded *)
}
(** The [readers_for_*] lookups probe each of their two or three lock
    tags once, coarsest first, and build nothing else: with no lock on
    any of them they return one shared empty value.  An owner holding
    several of the tags appears once, where it was first seen. *)

val readers_for_write : t -> rel:string -> key:Value.t -> page:int -> readers
(** Who read the tuple being written — checked coarsest to finest:
    relation, then page, then tuple (§5.2.1). *)

val readers_for_index_insert : t -> index:string -> page:int -> readers
(** Who scanned the index gap an entry is being inserted into
    (page-granularity mode). *)

val readers_for_index_insert_nextkey :
  t -> index:string -> key:Value.t -> succ:Value.t option -> readers
(** Next-key mode: who holds a gap lock covering an insert at [key] —
    readers of [key] itself, of its successor key (the gap the new entry
    splits), or of the above-highest gap when there is no successor. *)

(** {1 Lifecycle} *)

val release_owner : t -> xid -> unit
(** Drop every lock of [owner] (abort, safe-snapshot detach, or cleanup).
    The owner's bookkeeping tables are emptied and kept for the next owner
    to take its first lock, so a transaction allocates none of its own. *)

val summarize_owner : t -> xid -> cseq:cseq -> unit
(** Transfer [owner]'s locks to the dummy owner, recording [cseq] (the
    owner's commit sequence number) on each.  The owner's bookkeeping is
    recycled as by {!release_owner}. *)

val cleanup_old_committed : t -> before:cseq -> unit
(** Drop dummy-owner locks whose recorded cseq precedes [before]. *)

(** {1 Structural maintenance} *)

val on_index_page_split : t -> index:string -> old_page:int -> new_page:int -> unit
(** Copy every lock on the old leaf page to the new one, so gap coverage
    survives B+-tree splits. *)

val on_index_key_insert :
  t -> index:string -> key:Value.t -> succ:Value.t option -> unit
(** A physical index entry was inserted at [key], splitting the gap
    guarded by [succ] (or by the +inf sentinel when [succ] is [None]):
    copy the gap's locks down onto [key], so a later insert below [key]
    still sees the readers of the original gap.  Must be called for every
    physical insert into a next-key index, whatever the inserter's
    isolation level — an SI transaction's insert splits gaps too. *)

val on_index_key_remove :
  t -> index:string -> key:Value.t -> succ:Value.t option -> unit
(** The physical entry at [key] was removed (insert rollback), merging
    its gap into [succ]'s (or the +inf sentinel's): copy the removed
    key's locks up, so coverage survives the merge. *)

val promote_relation : t -> rel:string -> unit
(** A rewriting DDL statement invalidated physical locations: promote all
    page and tuple locks on [rel] to relation granularity. *)

val drop_index_to_relation : t -> index:string -> heap_rel:string -> unit
(** The index was dropped: replace index locks with a relation lock on the
    underlying heap relation. *)

(** {1 Introspection} *)

val dump : t -> (target * xid list * cseq option) list
(** Every lock-table entry: target, live holders, and the dummy owner's
    recorded cseq if present — the pg_locks view of the SIREAD table.
    Sorted by target under [compare], so the order does not depend on how
    the table hashes. *)

val held_by : t -> xid -> target list
(** The targets [owner] holds, sorted under [compare]: what a prepared
    transaction persists in its 2PC state record (§7.1). *)

val owner_lock_count : t -> xid -> int
val total_lock_count : t -> int
val holds : t -> owner:xid -> target -> bool
val promotions : t -> int
(** Number of granularity promotions performed so far. *)
