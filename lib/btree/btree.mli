(** B+-tree secondary indexes with page-granularity predicate-lock hooks.

    The tree maps index keys to primary keys (non-unique: several entries
    may share an index key; the [(index key, primary key)] pair is unique).
    Leaves are chained for range scans.

    Two properties exist purely for SSI (paper §5.2.1):
    - every scan reports the ids of the {e leaf pages it examined}, which is
      what the SSI lock manager locks to detect phantoms ("index-gap"
      locks at page granularity);
    - {!set_on_split} registers a callback fired when a leaf page splits, so
      the lock manager can copy predicate locks from the old page to the new
      one (otherwise a lock could silently stop covering its gap).

    Deletion does not merge pages; underfull leaves persist.  This matches
    the needs of the reproduction (PostgreSQL's page recycling interacts
    with predicate locks via the same promote-to-relation path as DDL,
    which [Heap.rewrite] already exercises). *)

open Ssi_storage

type t

val create : ?order:int -> name:string -> unit -> t
(** [order] (default 32) is the maximum number of entries per leaf and of
    children per internal node; it must be at least 4. *)

val name : t -> string

val set_on_split : t -> (old_page:int -> new_page:int -> unit) -> unit
(** Register the page-split hook.  At most one hook is active. *)

val insert : t -> key:Value.t -> pk:Value.t -> int * bool
(** Add an entry and return the id of the leaf page that now contains it
    (after any split), plus whether the entry was actually new.  Duplicate
    [(key, pk)] insertions are idempotent. *)

val delete : t -> key:Value.t -> pk:Value.t -> bool
(** Remove an entry; returns whether it was present. *)

val walk :
  t -> lo:Value.t -> hi:Value.t -> page:(int -> unit) -> entry:(Value.t -> Value.t -> unit) -> unit
(** The one range walk.  Calls [page id] for each leaf page examined,
    leftmost first, and [entry key pk] for each entry with
    [lo <= key <= hi], in ascending order; each page is announced before
    its entries.  The page holding the first entry beyond the range is also
    examined (and therefore announced): it covers the gap just past [hi].
    The walk itself allocates nothing; {!range} and {!lookup} are
    list-building wrappers over it. *)

val walk_pages : t -> lo:Value.t -> hi:Value.t -> page:(int -> unit) -> unit
(** The pages {!walk} announces, in the same order, without visiting
    entries: each leaf costs one comparison, and the walk allocates
    nothing.  What a page-granularity gap lock needs. *)

val lookup : t -> Value.t -> pages:int list ref -> Value.t list
(** Primary keys indexed under exactly [key]: {!range} over [[key, key]],
    keeping the primary keys. *)

val range : t -> lo:Value.t -> hi:Value.t -> pages:int list ref -> (Value.t * Value.t) list
(** Entries with [lo <= key <= hi] in ascending order, as
    [(key, pk)] pairs, prepending each leaf-page id {!walk} announces to
    [pages] (so [pages] ends up rightmost first). *)

val next_key_after : t -> Value.t -> Value.t option
(** The smallest index key strictly greater than [key], if any — the
    "next key" of ARIES/KVL-style next-key locking. *)

val iter : t -> (Value.t -> Value.t -> unit) -> unit
(** Full in-order iteration (no page reporting; sequential scans take a
    relation-level lock instead). *)

val cardinal : t -> int

val height : t -> int

val leaf_pages : t -> int list
(** Ids of all current leaf pages, leftmost first (for tests). *)

val check_invariants : t -> unit
(** Raises [Failure] if a structural invariant is broken: order bounds,
    sortedness, separator correctness, uniform depth, leaf-chain
    consistency.  For tests. *)
