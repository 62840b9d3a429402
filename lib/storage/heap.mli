(** Versioned heap relations, modelled on the PostgreSQL heap.

    Every logical row is a chain of tuple versions ordered newest-first.
    Each version carries the transaction id that created it ([xmin]) and,
    once deleted or superseded, the transaction id that did so ([xmax]) —
    exactly the data PostgreSQL's visibility checks and SSI's
    write-before-read conflict detection consume.  Versions live at physical
    locations ([tid]s: page number and slot), which is what page-granularity
    SIREAD locks name.

    This module stores versions and chains only; it knows nothing about
    visibility or isolation — that logic lives in [Ssi_mvcc] and the
    engine. *)

type xid = int
(** Transaction id; [0] means "none" (e.g. an unset [xmax]). *)

val invalid_xid : xid

type tid = { page : int; slot : int }
(** Physical tuple location. *)

type tuple = private {
  mutable tid : tid;  (** mutable so table rewrites (DDL) can relocate *)
  key : Value.t;
  row : Value.t array;
  xmin : xid;
  mutable xmax : xid;
  mutable prev : tuple option;  (** next older version of the same row *)
}

type t
(** A heap relation. *)

val create : ?tuples_per_page:int -> Schema.t -> t
(** [tuples_per_page] (default 64) controls the tid→page mapping. *)

val schema : t -> Schema.t
val rel_name : t -> string

val generation : t -> int
(** Bumped by {!rewrite}; lets lock managers notice that physical locations
    changed and page/tuple locks must be promoted (paper §5.2.1). *)

val insert_version : t -> key:Value.t -> row:Value.t array -> xmin:xid -> tuple
(** Append a new version for [key], linking the existing newest version (if
    any) as its predecessor and installing it as chain head.  The caller is
    responsible for having set the predecessor's [xmax]. *)

val set_xmax : tuple -> xid -> unit
(** Record the deleter/updater of a version ([0] clears it, e.g. on
    rollback). *)

val absent : tuple
(** The sentinel version: no heap ever holds it.  {!head} returns it for a
    key with no versions, so a lookup allocates no option. *)

val is_absent : tuple -> bool
(** Whether a version is {!absent} (physical equality). *)

val head : t -> Value.t -> tuple
(** Newest version of a row, committed or not; {!absent} when the key has
    no versions. *)

val unlink_head : t -> Value.t -> unit
(** Roll back an insertion: remove the newest version of [key], restoring
    its predecessor (if any) as head.  Raises [Invalid_argument] when the
    key has no versions. *)

val versions : tuple -> tuple Seq.t
(** The version chain from this version towards older ones (inclusive). *)

val iter_heads : t -> (tuple -> unit) -> unit
(** Iterate over the newest version of every row, in unspecified order. *)

val fold_heads : t -> init:'a -> f:('a -> tuple -> 'a) -> 'a

val cardinal : t -> int
(** Number of live chains (rows that have at least one version). *)

val npages : t -> int
(** Number of heap pages allocated so far (at least 1). *)

val page_of_tid : tid -> int

val rewrite : t -> unit
(** Simulate a table-rewriting DDL statement (CLUSTER / ALTER TABLE):
    relocates every version to fresh tids and bumps {!generation}. *)

val prune : t -> live:(tuple -> bool) -> unit
(** Vacuum-lite: drop chain suffixes of versions for which [live] is false.
    Chain heads are never dropped; only older versions are. *)
