(** A committed transaction as an engine's recorder saw it
    ({!Engine.set_recorder}): the raw material of the dependency graph
    that [Ssi_check.Dsg] builds (Adya's DSG, paper §3.1).

    Versions are named by the xid of the transaction that created them,
    and commit order is the commit sequence number ([cseq]) of the engine
    that recorded the entry.  A snapshot [horizon] is exclusive: the
    reader saw exactly the commits with [cseq < horizon]. *)

open Ssi_storage

type read =
  | Point of { rel : string; key : Value.t; version : int option; horizon : int }
      (** A point read by primary key.  [version] is the creator xid of
          the version returned, [None] when the key was absent. *)
  | Scan of {
      rel : string;
      range : (string * Value.t * Value.t) option;
      horizon : int;
      own : Value.t list;
    }
      (** A predicate read: an index scan of [(index, lo, hi)], or with
          [range = None] a sequential scan of the whole relation.  It
          returned the reader's own version of the rows in [own] (the
          primary keys of [rel] the transaction had written when it
          scanned), and of every other row the last version committed
          before [horizon]. *)

type write = {
  rel : string;
  key : Value.t;  (** primary key of the row written *)
  old_keys : (string * Value.t) list;
      (** [(index, key)] of every index entry of the version replaced;
          [[]] when the row had no live version (an insert) *)
  new_keys : (string * Value.t) list;
      (** the same for the version installed; [[]] for a delete *)
}
(** One row the transaction left changed, however many times it wrote it. *)

type txn = {
  xid : int;
  gid : string option;
      (** The global name of a distributed transaction's branch: the 2PC
          gid, or a tag ({!Engine.tag}).  Entries of different recorders
          with the same gid are one transaction. *)
  cseq : int;
  reads : read list;  (** in the order issued *)
  writes : write list;
}

val pp_read : Format.formatter -> read -> unit
val pp_write : Format.formatter -> write -> unit
