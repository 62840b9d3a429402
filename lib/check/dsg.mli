(** The serializability check of the paper's §3.1: a cycle in Adya's
    direct serialization graph (DSG) over committed transactions.

    A history is what one engine's recorder emitted
    ({!Ssi_engine.Engine.set_recorder}).  Each row's version order is its
    writers' commit order (cseq), built once per history.  Edges:

    {ul
    {- ww: consecutive writers of a row;}
    {- wr: from the writer of the version a point read returned;}
    {- rw: from a point reader to the writer of the next version after
       the one it read (or, for an absent read, to the first writer its
       snapshot did not see);}
    {- predicate reads (Adya's PL-3): a scan at snapshot horizon [h] reads
       each row's last version committed before [h] (wr when that version
       matched the scan, or deleted a row whose old index key matched it:
       the scan saw the delete), and gets an rw edge to the first writer of each
       row its snapshot did not see whose old or new index key falls in
       the scanned range — for a sequential scan, any writer of the
       relation.  Later writers of the row follow by ww.  Rows the reader
       had written itself it read in its own version: no edge.}}

    Several histories check as one graph: entries of different histories
    with the same [gid] are one transaction (the branches of a global
    transaction on their shards), and the rest are distinct.  A gid may be
    reused after its transaction ends: the n-th entry with a gid in one
    history joins the n-th in another.  A version whose creator is no recorded writer
    is the row's state before its history began. *)

type history = Ssi_engine.Recorded.txn list
type cycle

val check : history list -> (unit, cycle) result
(** [Error] names one cycle when the graph has one: a strongly connected
    component of two or more transactions, found by an iterative Tarjan
    pass, so the check is linear in the edges. *)

val cycle_nodes : cycle -> string list
(** The transactions around the cycle, by gid, or by xid ([xid@history]
    when several histories are checked). *)

val pp_cycle : cycle -> string
(** The cycle, its edges with their kinds, and each transaction's reads
    and writes. *)

val stale_read : history list -> string option
(** Snapshot exactness, checked per history: every point read, except of
    a row the reader itself wrote or of its own version, returned the last version committed
    before its horizon (none, or a deletion, for an absent read).  [Some]
    describes the first read that did not. *)
