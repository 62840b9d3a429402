(** The reusable buffers of an index scan that cannot suspend.

    A scan records each tuple it read under a SIREAD lock as a (key, heap
    page) pair and each row it returns.  The engine owns one buffer and
    reuses it for every such scan, so after warm-up a scan allocates only
    the rows it returns and the list cells that carry them.

    Every scan must empty the buffer before the next one starts, and must
    not suspend while it holds entries: the buffer is shared by every
    transaction of the engine.  The 2PL scan, whose lock acquisitions can
    suspend, does not use it. *)

open Ssi_storage

type t

val create : unit -> t

val add_read : t -> key:Value.t -> page:int -> unit
(** Record a tracked read of the tuple [key] on heap page [page]. *)

val flush_reads : t -> (page:int -> Value.t array -> pos:int -> len:int -> unit) -> unit
(** Hand the recorded reads to [lock] one heap page at a time, then forget
    them.  Pages come in the order they were first read and each page's
    keys in the order they were read: [lock ~page keys ~pos ~len] gets
    them as the slice [keys.(pos) .. keys.(pos + len - 1)], which is valid
    only during the call.  Grouping costs O(reads), whatever the number of
    pages. *)

val add_row : t -> Value.t array -> unit
(** Record a row the scan returns. *)

val take_rows : t -> Value.t array list
(** The recorded rows in the order they were added; the buffer forgets
    them. *)

val drop_rows : t -> unit
(** Forget the recorded rows: a scan that fails returns none. *)
