(** SIBENCH (§8.1): a single table of [rows] key/value pairs; the mix is
    50% update transactions (set the value of one random key) and 50% query
    transactions (scan the whole table for the key with the lowest value).

    Queries scan in chunks of [chunk] keys per operation so that they take
    time proportional to the table size and, under SSI with the read-only
    optimizations, can be promoted to a safe snapshot mid-transaction once
    the updates concurrent at their start have finished. *)

val table : string

val setup : rows:int -> Ssi_engine.Engine.t -> unit

val specs : rows:int -> ?chunk:int -> unit -> Driver.spec list
(** [chunk] defaults to 50. *)

val query_min : rows:int -> chunk:int -> Ssi_engine.Engine.txn -> int * int
(** The query transaction body, exposed for tests: returns
    [(key, min value)]. *)

