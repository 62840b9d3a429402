(** Table schemas: a named, ordered set of columns with a primary-key
    column.  Rows are [Value.t array]s positionally matching the columns. *)

type t

val make : name:string -> cols:string list -> key:string -> t
(** [make ~name ~cols ~key] builds a schema.  [key] must be one of [cols].
    Raises [Db_error.Error] ([Duplicate_object] or [Undefined_object]) on
    duplicate or unknown column names. *)

val name : t -> string
val columns : t -> string array
val arity : t -> int
val key_index : t -> int

val column_index : t -> string -> int
(** Position of a column; raises [Not_found] for unknown names. *)

val key_of_row : t -> Value.t array -> Value.t
(** Extract the primary-key value of a row. *)

val check_row : t -> Value.t array -> unit
(** Raises [Db_error.Error (Invalid_request _)] when the row arity does not
    match. *)

val pp : Format.formatter -> t -> unit
