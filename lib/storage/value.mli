(** SQL-ish dynamically-typed values stored in tuples and index keys. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string

val compare : t -> t -> int
(** Total order: [Null < Bool < Int/Float (numeric order) < Str].  Integers
    and floats compare numerically with each other, as in SQL. *)

val equal : t -> t -> bool

val hash : t -> int
(** Heap iteration order depends on this hash; lock tables use {!hash_key}.
    A number hashes as [Hashtbl.hash] hashes it as a float, computed
    without boxing it: only a string allocates. *)

val mix : int -> int
(** An allocation-free integer finaliser for combining hashes. *)

val hash_key : t -> int
(** Agrees with {!equal}, as {!hash} does, but allocates nothing. *)

val to_string : t -> string
(** [NULL], [true]/[false], the integer, the float as [%g], or the string
    as an OCaml literal ([%S]). *)

val pp : Format.formatter -> t -> unit
(** Prints {!to_string}. *)

(** Accessors raising [Invalid_argument] on a type mismatch. *)

val as_int : t -> int
val as_float : t -> float
(** [as_float] also accepts [Int]. *)

val as_string : t -> string
val as_bool : t -> bool
