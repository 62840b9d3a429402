type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string

let rank = function Null -> 0 | Bool _ -> 1 | Int _ | Float _ -> 2 | Str _ -> 3

let compare a b =
  match (a, b) with
  | Null, Null -> 0
  | Bool x, Bool y -> Bool.compare x y
  | Int x, Int y -> Int.compare x y
  | Float x, Float y -> Float.compare x y
  | Int x, Float y -> Float.compare (float_of_int x) y
  | Float x, Int y -> Float.compare x (float_of_int y)
  | Str x, Str y -> String.compare x y
  | (Null | Bool _ | Int _ | Float _ | Str _), _ -> Int.compare (rank a) (rank b)

let equal a b = compare a b = 0

let hash = function
  | Null -> 17
  | Bool b -> if b then 31 else 37
  (* Int and Float hash through the same float representation so that the
     hash is compatible with [equal], which compares them numerically. *)
  | Int i -> Hashtbl.hash (float_of_int i)
  | Float f -> Hashtbl.hash f
  | Str s -> Hashtbl.hash s

(* The primitive behind Printf's [%g], which expands it to ["%.6g"]. *)
external format_float : string -> float -> string = "caml_format_float"

(* Built directly rather than through [Format]: trace and span fields call
   this per operation.  Same text as [%g] for floats and [%S] for strings. *)
let to_string = function
  | Null -> "NULL"
  | Bool b -> string_of_bool b
  | Int i -> string_of_int i
  | Float f -> format_float "%.6g" f
  | Str s -> "\"" ^ String.escaped s ^ "\""

let pp ppf v = Format.pp_print_string ppf (to_string v)

let as_int = function Int i -> i | v -> invalid_arg ("Value.as_int: " ^ to_string v)

let as_float = function
  | Float f -> f
  | Int i -> float_of_int i
  | v -> invalid_arg ("Value.as_float: " ^ to_string v)

let as_string = function Str s -> s | v -> invalid_arg ("Value.as_string: " ^ to_string v)
let as_bool = function Bool b -> b | v -> invalid_arg ("Value.as_bool: " ^ to_string v)
