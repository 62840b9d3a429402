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

(* A multiply-xorshift finaliser: every input bit reaches the low bits a
   hash table indexes by, in plain OCaml arithmetic (no C call, no
   allocation). *)
let mix h =
  let h = (h lxor (h lsr 31)) * 0x1d6e8feb86659fd9 in
  let h = (h lxor (h lsr 29)) * 0x1d6e8feb86659fd9 in
  (h lxor (h lsr 32)) land max_int

(* Consistent with [equal]: an [Int] and the [Float] it equals hash alike,
   through the integer when the float is integral, and all NaNs, which
   [equal] identifies, hash alike. *)
let hash_num f =
  if Float.abs f < 0x1p62 && Float.of_int (Float.to_int f) = f then mix (Float.to_int f)
  else if Float.is_nan f then 0
  else mix (Int64.to_int (Int64.bits_of_float f))

let hash_key = function
  | Null -> 0
  | Bool b -> if b then 1 else 2
  (* Within +-2^53 an int converts to float exactly, so [hash_num] would
     return [mix i] anyway. *)
  | Int i ->
      if i >= -0x20000000000000 && i <= 0x20000000000000 then mix i
      else hash_num (float_of_int i)
  | Float f -> hash_num f
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
