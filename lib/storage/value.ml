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

(* [Hashtbl.hash f] without boxing [f]: the runtime's [caml_hash] on one
   double is MurmurHash3's 32-bit mixing of its low word, then its high
   word (NaNs and -0. normalised first), then the final avalanche, kept to
   30 bits.  Written in [Int32], whose arithmetic wraps as the C code's
   does, and inlined into [hash], so every intermediate stays unboxed and
   nothing is allocated. *)
let[@inline] rotl32 x n = Int32.logor (Int32.shift_left x n) (Int32.shift_right_logical x (32 - n))

let[@inline] murmur_mix h d =
  let d = rotl32 (Int32.mul d 0xcc9e2d51l) 15 in
  let h = rotl32 (Int32.logxor h (Int32.mul d 0x1b873593l)) 13 in
  Int32.add (Int32.mul h 5l) 0xe6546b64l

let[@inline] xorshift h n = Int32.logxor h (Int32.shift_right_logical h n)

let[@inline] hash_float f =
  let bits = Int64.bits_of_float f in
  let lo = Int64.to_int32 bits and hi = Int64.to_int32 (Int64.shift_right_logical bits 32) in
  let nan =
    Int32.equal (Int32.logand hi 0x7FF00000l) 0x7FF00000l
    && not (Int32.equal (Int32.logor lo (Int32.logand hi 0xFFFFFl)) 0l)
  in
  let lo = if nan then 1l else lo in
  let hi =
    if nan then 0x7FF00000l
    else if Int32.equal hi 0x80000000l && Int32.equal lo 0l then 0l
    else hi
  in
  let h = murmur_mix (murmur_mix 0l lo) hi in
  let h = Int32.mul (xorshift h 16) 0x85ebca6bl in
  let h = Int32.mul (xorshift h 13) 0xc2b2ae35l in
  Int32.to_int (xorshift h 16) land 0x3FFFFFFF

let hash = function
  | Null -> 17
  | Bool b -> if b then 31 else 37
  (* Int and Float hash through the same float representation so that the
     hash is compatible with [equal], which compares them numerically. *)
  | Int i -> hash_float (float_of_int i)
  | Float f -> hash_float f
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
