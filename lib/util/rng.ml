(* The 64-bit state lives unboxed in 8 bytes and, with the mixing inlined,
   [int] allocates nothing and [float] only its boxed result. *)
type t = Bytes.t

external get : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_state z =
  let t = Bytes.create 8 in
  set t 0 z;
  t

let make seed = of_state (mix64 (Int64.of_int seed))

let[@inline] bits64 t =
  let s = Int64.add (get t 0) golden_gamma in
  set t 0 s;
  mix64 s

let split t = of_state (mix64 (bits64 t))
let copy = Bytes.copy

let[@inline] int t n =
  assert (n > 0);
  (* Rejection-free for practical n: take 62 nonnegative bits and mod.  The
     modulo bias is < n / 2^62, negligible for workload generation. *)
  let v = Int64.to_int (Int64.shift_right_logical (bits64 t) 2) in
  v mod n

let int_incl t lo hi =
  assert (lo <= hi);
  lo + int t (hi - lo + 1)

let[@inline] float t x =
  let v = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) in
  (* 53 significant bits, uniform in [0,1). *)
  x *. (v /. 9007199254740992.0)

let bool t = Int64.logand (bits64 t) 1L = 1L
let chance t p = float t 1.0 < p

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

type zipf = { n : int; alpha : float; zetan : float; eta : float; half_pow : float }

let zipf ~n ~theta =
  assert (n > 0);
  if theta <= 0. then { n; alpha = 0.; zetan = 0.; eta = 0.; half_pow = 0. }
  else begin
    let zetan = ref 0. in
    for i = 1 to n do
      zetan := !zetan +. (1. /. Float.pow (float_of_int i) theta)
    done;
    let zeta2 = 1. +. (1. /. Float.pow 2. theta) in
    let alpha = 1. /. (1. -. theta) in
    let eta =
      (1. -. Float.pow (2. /. float_of_int n) (1. -. theta))
      /. (1. -. (zeta2 /. !zetan))
    in
    { n; alpha; zetan = !zetan; eta; half_pow = 1. +. Float.pow 0.5 theta }
  end

let zipf_sample z t =
  if z.alpha = 0. then int t z.n
  else begin
    let u = float t 1.0 in
    let uz = u *. z.zetan in
    if uz < 1. then 0
    else if uz < z.half_pow then 1
    else
      let idx =
        int_of_float (float_of_int z.n *. Float.pow ((z.eta *. u) -. z.eta +. 1.) z.alpha)
      in
      if idx >= z.n then z.n - 1 else if idx < 0 then 0 else idx
  end

let nurand t ~a ~x ~y =
  (* C is derived deterministically from A; the TPC-C validity rules on C are
     irrelevant for shape reproduction. *)
  let c = a / 2 in
  let r1 = int_incl t 0 a and r2 = int_incl t x y in
  (((r1 lor r2) + c) mod (y - x + 1)) + x
