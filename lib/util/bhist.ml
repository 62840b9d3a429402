(* The running sum and extremes live in an all-float record, which OCaml
   stores flat, so [add] updates them without boxing. *)
type sums = { mutable sum : float; mutable lo : float (* nan while empty *); mutable hi : float }

type t = {
  alpha : float;
  gamma : float;
  log_gamma : float;
  mutable counts : int array;  (* counts.(i - base): positive values in bucket i *)
  mutable base : int;
  mutable zero : int;  (* observations <= 0 (or nan, infinite), counted exactly *)
  mutable n : int;
  s : sums;
}

let create ?(accuracy = 0.01) () =
  if not (accuracy > 0. && accuracy < 1.) then
    invalid_arg "Bhist.create: accuracy must be in (0, 1)";
  let gamma = (1. +. accuracy) /. (1. -. accuracy) in
  {
    alpha = accuracy;
    gamma;
    log_gamma = log gamma;
    counts = [||];
    base = 0;
    zero = 0;
    n = 0;
    s = { sum = 0.; lo = nan; hi = nan };
  }

let accuracy t = t.alpha
let gamma t = t.gamma
let count t = t.n
let zero_count t = t.zero
let total t = t.s.sum
let mean t = if t.n = 0 then nan else t.s.sum /. float_of_int t.n
let min_value t = t.s.lo
let max_value t = t.s.hi

(* Midpoint estimate for bucket i, i.e. of (γ^(i-1), γ^i]: within
   relative error α of every value the bucket can hold. *)
let estimate t i = 2. *. exp (float_of_int i *. t.log_gamma) /. (t.gamma +. 1.)

let bucket_upper t i = exp (float_of_int i *. t.log_gamma)

(* Widen [counts] to cover bucket [i], at least doubling it so a stream
   grows it O(log range) times. *)
let cover t i =
  let len = Array.length t.counts in
  if len = 0 then begin
    t.counts <- Array.make 16 0;
    t.base <- i - 8
  end
  else if i < t.base || i >= t.base + len then begin
    let lo = Stdlib.min t.base i and hi = Stdlib.max (t.base + len - 1) i in
    let size = Stdlib.max (hi - lo + 1) (2 * len) in
    let base = if i < t.base then hi + 1 - size else lo in
    let counts = Array.make size 0 in
    Array.blit t.counts 0 counts (t.base - base) len;
    t.counts <- counts;
    t.base <- base
  end

let bump t i by =
  cover t i;
  t.counts.(i - t.base) <- t.counts.(i - t.base) + by

(* Inlined into both entries, so the value stays unboxed. *)
let[@inline] record t v =
  t.n <- t.n + 1;
  t.s.sum <- t.s.sum +. v;
  if t.n = 1 then begin
    t.s.lo <- v;
    t.s.hi <- v
  end
  else begin
    if v < t.s.lo then t.s.lo <- v;
    if v > t.s.hi then t.s.hi <- v
  end;
  if v > 0. && v < infinity then bump t (int_of_float (Float.ceil (log v /. t.log_gamma))) 1
  else t.zero <- t.zero + 1

let add t v = record t v
let add_interval t starts stops i = record t (stops.(i) -. starts.(i))

let fold_buckets t f acc =
  let acc = ref acc in
  Array.iteri (fun j c -> if c > 0 then acc := f (t.base + j) c !acc) t.counts;
  !acc

let buckets t = List.rev (fold_buckets t (fun i c acc -> (i, c) :: acc) [])

let bucket_count t = fold_buckets t (fun _ _ k -> k + 1) (if t.zero > 0 then 1 else 0)

let percentile t p =
  if t.n = 0 then nan
  else begin
    let p = Float.max 0. (Float.min 1. p) in
    let rank = Stdlib.max 1 (int_of_float (Float.ceil (p *. float_of_int t.n))) in
    let rank = Stdlib.min rank t.n in
    if rank <= t.zero then Stdlib.min t.s.lo 0.
    else begin
      let cum = ref t.zero and j = ref 0 in
      while !cum + t.counts.(!j) < rank do
        cum := !cum + t.counts.(!j);
        incr j
      done;
      (* The estimate is already within α of the true value; clamping to
         the exact observed range only ever tightens it. *)
      Stdlib.min t.s.hi (Stdlib.max t.s.lo (estimate t (t.base + !j)))
    end
  end

let copy t = { t with counts = Array.copy t.counts; s = { t.s with sum = t.s.sum } }

let same_accuracy op a b =
  if a.alpha <> b.alpha then
    invalid_arg
      (Printf.sprintf "Bhist.%s: accuracy mismatch (%g vs %g)" op a.alpha b.alpha)

let merge a b =
  same_accuracy "merge" a b;
  let r = copy a in
  ignore (fold_buckets b (fun i c () -> bump r i c) ());
  r.zero <- a.zero + b.zero;
  r.n <- a.n + b.n;
  r.s.sum <- a.s.sum +. b.s.sum;
  if b.n > 0 then begin
    r.s.lo <- (if a.n = 0 then b.s.lo else Stdlib.min a.s.lo b.s.lo);
    r.s.hi <- (if a.n = 0 then b.s.hi else Stdlib.max a.s.hi b.s.hi)
  end;
  r

let diff ~cur ~base =
  same_accuracy "diff" cur base;
  let r = create ~accuracy:cur.alpha () in
  let under i =
    invalid_arg (Printf.sprintf "Bhist.diff: base exceeds cur in bucket %d" i)
  in
  let at h i = if i >= h.base && i < h.base + Array.length h.counts then h.counts.(i - h.base) else 0 in
  ignore (fold_buckets base (fun i b () -> if b > at cur i then under i) ());
  ignore (fold_buckets cur (fun i c () -> if c > at base i then bump r i (c - at base i)) ());
  if base.zero > cur.zero then under 0;
  r.zero <- cur.zero - base.zero;
  r.n <- cur.n - base.n;
  if r.n < 0 then invalid_arg "Bhist.diff: base has more observations than cur";
  r.s.sum <- cur.s.sum -. base.s.sum;
  (* Window extremes are not recoverable from cumulative state: answer
     bucket-resolution bounds (exact 0/cur.lo for the zero bucket). *)
  if r.n > 0 then begin
    let occupied = buckets r in
    let lo =
      if r.zero > 0 then Stdlib.min cur.s.lo 0.
      else match occupied with (i, _) :: _ -> estimate r i | [] -> cur.s.lo
    in
    let hi =
      match List.rev occupied with
      | (i, _) :: _ -> Stdlib.min cur.s.hi (bucket_upper r i)
      | [] -> Stdlib.min cur.s.hi 0.
    in
    r.s.lo <- lo;
    r.s.hi <- Stdlib.max lo hi
  end;
  r
