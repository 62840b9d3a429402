(* A ring buffer of [len] thunks starting at [head]. *)
type t = { wq_id : int; mutable buf : (unit -> unit) array; mutable head : int; mutable len : int }

let next_id = ref 0

let create () =
  incr next_id;
  { wq_id = !next_id; buf = [||]; head = 0; len = 0 }

let id t = t.wq_id
let is_empty t = t.len = 0
let length t = t.len
let nop () = ()

let enqueue t f =
  let cap = Array.length t.buf in
  if t.len = cap then begin
    let bigger = Array.make (max 2 (2 * cap)) nop in
    for i = 0 to t.len - 1 do
      bigger.(i) <- t.buf.((t.head + i) mod cap)
    done;
    t.buf <- bigger;
    t.head <- 0
  end;
  t.buf.((t.head + t.len) mod Array.length t.buf) <- f;
  t.len <- t.len + 1

(* The oldest thunk; its slot is cleared so the queue does not retain it. *)
let take t =
  let f = t.buf.(t.head) in
  t.buf.(t.head) <- nop;
  t.head <- (t.head + 1) mod Array.length t.buf;
  t.len <- t.len - 1;
  f

let wake_all t =
  (* Only the thunks queued now: one that re-enqueues itself on this queue
     waits for the next wake. *)
  for _ = 1 to t.len do
    if t.len > 0 then take t ()
  done

let wake_one t = t.len > 0 && (take t (); true)

type scheduler = {
  suspend : t -> unit;
  charge : float -> unit;
  now : unit -> float;
}

let direct =
  let suspend _ = raise Db_error.(Error Lock_not_available) in
  { suspend; charge = (fun _ -> ()); now = (fun () -> 0.) }
