type t = { wq_id : int; q : (unit -> unit) Queue.t }

let next_id = ref 0

let create () =
  incr next_id;
  { wq_id = !next_id; q = Queue.create () }

let id t = t.wq_id
let is_empty t = Queue.is_empty t.q
let length t = Queue.length t.q
let enqueue t f = Queue.add f t.q

let wake_all t =
  (* Drain into a list first: a resumed computation may re-enqueue itself on
     the same queue, and that new wait must not be woken by this call. *)
  let pending = List.of_seq (Queue.to_seq t.q) in
  Queue.clear t.q;
  List.iter (fun f -> f ()) pending

let wake_one t =
  match Queue.take_opt t.q with
  | None -> false
  | Some f ->
      f ();
      true

type scheduler = {
  suspend : t -> unit;
  charge : float -> unit;
  now : unit -> float;
}

let direct =
  let suspend _ = raise Db_error.(Error Lock_not_available) in
  { suspend; charge = (fun _ -> ()); now = (fun () -> 0.) }
