open Ssi_util
open Ssi_storage
module Obs = Ssi_obs.Obs

type target =
  | Relation of string
  | Page of string * int
  | Tuple of string * Value.t
  | Index_page of string * int

let target_to_string = function
  | Relation r -> "rel:" ^ r
  | Page (r, p) -> "page:" ^ r ^ "/" ^ string_of_int p
  | Tuple (r, k) -> "tuple:" ^ r ^ "/" ^ Value.to_string k
  | Index_page (i, p) -> "idxpage:" ^ i ^ "/" ^ string_of_int p

let pp_target ppf t = Format.pp_print_string ppf (target_to_string t)

type mode = IS | IX | S | SIX | X

let mode_to_string = function IS -> "IS" | IX -> "IX" | S -> "S" | SIX -> "SIX" | X -> "X"
let pp_mode ppf m = Format.pp_print_string ppf (mode_to_string m)

let compatible a b =
  match (a, b) with
  | IS, (IS | IX | S | SIX) | (IX | S | SIX), IS -> true
  | IX, IX -> true
  | IX, S | S, IX -> false
  | S, S -> true
  | SIX, (IX | S | SIX) | (IX | S), SIX -> false
  | X, _ | _, X -> false

let covers held requested =
  match (held, requested) with
  | X, _ -> true
  | SIX, (IS | IX | S | SIX) -> true
  | S, (IS | S) -> true
  | IX, (IS | IX) -> true
  | IS, IS -> true
  | (IS | IX | S | SIX), _ -> false

exception Deadlock of { victim : Heap.xid; cycle : Heap.xid list }

type request = {
  req_owner : Heap.xid;
  req_mode : mode;
  mutable granted : bool;
  signal : Waitq.t;
}

type lock = {
  mutable holders : (Heap.xid * mode) list;  (** one entry per (owner, mode) *)
  waiters : request Queue.t;
}

module Target_table = Hashtbl.Make (struct
  type t = target

  let equal a b =
    match (a, b) with
    | Relation x, Relation y -> String.equal x y
    | Page (r, p), Page (r', p') -> String.equal r r' && p = p'
    | Tuple (r, k), Tuple (r', k') -> String.equal r r' && Value.equal k k'
    | Index_page (i, p), Index_page (i', p') -> String.equal i i' && p = p'
    | (Relation _ | Page _ | Tuple _ | Index_page _), _ -> false

  let hash = function
    | Relation r -> Hashtbl.hash (0, r)
    | Page (r, p) -> Hashtbl.hash (1, r, p)
    | Tuple (r, k) -> Hashtbl.hash (2, r, Value.hash k)
    | Index_page (i, p) -> Hashtbl.hash (3, i, p)
end)

type t = {
  table : lock Target_table.t;
  owned : (Heap.xid, target list ref) Hashtbl.t;
  sched : Waitq.scheduler;
  obs : Obs.t;
  mutable waiting : int;
  m_waits : Obs.counter;
  m_deadlocks : Obs.counter;
}

let create ?(obs = Obs.create ()) sched =
  {
    table = Target_table.create 512;
    owned = Hashtbl.create 64;
    sched;
    obs;
    waiting = 0;
    m_waits = Obs.counter obs "lockmgr.waits";
    m_deadlocks = Obs.counter obs "lockmgr.deadlocks";
  }

let get_lock t target =
  match Target_table.find_opt t.table target with
  | Some l -> l
  | None ->
      let l = { holders = []; waiters = Queue.create () } in
      Target_table.add t.table target l;
      l

let note_owned t owner target =
  match Hashtbl.find_opt t.owned owner with
  | Some l -> l := target :: !l
  | None -> Hashtbl.add t.owned owner (ref [ target ])

let conflicts_with_holders lock ~owner ~mode =
  List.exists (fun (o, m) -> o <> owner && not (compatible m mode)) lock.holders

let holds t ~owner target mode =
  match Target_table.find_opt t.table target with
  | None -> false
  | Some lock -> List.exists (fun (o, m) -> o = owner && covers m mode) lock.holders

let held_by t target =
  match Target_table.find_opt t.table target with None -> [] | Some l -> l.holders

let lock_count t =
  Target_table.fold (fun _ l acc -> acc + List.length l.holders) t.table 0

let waiting_count t = t.waiting

(* ---- Deadlock detection ------------------------------------------------ *)

(* An owner X waits for owner Y when X has a pending request on some target
   where Y either holds an incompatible mode or is queued ahead of X with an
   incompatible request (FIFO grant order makes the latter a real wait). *)

let blockers_of lock req =
  let from_holders =
    List.filter_map
      (fun (o, m) ->
        if o <> req.req_owner && not (compatible m req.req_mode) then Some o else None)
      lock.holders
  in
  let ahead = ref [] in
  (try
     Queue.iter
       (fun r ->
         if r == req then raise Exit
         else if
           (not r.granted)
           && r.req_owner <> req.req_owner
           && not (compatible r.req_mode req.req_mode)
         then ahead := r.req_owner :: !ahead)
       lock.waiters
   with Exit -> ());
  from_holders @ !ahead

(* Map each waiting owner to the owners it waits for, by scanning all lock
   queues.  Deadlock check is rare (only on block), so recomputing is fine. *)
let waits_for_edges t =
  let edges = Hashtbl.create 16 in
  Target_table.iter
    (fun _ lock ->
      Queue.iter
        (fun req ->
          if not req.granted then
            Hashtbl.replace edges req.req_owner
              (blockers_of lock req
              @ (match Hashtbl.find_opt edges req.req_owner with
                | Some l -> l
                | None -> [])))
        lock.waiters)
    t.table;
  edges

let find_cycle t start =
  let edges = waits_for_edges t in
  let rec dfs path visited node =
    if node = start && path <> [] then Some (List.rev path)
    else if List.mem node visited then None
    else
      match Hashtbl.find_opt edges node with
      | None -> None
      | Some succs ->
          List.fold_left
            (fun acc succ ->
              match acc with
              | Some _ -> acc
              | None -> dfs (succ :: path) (node :: visited) succ)
            None succs
  in
  dfs [] [] start

(* ---- Grant / wait ------------------------------------------------------ *)

let add_holder lock owner mode =
  if not (List.exists (fun (o, m) -> o = owner && m = mode) lock.holders) then
    lock.holders <- (owner, mode) :: lock.holders

let grant_waiters t lock =
  (* FIFO: grant from the front while requests are compatible with the
     current holders; stop at the first that is not, to avoid starving it. *)
  let rec loop () =
    match Queue.peek_opt lock.waiters with
    | None -> ()
    | Some req ->
        if conflicts_with_holders lock ~owner:req.req_owner ~mode:req.req_mode then ()
        else begin
          ignore (Queue.pop lock.waiters);
          add_holder lock req.req_owner req.req_mode;
          req.granted <- true;
          t.waiting <- t.waiting - 1;
          Waitq.wake_all req.signal;
          loop ()
        end
  in
  loop ()

let remove_request lock req =
  let keep = Queue.create () in
  Queue.iter (fun r -> if r != req then Queue.add r keep) lock.waiters;
  Queue.clear lock.waiters;
  Queue.transfer keep lock.waiters

let acquire t ~owner target mode =
  let lock = get_lock t target in
  if holds t ~owner target mode then ()
  else if
    (not (conflicts_with_holders lock ~owner ~mode)) && Queue.is_empty lock.waiters
  then begin
    add_holder lock owner mode;
    note_owned t owner target
  end
  else begin
    let req = { req_owner = owner; req_mode = mode; granted = false; signal = Waitq.create () } in
    Queue.add req lock.waiters;
    t.waiting <- t.waiting + 1;
    (* Maybe the queue was non-empty only with compatible requests. *)
    grant_waiters t lock;
    if not req.granted then begin
      Obs.incr t.m_waits;
      (* The wait interval is a child span of the owning transaction's span
         (owner rendezvous by xid), so blocking shows up in trace trees. *)
      let wsp =
        match Obs.owner_span t.obs owner with
        | Some parent ->
            Some
              (Obs.Span.start t.obs ~parent
                 ~attrs:
                   [
                     ("target", Obs.S (target_to_string target));
                     ("mode", Obs.S (mode_to_string mode));
                   ]
                 "lockmgr.wait")
        | None -> None
      in
      let close ?fate () =
        match wsp with
        | Some s ->
            (match fate with Some f -> Obs.Span.add s f (Obs.B true) | None -> ());
            Obs.Span.finish t.obs s
        | None -> ()
      in
      (match find_cycle t owner with
      | Some cycle ->
          remove_request lock req;
          t.waiting <- t.waiting - 1;
          grant_waiters t lock;
          Obs.incr t.m_deadlocks;
          close ~fate:"deadlock" ();
          raise (Deadlock { victim = owner; cycle })
      | None -> ());
      (try t.sched.suspend req.signal
       with e ->
         if not req.granted then begin
           remove_request lock req;
           t.waiting <- t.waiting - 1;
           grant_waiters t lock
         end;
         close ~fate:"interrupted" ();
         raise e);
      assert req.granted;
      close ()
    end;
    note_owned t owner target
  end

let try_acquire t ~owner target mode =
  let lock = get_lock t target in
  if holds t ~owner target mode then true
  else if
    (not (conflicts_with_holders lock ~owner ~mode)) && Queue.is_empty lock.waiters
  then begin
    add_holder lock owner mode;
    note_owned t owner target;
    true
  end
  else false

let release_all t ~owner =
  match Hashtbl.find_opt t.owned owner with
  | None -> ()
  | Some targets ->
      Hashtbl.remove t.owned owner;
      List.iter
        (fun target ->
          match Target_table.find_opt t.table target with
          | None -> ()
          | Some lock ->
              lock.holders <- List.filter (fun (o, _) -> o <> owner) lock.holders;
              grant_waiters t lock;
              if lock.holders = [] && Queue.is_empty lock.waiters then
                Target_table.remove t.table target)
        !targets
