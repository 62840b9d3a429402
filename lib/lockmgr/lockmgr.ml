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
  req_lock : lock;
  mutable granted : bool;
  signal : Waitq.t;
}

and lock = {
  target : target;
  mutable holders : (Heap.xid * mode) list;  (** one entry per (owner, mode) *)
  mutable waiters : request list;  (** ungranted requests, oldest first *)
}

(* What an owner holds and waits for.  [locks] has one entry per
   acquisition that was not already covered, newest first: release visits
   a lock where the owner last strengthened it. *)
type owner = { mutable locks : lock list; mutable pending : request list }

(* Hashing a target allocates nothing: the name's string hash and the key's
   {!Value.hash_key} go through {!Value.mix}. *)
module Target_table = Hashtbl.Make (struct
  type t = target

  let equal a b =
    match (a, b) with
    | Relation x, Relation y -> String.equal x y
    | Page (r, p), Page (r', p') -> String.equal r r' && p = p'
    | Tuple (r, k), Tuple (r', k') -> String.equal r r' && Value.equal k k'
    | Index_page (i, p), Index_page (i', p') -> String.equal i i' && p = p'
    | (Relation _ | Page _ | Tuple _ | Index_page _), _ -> false

  let combine name kind x =
    Value.mix ((((Hashtbl.hash name lsl 2) lor kind) * 0x9e3779b97f4a7c1) + x)

  let hash = function
    | Relation r -> combine r 0 0
    | Page (r, p) -> combine r 1 p
    | Tuple (r, k) -> combine r 2 (Value.hash_key k)
    | Index_page (i, p) -> combine i 3 p
end)

type t = {
  table : lock Target_table.t;
  owners : (Heap.xid, owner) Hashtbl.t;
  sched : Waitq.scheduler;
  obs : Obs.t;
  mutable waiting : int;
  m_waits : Obs.counter;
  m_deadlocks : Obs.counter;
}

let create ?(obs = Obs.create ()) sched =
  {
    table = Target_table.create 512;
    owners = Hashtbl.create 64;
    sched;
    obs;
    waiting = 0;
    m_waits = Obs.counter obs "lockmgr.waits";
    m_deadlocks = Obs.counter obs "lockmgr.deadlocks";
  }

let get_lock t target =
  match Target_table.find t.table target with
  | l -> l
  | exception Not_found ->
      let l = { target; holders = []; waiters = [] } in
      Target_table.add t.table target l;
      l

let owner_state t owner =
  match Hashtbl.find t.owners owner with
  | st -> st
  | exception Not_found ->
      let st = { locks = []; pending = [] } in
      Hashtbl.add t.owners owner st;
      st

let note_owned t owner lock =
  let st = owner_state t owner in
  st.locks <- lock :: st.locks

(* Walks over a holder list, written out so that they build no closure. *)
let rec conflicts ~owner ~mode = function
  | [] -> false
  | (o, m) :: rest -> (o <> owner && not (compatible m mode)) || conflicts ~owner ~mode rest

let rec covered ~owner ~mode = function
  | [] -> false
  | (o, m) :: rest -> (o = owner && covers m mode) || covered ~owner ~mode rest

let rec has_owner o = function [] -> false | (o', _) :: rest -> o = o' || has_owner o rest
let rec only_owner o = function [] -> true | (o', _) :: rest -> o = o' && only_owner o rest

let holds t ~owner target mode =
  match Target_table.find t.table target with
  | lock -> covered ~owner ~mode lock.holders
  | exception Not_found -> false

let held_by t target =
  match Target_table.find t.table target with l -> l.holders | exception Not_found -> []

let lock_count t =
  Target_table.fold (fun _ l acc -> acc + List.length l.holders) t.table 0

let waiting_count t = t.waiting

(* ---- Deadlock detection ------------------------------------------------ *)

(* An owner X waits for owner Y when X has a pending request on some target
   where Y either holds an incompatible mode or is queued ahead of X with an
   incompatible request (FIFO grant order makes the latter a real wait). *)
let blockers_of req f =
  let owner = req.req_owner and mode = req.req_mode in
  List.iter (fun (o, m) -> if o <> owner && not (compatible m mode) then f o) req.req_lock.holders;
  let rec ahead = function
    | r :: rest when r != req ->
        if r.req_owner <> owner && not (compatible r.req_mode mode) then f r.req_owner;
        ahead rest
    | _ -> ()
  in
  ahead req.req_lock.waiters

exception Cycle of Heap.xid list

(* Search the waits-for graph from [start], one owner's pending requests
   at a time.  A cycle through [start] exists exactly when [start] is
   reachable from itself; the cycle returned ends with [start]. *)
let find_cycle t start =
  let visited = ref [ start ] in
  let rec visit path owner =
    match Hashtbl.find t.owners owner with
    | exception Not_found -> ()
    | st ->
        List.iter
          (fun req ->
            if not req.granted then
              blockers_of req (fun b ->
                  if b = start then raise (Cycle (List.rev (b :: path)))
                  else if not (List.mem b !visited) then begin
                    visited := b :: !visited;
                    visit (b :: path) b
                  end))
          st.pending
  in
  match visit [] start with () -> None | exception Cycle cycle -> Some cycle

(* ---- Grant / wait ------------------------------------------------------ *)

(* FIFO: grant from the front while requests are compatible with the current
   holders; stop at the first that is not, to avoid starving it. *)
let rec grant_waiters t lock =
  match lock.waiters with
  | req :: rest when not (conflicts ~owner:req.req_owner ~mode:req.req_mode lock.holders) ->
      let entry = (req.req_owner, req.req_mode) in
      lock.waiters <- rest;
      if not (List.mem entry lock.holders) then lock.holders <- entry :: lock.holders;
      req.granted <- true;
      t.waiting <- t.waiting - 1;
      Waitq.wake_all req.signal;
      grant_waiters t lock
  | _ -> ()

(* Withdraw an ungranted request from its queue and its owner. *)
let withdraw t st req =
  st.pending <- List.filter (fun r -> r != req) st.pending;
  if not req.granted then begin
    req.req_lock.waiters <- List.filter (fun r -> r != req) req.req_lock.waiters;
    t.waiting <- t.waiting - 1;
    grant_waiters t req.req_lock
  end

let grant_now t ~owner lock mode =
  (not (conflicts ~owner ~mode lock.holders))
  && (match lock.waiters with [] -> true | _ :: _ -> false)
  && begin
       (* Not covered, so (owner, mode) is not among the holders yet. *)
       lock.holders <- (owner, mode) :: lock.holders;
       note_owned t owner lock;
       true
     end

let wait t ~owner lock mode =
  let signal = Waitq.create () in
  let req = { req_owner = owner; req_mode = mode; req_lock = lock; granted = false; signal } in
  lock.waiters <- lock.waiters @ [ req ];
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
                   ("target", Obs.S (target_to_string lock.target));
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
    let st = owner_state t owner in
    st.pending <- req :: st.pending;
    (match find_cycle t owner with
    | Some cycle ->
        withdraw t st req;
        Obs.incr t.m_deadlocks;
        close ~fate:"deadlock" ();
        raise (Deadlock { victim = owner; cycle })
    | None -> ());
    (try t.sched.suspend req.signal
     with e ->
       withdraw t st req;
       close ~fate:"interrupted" ();
       raise e);
    assert req.granted;
    st.pending <- List.filter (fun r -> r != req) st.pending;
    close ()
  end;
  note_owned t owner lock

let acquire t ~owner target mode =
  let lock = get_lock t target in
  if not (covered ~owner ~mode lock.holders || grant_now t ~owner lock mode) then
    wait t ~owner lock mode

let try_acquire t ~owner target mode =
  let lock = get_lock t target in
  covered ~owner ~mode lock.holders || grant_now t ~owner lock mode

(* Copy a holder list only when the owner shares the lock. *)
let release t owner lock =
  if has_owner owner lock.holders then begin
    lock.holders <-
      (if only_owner owner lock.holders then []
       else List.filter (fun (o, _) -> o <> owner) lock.holders);
    grant_waiters t lock;
    match lock with
    | { holders = []; waiters = []; _ } -> Target_table.remove t.table lock.target
    | _ -> ()
  end

(* Most commits take no heavyweight lock: [find_opt] misses without raising. *)
let release_all t ~owner =
  match Hashtbl.find_opt t.owners owner with
  | None -> ()
  | Some st ->
      let locks = st.locks in
      st.locks <- [];
      (match st.pending with [] -> Hashtbl.remove t.owners owner | _ :: _ -> ());
      List.iter (release t owner) locks
