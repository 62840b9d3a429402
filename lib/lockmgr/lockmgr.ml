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

(* ---- Records ------------------------------------------------------------ *)

(* Every record is recycled through a free list of its kind, so a grant
   and its release allocate nothing once the pools have grown to the
   locks held at once.  The chains are intrusive: a grant is linked into
   its lock's holders and into its owner's grants by fields of its own,
   and the chains end at the [nil_*] sentinels, not at an option. *)

(* One (owner, mode) holding of a lock: an entry of the lock's holder
   chain, newest first, and of the owner's grant chain, newest first.
   [g_lock] is [nil_lock] once the holding is released. *)
type grant = {
  mutable g_owner : Heap.xid;
  mutable g_mode : mode;
  mutable g_lock : lock;
  mutable next_holder : grant;  (** also the free list's link *)
  mutable next_owned : grant;
}

(* A target's entry in the table: its bucket chain, its holders and its
   FIFO of ungranted requests.  [target] is the value the first acquirer
   passed in. *)
and lock = {
  mutable target : target;
  mutable hash : int;
  mutable next_in_bucket : lock;  (** also the free list's link *)
  mutable holders : grant;
  mutable waiters : request option;  (** oldest first, through [next_waiter] *)
  mutable last_waiter : request option;  (** the cell that holds the newest *)
}

(* A request that had to wait.  Only the blocking path builds one. *)
and request = {
  req_owner : Heap.xid;
  req_mode : mode;
  req_lock : lock;
  mutable req_grant : grant;  (** [nil_grant] until granted *)
  signal : Waitq.t;
  mutable next_waiter : request option;
}

(* What an owner holds and waits for.  [owned] has one grant per
   acquisition that was not already covered, newest first: release visits
   a lock where the owner last strengthened it. *)
type owner = {
  mutable xid : Heap.xid;
  mutable owned : grant;
  mutable pending : request list;
  mutable next_owner : owner;  (** the bucket chain; also the free list's link *)
}

let free_target = Relation ""

let rec nil_lock =
  {
    target = free_target;
    hash = 0;
    next_in_bucket = nil_lock;
    holders = nil_grant;
    waiters = None;
    last_waiter = None;
  }

and nil_grant =
  { g_owner = 0; g_mode = IS; g_lock = nil_lock; next_holder = nil_grant; next_owned = nil_grant }

let rec nil_owner = { xid = 0; owned = nil_grant; pending = []; next_owner = nil_owner }

let target_equal a b =
  match (a, b) with
  | Relation x, Relation y -> String.equal x y
  | Page (r, p), Page (r', p') -> String.equal r r' && p = p'
  | Tuple (r, k), Tuple (r', k') -> String.equal r r' && Value.equal k k'
  | Index_page (i, p), Index_page (i', p') -> String.equal i i' && p = p'
  | (Relation _ | Page _ | Tuple _ | Index_page _), _ -> false

(* Hashing a target allocates nothing: the name's string hash and the key's
   {!Value.hash_key} go through {!Value.mix}. *)
let combine name kind x =
  Value.mix ((((Hashtbl.hash name lsl 2) lor kind) * 0x9e3779b97f4a7c1) + x)

let target_hash = function
  | Relation r -> combine r 0 0
  | Page (r, p) -> combine r 1 p
  | Tuple (r, k) -> combine r 2 (Value.hash_key k)
  | Index_page (i, p) -> combine i 3 p

type t = {
  mutable buckets : lock array;  (** a power of two long *)
  mutable nlocks : int;
  mutable free_locks : lock;
  mutable free_grants : grant;
  mutable owner_buckets : owner array;  (** a power of two long *)
  mutable nowners : int;
  mutable free_owners : owner;
  sched : Waitq.scheduler;
  obs : Obs.t;
  mutable waiting : int;
  m_waits : Obs.counter;
  m_deadlocks : Obs.counter;
}

let create ?(obs = Obs.create ()) sched =
  {
    buckets = Array.make 512 nil_lock;
    nlocks = 0;
    free_locks = nil_lock;
    free_grants = nil_grant;
    owner_buckets = Array.make 64 nil_owner;
    nowners = 0;
    free_owners = nil_owner;
    sched;
    obs;
    waiting = 0;
    m_waits = Obs.counter obs "lockmgr.waits";
    m_deadlocks = Obs.counter obs "lockmgr.deadlocks";
  }

(* ---- The lock table ------------------------------------------------------- *)

let rec find_in l target h =
  if l == nil_lock || (l.hash = h && target_equal l.target target) then l
  else find_in l.next_in_bucket target h

let find_lock t target =
  let h = target_hash target in
  find_in t.buckets.(h land (Array.length t.buckets - 1)) target h

(* Double the bucket array once the chains average two records; only
   growth allocates. *)
let grow_locks t =
  let old = t.buckets in
  let buckets = Array.make (2 * Array.length old) nil_lock in
  let mask = Array.length buckets - 1 in
  let rec move l =
    if l != nil_lock then begin
      let next = l.next_in_bucket in
      let b = l.hash land mask in
      l.next_in_bucket <- buckets.(b);
      buckets.(b) <- l;
      move next
    end
  in
  Array.iter move old;
  t.buckets <- buckets

let get_lock t target =
  let h = target_hash target in
  let b = h land (Array.length t.buckets - 1) in
  let l = find_in t.buckets.(b) target h in
  if l != nil_lock then l
  else begin
    let l =
      if t.free_locks == nil_lock then
        {
          target;
          hash = h;
          next_in_bucket = nil_lock;
          holders = nil_grant;
          waiters = None;
          last_waiter = None;
        }
      else begin
        let l = t.free_locks in
        t.free_locks <- l.next_in_bucket;
        l.target <- target;
        l.hash <- h;
        l
      end
    in
    l.next_in_bucket <- t.buckets.(b);
    t.buckets.(b) <- l;
    t.nlocks <- t.nlocks + 1;
    if t.nlocks > 2 * Array.length t.buckets then grow_locks t;
    l
  end

(* Unlink an empty lock from its bucket and put it on the free list,
   dropping the caller's target so the pool keeps no key alive. *)
let rec unlink_lock l prev =
  let next = prev.next_in_bucket in
  if next == l then prev.next_in_bucket <- l.next_in_bucket else unlink_lock l next

let free_lock t l =
  let b = l.hash land (Array.length t.buckets - 1) in
  if t.buckets.(b) == l then t.buckets.(b) <- l.next_in_bucket else unlink_lock l t.buckets.(b);
  t.nlocks <- t.nlocks - 1;
  l.target <- free_target;
  l.next_in_bucket <- t.free_locks;
  t.free_locks <- l

let is_empty l = l.holders == nil_grant && match l.waiters with None -> true | Some _ -> false

(* ---- The owner table ------------------------------------------------------ *)

let rec find_owner_in o xid =
  if o == nil_owner || o.xid = xid then o else find_owner_in o.next_owner xid

let find_owner t xid =
  find_owner_in t.owner_buckets.(xid land (Array.length t.owner_buckets - 1)) xid

let grow_owners t =
  let old = t.owner_buckets in
  let buckets = Array.make (2 * Array.length old) nil_owner in
  let mask = Array.length buckets - 1 in
  let rec move o =
    if o != nil_owner then begin
      let next = o.next_owner in
      let b = o.xid land mask in
      o.next_owner <- buckets.(b);
      buckets.(b) <- o;
      move next
    end
  in
  Array.iter move old;
  t.owner_buckets <- buckets

let owner_state t xid =
  let o = find_owner t xid in
  if o != nil_owner then o
  else begin
    let o =
      if t.free_owners == nil_owner then
        { xid; owned = nil_grant; pending = []; next_owner = nil_owner }
      else begin
        let o = t.free_owners in
        t.free_owners <- o.next_owner;
        o.xid <- xid;
        o
      end
    in
    let b = xid land (Array.length t.owner_buckets - 1) in
    o.next_owner <- t.owner_buckets.(b);
    t.owner_buckets.(b) <- o;
    t.nowners <- t.nowners + 1;
    if t.nowners > 2 * Array.length t.owner_buckets then grow_owners t;
    o
  end

let rec unlink_owner o prev =
  let next = prev.next_owner in
  if next == o then prev.next_owner <- o.next_owner else unlink_owner o next

let free_owner t o =
  let b = o.xid land (Array.length t.owner_buckets - 1) in
  if t.owner_buckets.(b) == o then t.owner_buckets.(b) <- o.next_owner
  else unlink_owner o t.owner_buckets.(b);
  t.nowners <- t.nowners - 1;
  o.next_owner <- t.free_owners;
  t.free_owners <- o

(* ---- Grants --------------------------------------------------------------- *)

(* A new holding of [lock], at the head of its holder chain. *)
let hold t lock owner mode =
  let g =
    if t.free_grants == nil_grant then
      {
        g_owner = owner;
        g_mode = mode;
        g_lock = lock;
        next_holder = nil_grant;
        next_owned = nil_grant;
      }
    else begin
      let g = t.free_grants in
      t.free_grants <- g.next_holder;
      g.g_owner <- owner;
      g.g_mode <- mode;
      g.g_lock <- lock;
      g
    end
  in
  g.next_holder <- lock.holders;
  lock.holders <- g;
  g

let note_owned st g =
  g.next_owned <- st.owned;
  st.owned <- g

let free_grant t g =
  g.next_owned <- nil_grant;
  g.next_holder <- t.free_grants;
  t.free_grants <- g

(* Walks over a holder chain, written out so that they build no closure. *)
let rec conflicts ~owner ~mode g =
  g != nil_grant
  && ((g.g_owner <> owner && not (compatible g.g_mode mode))
     || conflicts ~owner ~mode g.next_holder)

let rec covered ~owner ~mode g =
  g != nil_grant
  && ((g.g_owner = owner && covers g.g_mode mode) || covered ~owner ~mode g.next_holder)

let holds t ~owner target mode = covered ~owner ~mode (find_lock t target).holders

let held_by t target =
  let rec collect g =
    if g == nil_grant then [] else (g.g_owner, g.g_mode) :: collect g.next_holder
  in
  collect (find_lock t target).holders

let lock_count t =
  let rec count_holders n g = if g == nil_grant then n else count_holders (n + 1) g.next_holder in
  let rec count_chain n l =
    if l == nil_lock then n else count_chain (count_holders n l.holders) l.next_in_bucket
  in
  Array.fold_left count_chain 0 t.buckets

let waiting_count t = t.waiting

(* ---- Deadlock detection ------------------------------------------------ *)

(* An owner X waits for owner Y when X has a pending request on some target
   where Y either holds an incompatible mode or is queued ahead of X.  FIFO
   grant order makes every request ahead a real wait, compatible or not: X
   is granted only after it. *)
let blockers_of req f =
  let owner = req.req_owner and mode = req.req_mode in
  let rec holders g =
    if g != nil_grant then begin
      if g.g_owner <> owner && not (compatible g.g_mode mode) then f g.g_owner;
      holders g.next_holder
    end
  in
  holders req.req_lock.holders;
  let rec ahead = function
    | Some r when r != req ->
        if r.req_owner <> owner then f r.req_owner;
        ahead r.next_waiter
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
    let st = find_owner t owner in
    if st != nil_owner then
      List.iter
        (fun req ->
          if req.req_grant == nil_grant then
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
   holders; stop at the first that is not, to avoid starving it.  The
   grant joins its owner's chain when the owner resumes. *)
let rec grant_waiters t lock =
  match lock.waiters with
  | Some req when not (conflicts ~owner:req.req_owner ~mode:req.req_mode lock.holders) ->
      lock.waiters <- req.next_waiter;
      (match req.next_waiter with None -> lock.last_waiter <- None | Some _ -> ());
      req.next_waiter <- None;
      req.req_grant <- hold t lock req.req_owner req.req_mode;
      t.waiting <- t.waiting - 1;
      Waitq.wake_all req.signal;
      grant_waiters t lock
  | _ -> ()

let enqueue lock req =
  let cell = Some req in
  (match lock.last_waiter with
  | None -> lock.waiters <- cell
  | Some last -> last.next_waiter <- cell);
  lock.last_waiter <- cell

(* Take an ungranted request out of its lock's FIFO. *)
let unlink_waiter lock req =
  let rec after cell =
    match cell with
    | Some prev -> (
        match prev.next_waiter with
        | Some r when r == req ->
            prev.next_waiter <- req.next_waiter;
            (match req.next_waiter with None -> lock.last_waiter <- cell | Some _ -> ())
        | next -> after next)
    | None -> ()
  in
  (match lock.waiters with
  | Some r when r == req -> (
      lock.waiters <- req.next_waiter;
      match req.next_waiter with None -> lock.last_waiter <- None | Some _ -> ())
  | first -> after first);
  req.next_waiter <- None

(* Withdraw a request from its owner, and from its queue if it was not
   granted; a grant that arrived first joins the owner's chain, so
   [release_all] returns it. *)
let withdraw t st req =
  st.pending <- List.filter (fun r -> r != req) st.pending;
  let lock = req.req_lock in
  if req.req_grant == nil_grant then begin
    unlink_waiter lock req;
    t.waiting <- t.waiting - 1;
    grant_waiters t lock;
    if is_empty lock then free_lock t lock
  end
  else note_owned st req.req_grant

let grant_now t ~owner lock mode =
  (not (conflicts ~owner ~mode lock.holders))
  && (match lock.waiters with None -> true | Some _ -> false)
  && begin
       (* Not covered, so (owner, mode) is not among the holders yet. *)
       note_owned (owner_state t owner) (hold t lock owner mode);
       true
     end

let wait t ~owner lock mode =
  let req =
    {
      req_owner = owner;
      req_mode = mode;
      req_lock = lock;
      req_grant = nil_grant;
      signal = Waitq.create ();
      next_waiter = None;
    }
  in
  enqueue lock req;
  t.waiting <- t.waiting + 1;
  (* Maybe the queue was non-empty only with compatible requests. *)
  grant_waiters t lock;
  let st = owner_state t owner in
  if req.req_grant == nil_grant then begin
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
    assert (req.req_grant != nil_grant);
    st.pending <- List.filter (fun r -> r != req) st.pending;
    close ()
  end;
  note_owned st req.req_grant

let acquire t ~owner target mode =
  let lock = get_lock t target in
  if not (covered ~owner ~mode lock.holders || grant_now t ~owner lock mode) then
    wait t ~owner lock mode

let try_acquire t ~owner target mode =
  let lock = get_lock t target in
  covered ~owner ~mode lock.holders || grant_now t ~owner lock mode

(* Unlink [owner]'s holdings from [lock]'s holder chain after [prev],
   marking them released; they stay on the owner's chain until
   [release_all] reaches them.  Says whether there was one. *)
let rec unlink_holdings owner lock prev g =
  g != nil_grant
  &&
  let next = g.next_holder in
  if g.g_owner = owner then begin
    g.g_lock <- nil_lock;
    if prev == nil_grant then lock.holders <- next else prev.next_holder <- next;
    ignore (unlink_holdings owner lock prev next);
    true
  end
  else unlink_holdings owner lock g next

(* Release [owner]'s holdings of [lock], grant its waiters, and free the
   lock once nobody holds or wants it. *)
let release t owner lock =
  if unlink_holdings owner lock nil_grant lock.holders then begin
    grant_waiters t lock;
    if is_empty lock then free_lock t lock
  end

(* Newest first: the first grant of a lock met is where the owner last
   strengthened it, and releases all of its holdings there. *)
let rec release_chain t owner g =
  if g != nil_grant then begin
    let next = g.next_owned in
    if g.g_lock != nil_lock then release t owner g.g_lock;
    free_grant t g;
    release_chain t owner next
  end

let release_all t ~owner =
  let st = find_owner t owner in
  if st != nil_owner then begin
    let owned = st.owned in
    st.owned <- nil_grant;
    (match st.pending with [] -> free_owner t st | _ :: _ -> ());
    release_chain t owner owned
  end
