open Ssi_storage
module Obs = Ssi_obs.Obs

type xid = Heap.xid
type cseq = Ssi_mvcc.Mvcc.cseq

type target =
  | Relation of string
  | Page of string * int
  | Tuple of string * Value.t
  | Index_page of string * int
  | Index_key of string * Value.t
  | Index_inf of string
  | Index_rel of string

let target_to_string = function
  | Relation r -> "rel:" ^ r
  | Page (r, p) -> "page:" ^ r ^ "/" ^ string_of_int p
  | Tuple (r, k) -> "tuple:" ^ r ^ "/" ^ Value.to_string k
  | Index_page (i, p) -> "idxpage:" ^ i ^ "/" ^ string_of_int p
  | Index_key (i, k) -> "idxkey:" ^ i ^ "/" ^ Value.to_string k
  | Index_inf i -> "idxinf:" ^ i
  | Index_rel i -> "idx:" ^ i

let pp_target ppf t = Format.pp_print_string ppf (target_to_string t)

type config = {
  max_tuple_locks_per_page : int;
  max_page_locks_per_relation : int;
  max_page_locks_per_index : int;
}

let default_config =
  { max_tuple_locks_per_page = 4; max_page_locks_per_relation = 16; max_page_locks_per_index = 16 }

(* Targets as the lock table keys them: relation and index names interned
   to ints (see [intern]), so hashing and comparing a tag touches no
   string, and neither allocates.  The string-named [target] above is the
   external view ([dump], [holds], 2PC state). *)
module Tag = struct
  type t =
    | Relation of int
    | Page of int * int
    | Tuple of int * Value.t
    | Index_page of int * int
    | Index_key of int * Value.t
    | Index_inf of int
    | Index_rel of int

  (* Kind in the low three bits, object id above it. *)
  let combine id kind x = Value.mix ((((id lsl 3) lor kind) * 0x9e3779b97f4a7c1) + x)

  let hash = function
    | Relation r -> combine r 0 0
    | Page (r, p) -> combine r 1 p
    | Tuple (r, k) -> combine r 2 (Value.hash_key k)
    | Index_page (i, p) -> combine i 3 p
    | Index_rel i -> combine i 4 0
    | Index_key (i, k) -> combine i 5 (Value.hash_key k)
    | Index_inf i -> combine i 6 0

  let equal a b =
    match (a, b) with
    | Relation x, Relation y | Index_inf x, Index_inf y | Index_rel x, Index_rel y -> x = y
    | Page (r, p), Page (r', p') | Index_page (r, p), Index_page (r', p') -> r = r' && p = p'
    | Tuple (r, k), Tuple (r', k') | Index_key (r, k), Index_key (r', k') ->
        r = r' && Value.equal k k'
    | (Relation _ | Page _ | Tuple _ | Index_page _ | Index_key _ | Index_inf _ | Index_rel _), _
      ->
        false
end

module Tag_table = Hashtbl.Make (Tag)

(* Keyed by interned ids, which are small and dense: they index buckets
   as they are. *)
module Int_table = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash id = id
end)

type entry = {
  mutable holders : xid list;
  mutable old_committed : cseq option;  (** dummy owner's latest recorded cseq *)
}

(* Per-owner bookkeeping enabling promotion and O(locks) release.  Every
   key is a tag or an interned relation/index id.  A tuple lock the owner
   holds is in exactly one [tuples_by_page] list, the one of the page it
   was granted on, until it is forgotten. *)
type owner_state = {
  (* Every lock the owner holds.  A tuple lock maps to the heap page whose
     [tuples_by_page] list holds it, any other lock to 0. *)
  held : int Tag_table.t;
  (* Tuple locks per heap page, keyed by the page's tag: the tuple tags
     held there. *)
  tuples_by_page : Tag.t list ref Tag_table.t;
  (* Heap-page locks per relation. *)
  pages_by_rel : int list ref Int_table.t;
  (* Index-page locks per index. *)
  pages_by_index : int list ref Int_table.t;
  (* Coverage cache: which relations/indexes this owner already covers at
     the coarsest granularity, plus the last heap page whose page lock the
     owner holds ([memo_rel] = -1: none).  A scan that already holds coarse
     coverage skips the per-tuple [held] probes entirely; kept in sync by
     [grant]/[forget], and an owner never loses coverage except through
     [forget] (promotions only coarsen), so a hit can never be stale. *)
  covered_rels : unit Int_table.t;
  covered_idx : unit Int_table.t;
  mutable memo_rel : int;
  mutable memo_page : int;
}

(* Registry handles, hoisted so the hot acquisition paths touch no
   hashtable. *)
type metrics = {
  m_relation : Obs.counter;
  m_page : Obs.counter;
  m_tuple : Obs.counter;
  m_index_page : Obs.counter;
  m_index_key : Obs.counter;
  m_index_inf : Obs.counter;
  m_index_rel : Obs.counter;
  m_promotions : Obs.counter;
}

(* Min-heap of (cseq, tag) for every dummy-owner mark ever recorded:
   {!cleanup_old_committed} pops the stale prefix instead of scanning the
   whole lock table on every commit's cleanup pass.  Items are lazily
   revalidated against the entry's current mark (per-target marks strictly
   increase — commit cseqs are unique — so an exact match identifies the
   live record). *)
module Oldc_heap = struct
  type h = { mutable a : (cseq * Tag.t) array; mutable n : int }

  let create () = { a = [||]; n = 0 }

  let push h ((c, _) as it) =
    if h.n = Array.length h.a then begin
      let cap = max 16 (2 * Array.length h.a) in
      let a' = Array.make cap it in
      Array.blit h.a 0 a' 0 h.n;
      h.a <- a'
    end;
    let i = ref h.n in
    h.n <- h.n + 1;
    while !i > 0 && fst h.a.((!i - 1) / 2) > c do
      let p = (!i - 1) / 2 in
      h.a.(!i) <- h.a.(p);
      i := p
    done;
    h.a.(!i) <- it

  let peek h = if h.n = 0 then None else Some h.a.(0)

  let pop h =
    if h.n > 0 then begin
      h.n <- h.n - 1;
      if h.n > 0 then begin
        let it = h.a.(h.n) in
        let n = h.n in
        let i = ref 0 in
        let stop = ref false in
        while not !stop do
          let l = (2 * !i) + 1 in
          if l >= n then stop := true
          else begin
            let r = l + 1 in
            let m = if r < n && fst h.a.(r) < fst h.a.(l) then r else l in
            if fst h.a.(m) < fst it then begin
              h.a.(!i) <- h.a.(m);
              i := m
            end
            else stop := true
          end
        done;
        h.a.(!i) <- it
      end
    end
end

type t = {
  table : entry Tag_table.t;
  owners : (xid, owner_state) Hashtbl.t;
  (* Released owner states, emptied, for [owner_state] to hand out again:
     [pool.(0) .. pool.(npool - 1)].  States are made only when the pool is
     empty, so it never holds more than the most owners ever live at
     once. *)
  mutable pool : owner_state array;
  mutable npool : int;
  (* Interned relation and index names: [ids] maps a name to its id,
     [names.(id)] maps back.  A name is never un-interned; there is one per
     relation or index name ever passed in. *)
  ids : (string, int) Hashtbl.t;
  mutable names : string array;
  (* The last name interned and its id: callers pass the same physical
     string for a whole scan, so [==] answers most lookups. *)
  mutable last_name : string;
  mutable last_id : int;
  (* Scratch for {!lock_tuples_slice}: the slice positions of the keys a
     batch would lock afresh, in slice order. *)
  mutable fresh : int array;
  config : config;
  oldc : Oldc_heap.h;
  obs : Obs.t;
  metrics : metrics;
}

let create ?(config = default_config) ?(obs = Obs.create ()) () =
  let metrics =
    {
      m_relation = Obs.counter obs "predlock.locks.relation";
      m_page = Obs.counter obs "predlock.locks.page";
      m_tuple = Obs.counter obs "predlock.locks.tuple";
      m_index_page = Obs.counter obs "predlock.locks.index_page";
      m_index_key = Obs.counter obs "predlock.locks.index_key";
      m_index_inf = Obs.counter obs "predlock.locks.index_inf";
      m_index_rel = Obs.counter obs "predlock.locks.index_rel";
      m_promotions = Obs.counter obs "predlock.promotions";
    }
  in
  {
    table = Tag_table.create 1024;
    owners = Hashtbl.create 64;
    pool = [||];
    npool = 0;
    ids = Hashtbl.create 16;
    names = [||];
    last_name = "";
    last_id = -1;
    fresh = Array.make 8 0;
    config;
    oldc = Oldc_heap.create ();
    obs;
    metrics;
  }

let intern t name =
  if t.last_id >= 0 && name == t.last_name then t.last_id
  else begin
    let id =
      match Hashtbl.find t.ids name with
      | id -> id
      | exception Not_found ->
          let id = Hashtbl.length t.ids in
          if id = Array.length t.names then begin
            let names = Array.make (max 8 (2 * id)) name in
            Array.blit t.names 0 names 0 id;
            t.names <- names
          end;
          t.names.(id) <- name;
          Hashtbl.add t.ids name id;
          id
    in
    t.last_name <- name;
    t.last_id <- id;
    id
  end

let tag_of t : target -> Tag.t = function
  | Relation r -> Relation (intern t r)
  | Page (r, p) -> Page (intern t r, p)
  | Tuple (r, k) -> Tuple (intern t r, k)
  | Index_page (i, p) -> Index_page (intern t i, p)
  | Index_key (i, k) -> Index_key (intern t i, k)
  | Index_inf i -> Index_inf (intern t i)
  | Index_rel i -> Index_rel (intern t i)

let target_of t : Tag.t -> target =
  let n id = t.names.(id) in
  function
  | Relation r -> Relation (n r)
  | Page (r, p) -> Page (n r, p)
  | Tuple (r, k) -> Tuple (n r, k)
  | Index_page (i, p) -> Index_page (n i, p)
  | Index_key (i, k) -> Index_key (n i, k)
  | Index_inf i -> Index_inf (n i)
  | Index_rel i -> Index_rel (n i)

let count_acquired t : Tag.t -> unit = function
  | Relation _ -> Obs.incr t.metrics.m_relation
  | Page _ -> Obs.incr t.metrics.m_page
  | Tuple _ -> Obs.incr t.metrics.m_tuple
  | Index_page _ -> Obs.incr t.metrics.m_index_page
  | Index_key _ -> Obs.incr t.metrics.m_index_key
  | Index_inf _ -> Obs.incr t.metrics.m_index_inf
  | Index_rel _ -> Obs.incr t.metrics.m_index_rel

let entry_of t tag =
  match Tag_table.find_opt t.table tag with
  | Some e -> e
  | None ->
      let e = { holders = []; old_committed = None } in
      Tag_table.add t.table tag e;
      e

let owner_state t owner =
  match Hashtbl.find t.owners owner with
  | s -> s
  | exception Not_found ->
      let s =
        if t.npool > 0 then begin
          t.npool <- t.npool - 1;
          t.pool.(t.npool)
        end
        else
          {
            held = Tag_table.create 16;
            tuples_by_page = Tag_table.create 8;
            pages_by_rel = Int_table.create 4;
            pages_by_index = Int_table.create 4;
            covered_rels = Int_table.create 4;
            covered_idx = Int_table.create 4;
            memo_rel = -1;
            memo_page = 0;
          }
      in
      Hashtbl.add t.owners owner s;
      s

(* Detach [owner]'s state and return it to the pool, emptied.  [reset],
   not [clear]: a table that grew gets back its initial bucket array, so a
   reused state costs no more than a fresh one, and it hashes and iterates
   exactly as a fresh one would. *)
let retire_owner t owner state =
  Hashtbl.remove t.owners owner;
  Tag_table.reset state.held;
  Tag_table.reset state.tuples_by_page;
  Int_table.reset state.pages_by_rel;
  Int_table.reset state.pages_by_index;
  Int_table.reset state.covered_rels;
  Int_table.reset state.covered_idx;
  state.memo_rel <- -1;
  state.memo_page <- 0;
  if t.npool = Array.length t.pool then begin
    let pool = Array.make (max 8 (2 * t.npool)) state in
    Array.blit t.pool 0 pool 0 t.npool;
    t.pool <- pool
  end;
  t.pool.(t.npool) <- state;
  t.npool <- t.npool + 1

let holds t ~owner target =
  match Hashtbl.find_opt t.owners owner with
  | None -> false
  | Some s -> Tag_table.mem s.held (tag_of t target)

let maybe_drop_entry t tag e =
  if e.holders = [] && e.old_committed = None then Tag_table.remove t.table tag

(* Record [cseq] as the dummy owner's mark on [tag] if newer than the
   current one, and index it in the cleanup heap.  Marks only ever grow
   (commit cseqs are unique), so pushing exactly on change keeps the heap's
   exact-match revalidation sound. *)
let set_old_committed t tag (e : entry) cseq =
  match e.old_committed with
  | Some c when c >= cseq -> ()
  | Some _ | None ->
      e.old_committed <- Some cseq;
      Oldc_heap.push t.oldc (cseq, tag)

let cache_granted state : Tag.t -> unit = function
  | Relation r -> Int_table.replace state.covered_rels r ()
  | Index_rel i -> Int_table.replace state.covered_idx i ()
  | Page (r, p) ->
      state.memo_rel <- r;
      state.memo_page <- p
  | Tuple _ | Index_page _ | Index_key _ | Index_inf _ -> ()

let cache_forgotten state : Tag.t -> unit = function
  | Relation r -> Int_table.remove state.covered_rels r
  | Index_rel i -> Int_table.remove state.covered_idx i
  | Page (r, p) -> if state.memo_rel = r && state.memo_page = p then state.memo_rel <- -1
  | Tuple _ | Index_page _ | Index_key _ | Index_inf _ -> ()

(* Remove [tag] from both the shared table and the owner's bookkeeping
   (except the per-page/per-rel lists, which callers maintain). *)
let forget t owner state tag =
  if Tag_table.mem state.held tag then begin
    Tag_table.remove state.held tag;
    cache_forgotten state tag;
    match Tag_table.find t.table tag with
    | exception Not_found -> ()
    | e ->
        e.holders <- List.filter (fun o -> o <> owner) e.holders;
        maybe_drop_entry t tag e
  end

(* Grant [tag] to [owner] unless it already holds it; [page] is what
   [held] records for it.  Returns whether the lock is new. *)
let grant_at t owner state tag page =
  if not (Tag_table.mem state.held tag) then begin
    Tag_table.add state.held tag page;
    cache_granted state tag;
    let e = entry_of t tag in
    e.holders <- owner :: e.holders;
    count_acquired t tag;
    true
  end
  else false

let grant t owner state tag = grant_at t owner state tag 0

(* The page list stored under relation or index [id], created empty when
   absent. *)
let pages_of tbl id =
  match Int_table.find_opt tbl id with
  | Some l -> l
  | None ->
      let l = ref [] in
      Int_table.add tbl id l;
      l

let lock_relation t ~owner ~rel =
  let state = owner_state t owner in
  ignore (grant t owner state (Relation (intern t rel)))

let lock_index_rel t ~owner ~index =
  let state = owner_state t owner in
  ignore (grant t owner state (Index_rel (intern t index)))

(* Promote all of the owner's page and tuple locks on relation [r] to a
   single relation lock. *)
let promote_owner_relation t owner state r =
  Obs.incr t.metrics.m_promotions;
  (match Int_table.find_opt state.pages_by_rel r with
  | None -> ()
  | Some pages ->
      List.iter (fun p -> forget t owner state (Page (r, p))) !pages;
      Int_table.remove state.pages_by_rel r);
  let to_drop = ref [] in
  Tag_table.iter
    (fun (page : Tag.t) _targets ->
      match page with
      | Page (r', _) when r' = r -> to_drop := page :: !to_drop
      | _ -> ())
    state.tuples_by_page;
  List.iter
    (fun page ->
      (match Tag_table.find_opt state.tuples_by_page page with
      | None -> ()
      | Some targets -> List.iter (forget t owner state) !targets);
      Tag_table.remove state.tuples_by_page page)
    !to_drop;
  ignore (grant t owner state (Relation r))

let lock_page_id t owner state r page =
  if Int_table.mem state.covered_rels r then ()
  else
    let page_tag = Tag.Page (r, page) in
    if grant t owner state page_tag then begin
      (* Page lock subsumes the owner's tuple locks on that page. *)
      (match Tag_table.find_opt state.tuples_by_page page_tag with
      | None -> ()
      | Some targets ->
          List.iter (forget t owner state) !targets;
          Tag_table.remove state.tuples_by_page page_tag);
      let pages = pages_of state.pages_by_rel r in
      pages := page :: !pages;
      if List.length !pages > t.config.max_page_locks_per_relation then
        promote_owner_relation t owner state r
    end

let lock_page t ~owner ~rel ~page =
  lock_page_id t owner (owner_state t owner) (intern t rel) page

(* Coverage from the caches alone: relation-level, or the page memo. *)
let cached_cover state r page =
  Int_table.mem state.covered_rels r || (state.memo_rel = r && state.memo_page = page)

(* Coarse coverage of a heap tuple: the caches, or page-level via a [held]
   probe (which refreshes the memo, so a scan's next tuple on the same page
   hits the memo). *)
let tuple_covered state r page =
  cached_cover state r page
  || Tag_table.mem state.held (Page (r, page))
     && begin
          state.memo_rel <- r;
          state.memo_page <- page;
          true
        end

let lock_tuple_slow t owner state r key page =
  let target = Tag.Tuple (r, key) in
  if grant_at t owner state target page then begin
    let page_tag = Tag.Page (r, page) in
    let tuples =
      match Tag_table.find_opt state.tuples_by_page page_tag with
      | Some l -> l
      | None ->
          let l = ref [] in
          Tag_table.add state.tuples_by_page page_tag l;
          l
    in
    tuples := target :: !tuples;
    if List.length !tuples > t.config.max_tuple_locks_per_page then begin
      Obs.incr t.metrics.m_promotions;
      lock_page_id t owner state r page
    end
  end

let lock_tuple t ~owner ~rel ~key ~page =
  let state = owner_state t owner and r = intern t rel in
  if not (tuple_covered state r page) then lock_tuple_slow t owner state r key page

(* Whether [key] equals one of the first [n] keys recorded in [t.fresh]. *)
let rec among_fresh t keys key n =
  n > 0 && (Value.equal keys.(t.fresh.(n - 1)) key || among_fresh t keys key (n - 1))

(* The slice's distinct keys the owner does not hold yet, recorded in
   [t.fresh] in slice order; counting stops once there are more than
   [room].  Returns the count. *)
let count_fresh t state r keys ~pos ~len ~room =
  let n = ref 0 and i = ref pos in
  while !n <= room && !i < pos + len do
    let key = keys.(!i) in
    if not (Tag_table.mem state.held (Tuple (r, key)) || among_fresh t keys key !n) then begin
      if !n = Array.length t.fresh then begin
        let a = Array.make (2 * !n) 0 in
        Array.blit t.fresh 0 a 0 !n;
        t.fresh <- a
      end;
      t.fresh.(!n) <- !i;
      incr n
    end;
    incr i
  done;
  !n

(* Sequential [lock_tuple] calls on the slice would grant its fresh keys
   one by one and, at the one that crossed [max_tuple_locks_per_page],
   promote the page, dropping every tuple lock on it again.  Counting the
   fresh keys first gives the same final state without those grants: the
   page lock directly when the count crosses, the tuple locks otherwise. *)
let lock_tuples_slice t ~owner ~rel ~page keys ~pos ~len =
  let state = owner_state t owner and r = intern t rel in
  if not (tuple_covered state r page) then begin
    let held_here =
      match Tag_table.find state.tuples_by_page (Page (r, page)) with
      | l -> List.length !l
      | exception Not_found -> 0
    in
    let room = t.config.max_tuple_locks_per_page - held_here in
    let n = count_fresh t state r keys ~pos ~len ~room in
    if n > room then begin
      Obs.incr t.metrics.m_promotions;
      lock_page_id t owner state r page
    end
    else
      for j = 0 to n - 1 do
        lock_tuple_slow t owner state r keys.(t.fresh.(j)) page
      done
  end

let lock_tuples_page t ~owner ~rel ~page ~keys =
  let keys = Array.of_list keys in
  lock_tuples_slice t ~owner ~rel ~page keys ~pos:0 ~len:(Array.length keys)

(* Drop every fine-grained lock the owner holds on index [i] and take a
   whole-index lock instead. *)
let promote_owner_index t owner state i =
  Obs.incr t.metrics.m_promotions;
  (match Int_table.find_opt state.pages_by_index i with
  | None -> ()
  | Some pages ->
      List.iter (fun p -> forget t owner state (Index_page (i, p))) !pages;
      Int_table.remove state.pages_by_index i);
  ignore (grant t owner state (Index_rel i))

(* Next-key gap locks share the per-index promotion budget with page
   locks: too many fine index locks promote to a whole-index lock. *)
let note_index_fine t owner state i =
  let fine = pages_of state.pages_by_index i in
  fine := -1 :: !fine;
  if List.length !fine > t.config.max_page_locks_per_index then begin
    (* Drop all fine-grained locks on this index (we do not track their
       identities individually here; scan the owner's held set). *)
    Obs.incr t.metrics.m_promotions;
    let stale = ref [] in
    Tag_table.iter
      (fun (tg : Tag.t) _ ->
        match tg with
        | Index_page (i', _) | Index_key (i', _) | Index_inf i' ->
            if i' = i then stale := tg :: !stale
        | Relation _ | Page _ | Tuple _ | Index_rel _ -> ())
      state.held;
    List.iter (forget t owner state) !stale;
    Int_table.remove state.pages_by_index i;
    ignore (grant t owner state (Index_rel i))
  end

let lock_index_key_id t owner i key =
  let state = owner_state t owner in
  if Int_table.mem state.covered_idx i then ()
  else if grant t owner state (Index_key (i, key)) then note_index_fine t owner state i

let lock_index_key t ~owner ~index ~key = lock_index_key_id t owner (intern t index) key

let lock_index_inf_id t owner i =
  let state = owner_state t owner in
  if Int_table.mem state.covered_idx i then () else ignore (grant t owner state (Index_inf i))

let lock_index_inf t ~owner ~index = lock_index_inf_id t owner (intern t index)

let lock_index_page_id t owner i page =
  let state = owner_state t owner in
  if Int_table.mem state.covered_idx i then ()
  else if grant t owner state (Index_page (i, page)) then begin
    let pages = pages_of state.pages_by_index i in
    pages := page :: !pages;
    if List.length !pages > t.config.max_page_locks_per_index then
      promote_owner_index t owner state i
  end

let lock_index_page t ~owner ~index ~page = lock_index_page_id t owner (intern t index) page

(* [targets] without [target], which it holds once: only the prefix
   before it is copied. *)
let rec remove_tag (target : Tag.t) = function
  | [] -> []
  | tg :: rest -> if Tag.equal tg target then rest else tg :: remove_tag target rest

let unlock_tuple t ~owner ~rel ~key =
  match Hashtbl.find t.owners owner with
  | exception Not_found -> ()
  | state -> (
      let r = intern t rel in
      let target = Tag.Tuple (r, key) in
      match Tag_table.find state.held target with
      | exception Not_found -> ()
      | page -> (
          forget t owner state target;
          (* Only the list of the page the lock was granted on holds it. *)
          match Tag_table.find state.tuples_by_page (Page (r, page)) with
          | exception Not_found -> ()
          | targets -> targets := remove_tag target !targets))

type readers = { xids : xid list; old_committed : cseq option }

let no_readers = { xids = []; old_committed = None }

(* [holders] added to [xids] (newest first) unless already there. *)
let rec add_holders xids = function
  | [] -> xids
  | o :: rest -> add_holders (if List.mem o xids then xids else o :: xids) rest

let add_entry (e : entry option) xids =
  match e with None -> xids | Some e -> add_holders xids e.holders

(* The later of [mark] and the entry's committed-reader mark; the first
   of equal marks is kept. *)
let later_mark (e : entry option) mark =
  match (e, mark) with
  | Some { old_committed = Some c; _ }, Some c' when c <= c' -> mark
  | Some { old_committed = Some _ as m; _ }, _ -> m
  | (None | Some { old_committed = None; _ }), _ -> mark

(* The readers behind the entries of up to three tags, coarsest to finest
   (§5.2.1): holders in the order first seen, the latest mark.  With no
   entry at all, the one shared empty value. *)
let readers_of a b c =
  match (a, b, c) with
  | None, None, None -> no_readers
  | _ ->
      let xids = add_entry c (add_entry b (add_entry a [])) in
      { xids = List.rev xids; old_committed = later_mark c (later_mark b (later_mark a None)) }

let readers_for_write t ~rel ~key ~page =
  let r = intern t rel in
  readers_of
    (Tag_table.find_opt t.table (Relation r))
    (Tag_table.find_opt t.table (Page (r, page)))
    (Tag_table.find_opt t.table (Tuple (r, key)))

let readers_for_index_insert t ~index ~page =
  let i = intern t index in
  readers_of
    (Tag_table.find_opt t.table (Index_rel i))
    (Tag_table.find_opt t.table (Index_page (i, page)))
    None

let gap_tag i : Value.t option -> Tag.t = function
  | Some s -> Index_key (i, s)
  | None -> Index_inf i

let readers_for_index_insert_nextkey t ~index ~key ~succ =
  let i = intern t index in
  readers_of
    (Tag_table.find_opt t.table (Index_rel i))
    (Tag_table.find_opt t.table (Index_key (i, key)))
    (Tag_table.find_opt t.table (gap_tag i succ))

let release_owner t owner =
  match Hashtbl.find_opt t.owners owner with
  | None -> ()
  | Some state ->
      Tag_table.iter
        (fun tag _ ->
          match Tag_table.find t.table tag with
          | exception Not_found -> ()
          | e ->
              e.holders <- List.filter (fun o -> o <> owner) e.holders;
              maybe_drop_entry t tag e)
        state.held;
      retire_owner t owner state

let summarize_owner t owner ~cseq =
  match Hashtbl.find_opt t.owners owner with
  | None -> ()
  | Some state ->
      Tag_table.iter
        (fun tag _ ->
          match Tag_table.find t.table tag with
          | exception Not_found -> ()
          | e ->
              e.holders <- List.filter (fun o -> o <> owner) e.holders;
              set_old_committed t tag e cseq)
        state.held;
      retire_owner t owner state

let cleanup_old_committed t ~before =
  (* Pop the heap's stale prefix; each item is revalidated against the
     entry's current mark, so items superseded by a newer mark (or cleared
     by the DDL paths) are skipped. *)
  let continue_ = ref true in
  while !continue_ do
    match Oldc_heap.peek t.oldc with
    | Some (c, target) when c < before ->
        Oldc_heap.pop t.oldc;
        (match Tag_table.find_opt t.table target with
        | Some e when e.old_committed = Some c ->
            e.old_committed <- None;
            maybe_drop_entry t target e
        | Some _ | None -> ())
    | Some _ | None -> continue_ := false
  done

let on_index_page_split t ~index ~old_page ~new_page =
  let i = intern t index in
  match Tag_table.find_opt t.table (Index_page (i, old_page)) with
  | None -> ()
  | Some e -> (
      let holders = e.holders and old_c = e.old_committed in
      List.iter (fun owner -> lock_index_page_id t owner i new_page) holders;
      match old_c with
      | Some c ->
          let dst = Tag.Index_page (i, new_page) in
          set_old_committed t dst (entry_of t dst) c
      | None -> ())

(* Gap-lock inheritance for next-key locking.  A reader's lock on an index
   key guards the open gap below that key; when a physical index-entry
   insert at [key] splits that gap, or a rollback removing [key] merges it
   into the successor's, the guarding locks must follow the gap or a later
   insert into it would miss the reader.  Inheritance copies (never moves)
   holders and the committed-reader mark, so coverage only widens: the
   worst case is a spurious rw conflict, never a hidden one.  This mirrors
   {!on_index_page_split}, which does the same for page-granularity gaps. *)
let inherit_gap_locks t ~src ~(dst : Tag.t) =
  match Tag_table.find_opt t.table src with
  | None -> ()
  | Some e ->
      let holders = e.holders and old_c = e.old_committed in
      List.iter
        (fun owner ->
          match dst with
          | Index_key (i, key) -> lock_index_key_id t owner i key
          | Index_inf i -> lock_index_inf_id t owner i
          | Relation _ | Page _ | Tuple _ | Index_page _ | Index_rel _ -> ())
        holders;
      (match old_c with
      | Some c -> set_old_committed t dst (entry_of t dst) c
      | None -> ())

let on_index_key_insert t ~index ~key ~succ =
  let i = intern t index in
  inherit_gap_locks t ~src:(gap_tag i succ) ~dst:(Index_key (i, key))

let on_index_key_remove t ~index ~key ~succ =
  let i = intern t index in
  inherit_gap_locks t ~src:(Index_key (i, key)) ~dst:(gap_tag i succ)

let promote_relation t ~rel =
  let r = intern t rel in
  (* Every owner's page/tuple locks on [rel] become a relation lock; the
     dummy owner's become a dummy relation-level lock. *)
  let owners_to_promote = ref [] in
  Hashtbl.iter
    (fun owner state ->
      let has_fine =
        Int_table.mem state.pages_by_rel r
        || Tag_table.fold
             (fun (page : Tag.t) targets acc ->
               acc || match page with Page (r', _) -> r' = r && !targets <> [] | _ -> false)
             state.tuples_by_page false
      in
      if has_fine then owners_to_promote := (owner, state) :: !owners_to_promote)
    t.owners;
  List.iter (fun (owner, state) -> promote_owner_relation t owner state r) !owners_to_promote;
  (* Dummy-owner fine-grained locks on rel. *)
  let dummy_cseq = ref None in
  let stale = ref [] in
  Tag_table.iter
    (fun (tag : Tag.t) (e : entry) ->
      let matches =
        match tag with
        | Page (r', _) | Tuple (r', _) -> r' = r
        | Relation _ | Index_page _ | Index_key _ | Index_inf _ | Index_rel _ -> false
      in
      if matches then
        match e.old_committed with
        | Some c ->
            (dummy_cseq :=
               match !dummy_cseq with Some c' -> Some (max c c') | None -> Some c);
            stale := (tag, e) :: !stale
        | None -> ())
    t.table;
  List.iter
    (fun (tag, (e : entry)) ->
      e.old_committed <- None;
      maybe_drop_entry t tag e)
    !stale;
  match !dummy_cseq with
  | None -> ()
  | Some c -> set_old_committed t (Relation r) (entry_of t (Relation r)) c

let drop_index_to_relation t ~index ~heap_rel =
  let i = intern t index and heap_r = intern t heap_rel in
  let affected_owners = ref [] in
  let dummy_cseq = ref None in
  let stale = ref [] in
  Tag_table.iter
    (fun (tag : Tag.t) (e : entry) ->
      let matches =
        match tag with
        | Index_page (i', _) | Index_key (i', _) | Index_inf i' | Index_rel i' -> i' = i
        | Relation _ | Page _ | Tuple _ -> false
      in
      if matches then begin
        List.iter
          (fun o -> if not (List.mem o !affected_owners) then affected_owners := o :: !affected_owners)
          e.holders;
        (match e.old_committed with
        | Some c ->
            dummy_cseq := (match !dummy_cseq with Some c' -> Some (max c c') | None -> Some c)
        | None -> ());
        stale := tag :: !stale
      end)
    t.table;
  (* Owners in xid order, so the relation lock's holder list does not
     depend on how the table hashes. *)
  List.iter
    (fun owner ->
      match Hashtbl.find_opt t.owners owner with
      | None -> ()
      | Some state ->
          List.iter (forget t owner state) !stale;
          Int_table.remove state.pages_by_index i;
          ignore (grant t owner state (Relation heap_r)))
    (List.sort Int.compare !affected_owners);
  List.iter
    (fun tag ->
      match Tag_table.find_opt t.table tag with
      | None -> ()
      | Some e ->
          e.old_committed <- None;
          maybe_drop_entry t tag e)
    !stale;
  match !dummy_cseq with
  | None -> ()
  | Some c -> set_old_committed t (Relation heap_r) (entry_of t (Relation heap_r)) c

let dump t =
  Tag_table.fold
    (fun tag (e : entry) acc -> (target_of t tag, e.holders, e.old_committed) :: acc)
    t.table []
  |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)

let held_by t owner =
  match Hashtbl.find_opt t.owners owner with
  | None -> []
  | Some state ->
      Tag_table.fold (fun tag _ acc -> target_of t tag :: acc) state.held []
      |> List.sort compare

let owner_lock_count t owner =
  match Hashtbl.find_opt t.owners owner with
  | None -> 0
  | Some state -> Tag_table.length state.held

let total_lock_count t =
  Tag_table.fold
    (fun _ (e : entry) acc ->
      acc + List.length e.holders + (match e.old_committed with Some _ -> 1 | None -> 0))
    t.table 0

let promotions t = Obs.counter_value t.metrics.m_promotions
