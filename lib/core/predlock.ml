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

module Target_table = Hashtbl.Make (struct
  type t = target

  let equal a b =
    match (a, b) with
    | Relation x, Relation y -> String.equal x y
    | Page (r, p), Page (r', p') -> String.equal r r' && p = p'
    | Tuple (r, k), Tuple (r', k') -> String.equal r r' && Value.equal k k'
    | Index_page (i, p), Index_page (i', p') -> String.equal i i' && p = p'
    | Index_key (i, k), Index_key (i', k') -> String.equal i i' && Value.equal k k'
    | Index_inf x, Index_inf y -> String.equal x y
    | Index_rel x, Index_rel y -> String.equal x y
    | (Relation _ | Page _ | Tuple _ | Index_page _ | Index_key _ | Index_inf _ | Index_rel _), _
      ->
        false

  let hash = function
    | Relation r -> Hashtbl.hash (0, r)
    | Page (r, p) -> Hashtbl.hash (1, r, p)
    | Tuple (r, k) -> Hashtbl.hash (2, r, Value.hash k)
    | Index_page (i, p) -> Hashtbl.hash (3, i, p)
    | Index_key (i, k) -> Hashtbl.hash (5, i, Value.hash k)
    | Index_inf i -> Hashtbl.hash (6, i)
    | Index_rel i -> Hashtbl.hash (4, i)
end)

type entry = {
  mutable holders : xid list;
  mutable old_committed : cseq option;  (** dummy owner's latest recorded cseq *)
}

(* Per-owner bookkeeping enabling promotion and O(locks) release. *)
type owner_state = {
  held : unit Target_table.t;
  (* Tuple locks per (relation, heap page): the tuple targets held there. *)
  tuples_by_page : (string * int, target list ref) Hashtbl.t;
  (* Heap-page locks per relation. *)
  pages_by_rel : (string, int list ref) Hashtbl.t;
  (* Index-page locks per index. *)
  pages_by_index : (string, int list ref) Hashtbl.t;
  (* Coverage cache: which relations/indexes this owner already covers at
     the coarsest granularity, plus the last heap page whose page lock the
     owner holds.  A scan that already holds coarse coverage skips the
     per-tuple [held] probes entirely; kept in sync by [grant]/[forget],
     and an owner never loses coverage except through [forget] (promotions
     only coarsen), so a hit can never be stale. *)
  covered_rels : (string, unit) Hashtbl.t;
  covered_idx : (string, unit) Hashtbl.t;
  mutable page_memo : (string * int) option;
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

(* Min-heap of (cseq, target) for every dummy-owner mark ever recorded:
   {!cleanup_old_committed} pops the stale prefix instead of scanning the
   whole lock table on every commit's cleanup pass.  Items are lazily
   revalidated against the entry's current mark (per-target marks strictly
   increase — commit cseqs are unique — so an exact match identifies the
   live record). *)
module Oldc_heap = struct
  type h = { mutable a : (cseq * target) array; mutable n : int }

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
  table : entry Target_table.t;
  owners : (xid, owner_state) Hashtbl.t;
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
    table = Target_table.create 1024;
    owners = Hashtbl.create 64;
    config;
    oldc = Oldc_heap.create ();
    obs;
    metrics;
  }

let count_acquired t = function
  | Relation _ -> Obs.incr t.metrics.m_relation
  | Page _ -> Obs.incr t.metrics.m_page
  | Tuple _ -> Obs.incr t.metrics.m_tuple
  | Index_page _ -> Obs.incr t.metrics.m_index_page
  | Index_key _ -> Obs.incr t.metrics.m_index_key
  | Index_inf _ -> Obs.incr t.metrics.m_index_inf
  | Index_rel _ -> Obs.incr t.metrics.m_index_rel

let entry_of t target =
  match Target_table.find_opt t.table target with
  | Some e -> e
  | None ->
      let e = { holders = []; old_committed = None } in
      Target_table.add t.table target e;
      e

let owner_state t owner =
  match Hashtbl.find_opt t.owners owner with
  | Some s -> s
  | None ->
      let s =
        {
          held = Target_table.create 16;
          tuples_by_page = Hashtbl.create 8;
          pages_by_rel = Hashtbl.create 4;
          pages_by_index = Hashtbl.create 4;
          covered_rels = Hashtbl.create 4;
          covered_idx = Hashtbl.create 4;
          page_memo = None;
        }
      in
      Hashtbl.add t.owners owner s;
      s

let holds t ~owner target =
  match Hashtbl.find_opt t.owners owner with
  | None -> false
  | Some s -> Target_table.mem s.held target

let maybe_drop_entry t target e =
  if e.holders = [] && e.old_committed = None then Target_table.remove t.table target

(* Record [cseq] as the dummy owner's mark on [target] if newer than the
   current one, and index it in the cleanup heap.  Marks only ever grow
   (commit cseqs are unique), so pushing exactly on change keeps the heap's
   exact-match revalidation sound. *)
let set_old_committed t target (e : entry) cseq =
  match e.old_committed with
  | Some c when c >= cseq -> ()
  | Some _ | None ->
      e.old_committed <- Some cseq;
      Oldc_heap.push t.oldc (cseq, target)

(* Remove [target] from both the shared table and the owner's bookkeeping
   (except the per-page/per-rel counters, which callers maintain). *)
let cache_granted state = function
  | Relation r -> Hashtbl.replace state.covered_rels r ()
  | Index_rel i -> Hashtbl.replace state.covered_idx i ()
  | Page (r, p) -> state.page_memo <- Some (r, p)
  | Tuple _ | Index_page _ | Index_key _ | Index_inf _ -> ()

let cache_forgotten state = function
  | Relation r -> Hashtbl.remove state.covered_rels r
  | Index_rel i -> Hashtbl.remove state.covered_idx i
  | Page (r, p) -> (
      match state.page_memo with
      | Some (r', p') when p = p' && String.equal r r' -> state.page_memo <- None
      | Some _ | None -> ())
  | Tuple _ | Index_page _ | Index_key _ | Index_inf _ -> ()

let forget t owner state target =
  if Target_table.mem state.held target then begin
    Target_table.remove state.held target;
    cache_forgotten state target;
    match Target_table.find_opt t.table target with
    | None -> ()
    | Some e ->
        e.holders <- List.filter (fun o -> o <> owner) e.holders;
        maybe_drop_entry t target e
  end

let grant t owner state target =
  if not (Target_table.mem state.held target) then begin
    Target_table.replace state.held target ();
    cache_granted state target;
    let e = entry_of t target in
    e.holders <- owner :: e.holders;
    count_acquired t target;
    true
  end
  else false

let lock_relation t ~owner ~rel =
  let state = owner_state t owner in
  ignore (grant t owner state (Relation rel))

let lock_index_rel t ~owner ~index =
  let state = owner_state t owner in
  ignore (grant t owner state (Index_rel index))

(* Promote all of the owner's page and tuple locks on [rel] to a single
   relation lock. *)
let promote_owner_relation t owner state rel =
  Obs.incr t.metrics.m_promotions;
  (match Hashtbl.find_opt state.pages_by_rel rel with
  | None -> ()
  | Some pages ->
      List.iter (fun p -> forget t owner state (Page (rel, p))) !pages;
      Hashtbl.remove state.pages_by_rel rel);
  let to_drop = ref [] in
  Hashtbl.iter
    (fun (r, _page) _targets -> if r = rel then to_drop := (r, _page) :: !to_drop)
    state.tuples_by_page;
  List.iter
    (fun key ->
      (match Hashtbl.find_opt state.tuples_by_page key with
      | None -> ()
      | Some targets -> List.iter (forget t owner state) !targets);
      Hashtbl.remove state.tuples_by_page key)
    !to_drop;
  ignore (grant t owner state (Relation rel))

let lock_page t ~owner ~rel ~page =
  let state = owner_state t owner in
  if Hashtbl.mem state.covered_rels rel then ()
  else if grant t owner state (Page (rel, page)) then begin
    (* Page lock subsumes the owner's tuple locks on that page. *)
    (match Hashtbl.find_opt state.tuples_by_page (rel, page) with
    | None -> ()
    | Some targets ->
        List.iter (forget t owner state) !targets;
        Hashtbl.remove state.tuples_by_page (rel, page));
    let pages =
      match Hashtbl.find_opt state.pages_by_rel rel with
      | Some l -> l
      | None ->
          let l = ref [] in
          Hashtbl.add state.pages_by_rel rel l;
          l
    in
    pages := page :: !pages;
    if List.length !pages > t.config.max_page_locks_per_relation then
      promote_owner_relation t owner state rel
  end

(* Coarse coverage of a heap tuple: relation-level (cache), page-level via
   the single-page memo, or page-level via a [held] probe (which refreshes
   the memo, so a scan's next tuple on the same page hits the memo). *)
let tuple_covered state ~rel ~page =
  Hashtbl.mem state.covered_rels rel
  ||
  match state.page_memo with
  | Some (r, p) when p = page && String.equal r rel -> true
  | Some _ | None ->
      if Target_table.mem state.held (Page (rel, page)) then begin
        state.page_memo <- Some (rel, page);
        true
      end
      else false

let lock_tuple_slow t owner state ~rel ~key ~page =
  let target = Tuple (rel, key) in
  if grant t owner state target then begin
    let tuples =
      match Hashtbl.find_opt state.tuples_by_page (rel, page) with
      | Some l -> l
      | None ->
          let l = ref [] in
          Hashtbl.add state.tuples_by_page (rel, page) l;
          l
    in
    tuples := target :: !tuples;
    if List.length !tuples > t.config.max_tuple_locks_per_page then begin
      Obs.incr t.metrics.m_promotions;
      lock_page t ~owner ~rel ~page
    end
  end

let lock_tuple t ~owner ~rel ~key ~page =
  let state = owner_state t owner in
  if tuple_covered state ~rel ~page then ()
  else lock_tuple_slow t owner state ~rel ~key ~page

let lock_tuples_page t ~owner ~rel ~page ~keys =
  let state = owner_state t owner in
  if not (tuple_covered state ~rel ~page) then
    List.iter
      (fun key ->
        (* Re-check before each key: acquiring one may promote the owner to
           page or relation coverage, after which the remaining keys are
           no-ops — exactly as sequential [lock_tuple] calls behave.  The
           re-check hits the cache/memo, never the [held] table. *)
        let covered =
          Hashtbl.mem state.covered_rels rel
          ||
          match state.page_memo with
          | Some (r, p) -> p = page && String.equal r rel
          | None -> false
        in
        if not covered then lock_tuple_slow t owner state ~rel ~key ~page)
      keys

(* Promote all of the owner's index-page locks on [index] to a whole-index
   lock. *)
let promote_owner_index t owner state index =
  Obs.incr t.metrics.m_promotions;
  (match Hashtbl.find_opt state.pages_by_index index with
  | None -> ()
  | Some pages ->
      List.iter (fun p -> forget t owner state (Index_page (index, p))) !pages;
      Hashtbl.remove state.pages_by_index index);
  ignore (grant t owner state (Index_rel index))

(* Next-key gap locks share the per-index promotion budget with page
   locks: too many fine index locks promote to a whole-index lock. *)
let note_index_fine t owner state index target =
  ignore target;
  let fine =
    match Hashtbl.find_opt state.pages_by_index index with
    | Some l -> l
    | None ->
        let l = ref [] in
        Hashtbl.add state.pages_by_index index l;
        l
  in
  fine := -1 :: !fine;
  if List.length !fine > t.config.max_page_locks_per_index then begin
    (* Drop all fine-grained locks on this index (we do not track their
       identities individually here; scan the owner's held set). *)
    Obs.incr t.metrics.m_promotions;
    let stale = ref [] in
    Target_table.iter
      (fun tg () ->
        match tg with
        | Index_page (i, _) | Index_key (i, _) -> if i = index then stale := tg :: !stale
        | Index_inf i -> if i = index then stale := tg :: !stale
        | Relation _ | Page _ | Tuple _ | Index_rel _ -> ())
      state.held;
    List.iter (forget t owner state) !stale;
    Hashtbl.remove state.pages_by_index index;
    ignore (grant t owner state (Index_rel index))
  end

let lock_index_key t ~owner ~index ~key =
  let state = owner_state t owner in
  if Hashtbl.mem state.covered_idx index then ()
  else if grant t owner state (Index_key (index, key)) then
    note_index_fine t owner state index (Index_key (index, key))

let lock_index_inf t ~owner ~index =
  let state = owner_state t owner in
  if Hashtbl.mem state.covered_idx index then ()
  else ignore (grant t owner state (Index_inf index))

let lock_index_page t ~owner ~index ~page =
  let state = owner_state t owner in
  if Hashtbl.mem state.covered_idx index then ()
  else if grant t owner state (Index_page (index, page)) then begin
    let pages =
      match Hashtbl.find_opt state.pages_by_index index with
      | Some l -> l
      | None ->
          let l = ref [] in
          Hashtbl.add state.pages_by_index index l;
          l
    in
    pages := page :: !pages;
    if List.length !pages > t.config.max_page_locks_per_index then
      promote_owner_index t owner state index
  end

let unlock_tuple t ~owner ~rel ~key =
  match Hashtbl.find_opt t.owners owner with
  | None -> ()
  | Some state ->
      let target = Tuple (rel, key) in
      if Target_table.mem state.held target then begin
        forget t owner state target;
        (* Also forget it in the per-page lists (linear, lists are short by
           construction: promotion caps them). *)
        Hashtbl.iter
          (fun _ targets ->
            targets :=
              List.filter
                (fun tg ->
                  match tg with
                  | Tuple (r, k) -> not (r = rel && Value.equal k key)
                  | Relation _ | Page _ | Index_page _ | Index_key _ | Index_inf _
                  | Index_rel _ ->
                      true)
                !targets)
          state.tuples_by_page
      end

type readers = { xids : xid list; old_committed : cseq option }

let collect t targets =
  (* Coarsest to finest, per §5.2.1. *)
  let xids = ref [] and old_c = ref None in
  List.iter
    (fun target ->
      match Target_table.find_opt t.table target with
      | None -> ()
      | Some e ->
          List.iter (fun o -> if not (List.mem o !xids) then xids := o :: !xids) e.holders;
          (match (e.old_committed, !old_c) with
          | Some c, Some c' -> if c > c' then old_c := Some c
          | Some c, None -> old_c := Some c
          | None, _ -> ()))
    targets;
  { xids = List.rev !xids; old_committed = !old_c }

let readers_for_write t ~rel ~key ~page =
  collect t [ Relation rel; Page (rel, page); Tuple (rel, key) ]

let readers_for_index_insert t ~index ~page =
  collect t [ Index_rel index; Index_page (index, page) ]

let readers_for_index_insert_nextkey t ~index ~key ~succ =
  let gap =
    match succ with Some s -> Index_key (index, s) | None -> Index_inf index
  in
  collect t [ Index_rel index; Index_key (index, key); gap ]

let release_owner t owner =
  match Hashtbl.find_opt t.owners owner with
  | None -> ()
  | Some state ->
      Target_table.iter
        (fun target () ->
          match Target_table.find_opt t.table target with
          | None -> ()
          | Some e ->
              e.holders <- List.filter (fun o -> o <> owner) e.holders;
              maybe_drop_entry t target e)
        state.held;
      Hashtbl.remove t.owners owner

let summarize_owner t owner ~cseq =
  match Hashtbl.find_opt t.owners owner with
  | None -> ()
  | Some state ->
      Target_table.iter
        (fun target () ->
          match Target_table.find_opt t.table target with
          | None -> ()
          | Some e ->
              e.holders <- List.filter (fun o -> o <> owner) e.holders;
              set_old_committed t target e cseq)
        state.held;
      Hashtbl.remove t.owners owner

let cleanup_old_committed t ~before =
  (* Pop the heap's stale prefix; each item is revalidated against the
     entry's current mark, so items superseded by a newer mark (or cleared
     by the DDL paths) are skipped. *)
  let continue_ = ref true in
  while !continue_ do
    match Oldc_heap.peek t.oldc with
    | Some (c, target) when c < before ->
        Oldc_heap.pop t.oldc;
        (match Target_table.find_opt t.table target with
        | Some e when e.old_committed = Some c ->
            e.old_committed <- None;
            maybe_drop_entry t target e
        | Some _ | None -> ())
    | Some _ | None -> continue_ := false
  done

let on_index_page_split t ~index ~old_page ~new_page =
  match Target_table.find_opt t.table (Index_page (index, old_page)) with
  | None -> ()
  | Some e ->
      let holders = e.holders and old_c = e.old_committed in
      List.iter
        (fun owner ->
          let state = owner_state t owner in
          lock_index_page t ~owner ~index ~page:new_page;
          ignore state)
        holders;
      (match old_c with
      | Some c -> set_old_committed t (Index_page (index, new_page)) (entry_of t (Index_page (index, new_page))) c
      | None -> ())

(* Gap-lock inheritance for next-key locking.  A reader's lock on an index
   key guards the open gap below that key; when a physical index-entry
   insert at [key] splits that gap, or a rollback removing [key] merges it
   into the successor's, the guarding locks must follow the gap or a later
   insert into it would miss the reader.  Inheritance copies (never moves)
   holders and the committed-reader mark, so coverage only widens: the
   worst case is a spurious rw conflict, never a hidden one.  This mirrors
   {!on_index_page_split}, which does the same for page-granularity gaps. *)
let inherit_gap_locks t ~src ~dst =
  match Target_table.find_opt t.table src with
  | None -> ()
  | Some e ->
      let holders = e.holders and old_c = e.old_committed in
      List.iter
        (fun owner ->
          match dst with
          | Index_key (index, key) -> lock_index_key t ~owner ~index ~key
          | Index_inf index -> lock_index_inf t ~owner ~index
          | Relation _ | Page _ | Tuple _ | Index_page _ | Index_rel _ -> ())
        holders;
      (match old_c with
      | Some c -> set_old_committed t dst (entry_of t dst) c
      | None -> ())

let gap_target index = function
  | Some s -> Index_key (index, s)
  | None -> Index_inf index

let on_index_key_insert t ~index ~key ~succ =
  inherit_gap_locks t ~src:(gap_target index succ) ~dst:(Index_key (index, key))

let on_index_key_remove t ~index ~key ~succ =
  inherit_gap_locks t ~src:(Index_key (index, key)) ~dst:(gap_target index succ)

let promote_relation t ~rel =
  (* Every owner's page/tuple locks on [rel] become a relation lock; the
     dummy owner's become a dummy relation-level lock. *)
  let owners_to_promote = ref [] in
  Hashtbl.iter
    (fun owner state ->
      let has_fine =
        Hashtbl.mem state.pages_by_rel rel
        || Hashtbl.fold
             (fun (r, _) targets acc -> acc || (r = rel && !targets <> []))
             state.tuples_by_page false
      in
      if has_fine then owners_to_promote := (owner, state) :: !owners_to_promote)
    t.owners;
  List.iter (fun (owner, state) -> promote_owner_relation t owner state rel) !owners_to_promote;
  (* Dummy-owner fine-grained locks on rel. *)
  let dummy_cseq = ref None in
  let stale = ref [] in
  Target_table.iter
    (fun target (e : entry) ->
      let matches =
        match target with
        | Page (r, _) | Tuple (r, _) -> r = rel
        | Relation _ | Index_page _ | Index_key _ | Index_inf _ | Index_rel _ -> false
      in
      if matches then
        match e.old_committed with
        | Some c ->
            (dummy_cseq :=
               match !dummy_cseq with Some c' -> Some (max c c') | None -> Some c);
            stale := (target, e) :: !stale
        | None -> ())
    t.table;
  List.iter
    (fun (target, (e : entry)) ->
      e.old_committed <- None;
      maybe_drop_entry t target e)
    !stale;
  match !dummy_cseq with
  | None -> ()
  | Some c -> set_old_committed t (Relation rel) (entry_of t (Relation rel)) c

let drop_index_to_relation t ~index ~heap_rel =
  let affected_owners = ref [] in
  let dummy_cseq = ref None in
  let stale = ref [] in
  Target_table.iter
    (fun target (e : entry) ->
      let matches =
        match target with
        | Index_page (i, _) | Index_key (i, _) | Index_inf i | Index_rel i -> i = index
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
        stale := target :: !stale
      end)
    t.table;
  List.iter
    (fun owner ->
      match Hashtbl.find_opt t.owners owner with
      | None -> ()
      | Some state ->
          List.iter (forget t owner state) !stale;
          Hashtbl.remove state.pages_by_index index;
          ignore (grant t owner state (Relation heap_rel)))
    !affected_owners;
  List.iter
    (fun target ->
      match Target_table.find_opt t.table target with
      | None -> ()
      | Some e ->
          e.old_committed <- None;
          maybe_drop_entry t target e)
    !stale;
  match !dummy_cseq with
  | None -> ()
  | Some c -> set_old_committed t (Relation heap_rel) (entry_of t (Relation heap_rel)) c

let dump t =
  Target_table.fold
    (fun target (e : entry) acc -> (target, e.holders, e.old_committed) :: acc)
    t.table []

let owner_lock_count t owner =
  match Hashtbl.find_opt t.owners owner with
  | None -> 0
  | Some state -> Target_table.length state.held

let total_lock_count t =
  Target_table.fold
    (fun _ (e : entry) acc ->
      acc + List.length e.holders + (match e.old_committed with Some _ -> 1 | None -> 0))
    t.table 0

let promotions t = Obs.counter_value t.metrics.m_promotions
