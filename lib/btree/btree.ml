open Ssi_storage

type entry = { ik : Value.t; pk : Value.t }

(* Entry [a] against the entry [(ik, pk)], taken apart so that probes
   build no record. *)
let compare_key a ik pk =
  let c = Value.compare a.ik ik in
  if c <> 0 then c else Value.compare a.pk pk

let compare_entry a b = compare_key a b.ik b.pk

type node = Leaf of leaf | Internal of internal

and leaf = { lid : int; mutable entries : entry array; mutable next : leaf option }

and internal = {
  mutable seps : entry array;  (** separators; child [i] holds entries < [seps.(i)] *)
  mutable children : node array;
}

type t = {
  order : int;
  idx_name : string;
  mutable root : node;
  mutable next_page : int;
  mutable on_split : old_page:int -> new_page:int -> unit;
  mutable count : int;
}

let create ?(order = 32) ~name () =
  if order < 4 then invalid_arg "Btree.create: order must be >= 4";
  {
    order;
    idx_name = name;
    root = Leaf { lid = 0; entries = [||]; next = None };
    next_page = 1;
    on_split = (fun ~old_page:_ ~new_page:_ -> ());
    count = 0;
  }

let name t = t.idx_name
let set_on_split t hook = t.on_split <- hook
let cardinal t = t.count

let fresh_page t =
  let id = t.next_page in
  t.next_page <- id + 1;
  id

(* Index of the first element of [a] that is >= [(ik, pk)] (i.e. lower
   bound). *)
let lower_bound a ik pk =
  let lo = ref 0 and hi = ref (Array.length a) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if compare_key a.(mid) ik pk < 0 then lo := mid + 1 else hi := mid
  done;
  !lo

(* Child to descend into for entry [(ik, pk)]: first separator > it
   decides. *)
let child_index seps ik pk =
  let lo = ref 0 and hi = ref (Array.length seps) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if compare_key seps.(mid) ik pk <= 0 then lo := mid + 1 else hi := mid
  done;
  !lo

let array_insert a i x =
  let n = Array.length a in
  let b = Array.make (n + 1) x in
  Array.blit a 0 b 0 i;
  Array.blit a i b (i + 1) (n - i);
  b

let array_remove a i =
  let n = Array.length a in
  let b = Array.sub a 0 (n - 1) in
  Array.blit a (i + 1) b i (n - 1 - i);
  b

(* Result of inserting into a subtree: either it fit, or the node split and
   the parent must add [sep] (first entry of [right]) and child [right]. *)
type split = No_split | Split of entry * node

let rec insert_into t node e ~page_out =
  match node with
  | Leaf l ->
      let i = lower_bound l.entries e.ik e.pk in
      if i < Array.length l.entries && compare_entry l.entries.(i) e = 0 then begin
        page_out := l.lid;
        No_split
      end
      else begin
        l.entries <- array_insert l.entries i e;
        t.count <- t.count + 1;
        if Array.length l.entries <= t.order then begin
          page_out := l.lid;
          No_split
        end
        else begin
          (* Split: right half moves to a fresh page. *)
          let n = Array.length l.entries in
          let mid = n / 2 in
          let right_entries = Array.sub l.entries mid (n - mid) in
          let right = { lid = fresh_page t; entries = right_entries; next = l.next } in
          l.entries <- Array.sub l.entries 0 mid;
          l.next <- Some right;
          t.on_split ~old_page:l.lid ~new_page:right.lid;
          page_out := (if i < mid then l.lid else right.lid);
          Split (right_entries.(0), Leaf right)
        end
      end
  | Internal inner -> (
      let ci = child_index inner.seps e.ik e.pk in
      match insert_into t inner.children.(ci) e ~page_out with
      | No_split -> No_split
      | Split (sep, right_child) ->
          inner.seps <- array_insert inner.seps ci sep;
          inner.children <- array_insert inner.children (ci + 1) right_child;
          if Array.length inner.children <= t.order then No_split
          else begin
            let nkids = Array.length inner.children in
            let mid = nkids / 2 in
            (* Separator promoted to the parent; it does not stay in either
               half. *)
            let promoted = inner.seps.(mid - 1) in
            let right =
              {
                seps = Array.sub inner.seps mid (Array.length inner.seps - mid);
                children = Array.sub inner.children mid (nkids - mid);
              }
            in
            inner.seps <- Array.sub inner.seps 0 (mid - 1);
            inner.children <- Array.sub inner.children 0 mid;
            Split (promoted, Internal right)
          end)

let insert t ~key ~pk =
  let e = { ik = key; pk } in
  let page_out = ref 0 in
  let before = t.count in
  (match insert_into t t.root e ~page_out with
  | No_split -> ()
  | Split (sep, right) ->
      t.root <- Internal { seps = [| sep |]; children = [| t.root; right |] });
  (!page_out, t.count > before)

let rec delete_from t node e =
  match node with
  | Leaf l ->
      let i = lower_bound l.entries e.ik e.pk in
      if i < Array.length l.entries && compare_entry l.entries.(i) e = 0 then begin
        l.entries <- array_remove l.entries i;
        t.count <- t.count - 1;
        true
      end
      else false
  | Internal inner -> delete_from t inner.children.(child_index inner.seps e.ik e.pk) e

let delete t ~key ~pk = delete_from t t.root { ik = key; pk }

let rec find_leaf node ik pk =
  match node with
  | Leaf l -> l
  | Internal inner -> find_leaf inner.children.(child_index inner.seps ik pk) ik pk

(* A walk from [lo] starts at the first entry >= [(lo, Null)]: Null sorts
   below every other value, so that entry is the first with key >= [lo].
   The leaf-chain loops below take every parameter as an argument, so a
   walk builds no closure, pair or record. *)
let start_leaf t lo = find_leaf t.root lo Value.Null

(* Visit the entries of [l] from [i] on, then the next leaves (each
   announced to [page] first), until an entry beyond [hi]. *)
let rec walk_entries l i ~lo ~hi ~page ~entry =
  if i < Array.length l.entries then begin
    let e = l.entries.(i) in
    if Value.compare e.ik hi <= 0 then begin
      if Value.compare e.ik lo >= 0 then entry e.ik e.pk;
      walk_entries l (i + 1) ~lo ~hi ~page ~entry
    end
  end
  else
    match l.next with
    | None -> ()
    | Some next ->
        page next.lid;
        walk_entries next 0 ~lo ~hi ~page ~entry

let walk t ~lo ~hi ~page ~entry =
  let l = start_leaf t lo in
  page l.lid;
  walk_entries l (lower_bound l.entries lo Value.Null) ~lo ~hi ~page ~entry

(* The walk moves past a leaf exactly when every entry it has left there
   is <= [hi]; entries are sorted, so the last one decides. *)
let rec walk_pages_from l i ~hi ~page =
  let n = Array.length l.entries in
  if i >= n || Value.compare l.entries.(n - 1).ik hi <= 0 then
    match l.next with
    | None -> ()
    | Some next ->
        page next.lid;
        walk_pages_from next 0 ~hi ~page

let walk_pages t ~lo ~hi ~page =
  let l = start_leaf t lo in
  page l.lid;
  walk_pages_from l (lower_bound l.entries lo Value.Null) ~hi ~page

let range t ~lo ~hi ~pages =
  let results = ref [] in
  walk t ~lo ~hi
    ~page:(fun p -> pages := p :: !pages)
    ~entry:(fun k pk -> results := (k, pk) :: !results);
  List.rev !results

let lookup t key ~pages =
  let pks = ref [] in
  walk t ~lo:key ~hi:key
    ~page:(fun p -> pages := p :: !pages)
    ~entry:(fun _ pk -> pks := pk :: !pks);
  List.rev !pks

let rec succ_from l i key =
  if i < Array.length l.entries then
    let k = l.entries.(i).ik in
    if Value.compare k key > 0 then Some k else succ_from l (i + 1) key
  else match l.next with None -> None | Some next -> succ_from next 0 key

let next_key_after t key =
  let l = start_leaf t key in
  succ_from l (lower_bound l.entries key Value.Null) key

let rec iter_node node f =
  match node with
  | Leaf l -> Array.iter (fun e -> f e.ik e.pk) l.entries
  | Internal inner -> Array.iter (fun c -> iter_node c f) inner.children

let iter t f = iter_node t.root f

let rec height_of = function
  | Leaf _ -> 1
  | Internal inner -> 1 + height_of inner.children.(0)

let height t = height_of t.root

let leaf_pages t =
  let rec leftmost = function Leaf l -> l | Internal i -> leftmost i.children.(0) in
  let rec collect l acc =
    match l.next with None -> List.rev (l.lid :: acc) | Some n -> collect n (l.lid :: acc)
  in
  collect (leftmost t.root) []

let check_invariants t =
  let fail fmt = Printf.ksprintf failwith fmt in
  let expected_height = height t in
  (* Checks each subtree; returns (min entry, max entry) option and counts
     entries.  [lo]/[hi] are the separator bounds inherited from parents. *)
  let total = ref 0 in
  let rec check node depth lo hi =
    (match node with
    | Leaf l ->
        if depth <> expected_height then fail "leaf at depth %d, expected %d" depth expected_height;
        if Array.length l.entries > t.order then fail "leaf %d overfull" l.lid;
        total := !total + Array.length l.entries;
        Array.iteri
          (fun i e ->
            if i > 0 && compare_entry l.entries.(i - 1) e >= 0 then
              fail "leaf %d not strictly sorted" l.lid)
          l.entries
    | Internal inner ->
        let nkids = Array.length inner.children in
        if nkids > t.order then fail "internal node overfull";
        if nkids < 2 then fail "internal node underfull";
        if Array.length inner.seps <> nkids - 1 then fail "separator count mismatch";
        Array.iteri
          (fun i s ->
            if i > 0 && compare_entry inner.seps.(i - 1) s >= 0 then
              fail "separators not sorted")
          inner.seps;
        Array.iteri
          (fun i child ->
            let clo = if i = 0 then lo else Some inner.seps.(i - 1) in
            let chi = if i = nkids - 1 then hi else Some inner.seps.(i) in
            check child (depth + 1) clo chi)
          inner.children);
    (* Bound check on every entry of the subtree via leaves. *)
    match node with
    | Leaf l ->
        Array.iter
          (fun e ->
            (match lo with
            | Some b when compare_entry e b < 0 -> fail "entry below separator bound"
            | _ -> ());
            match hi with
            | Some b when compare_entry e b >= 0 -> fail "entry above separator bound"
            | _ -> ())
          l.entries
    | Internal _ -> ()
  in
  check t.root 1 None None;
  if !total <> t.count then fail "count mismatch: counted %d, recorded %d" !total t.count;
  (* Leaf chain covers all leaves in order. *)
  let chain = leaf_pages t in
  let rec collect_leaves node acc =
    match node with
    | Leaf l -> l.lid :: acc
    | Internal i -> Array.fold_right collect_leaves i.children acc
  in
  let tree_leaves = collect_leaves t.root [] in
  if chain <> tree_leaves then fail "leaf chain does not match tree order"
