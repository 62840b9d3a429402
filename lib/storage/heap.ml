type xid = int

let invalid_xid = 0

type tid = { page : int; slot : int }

type tuple = {
  mutable tid : tid;
  key : Value.t;
  row : Value.t array;
  xmin : xid;
  mutable xmax : xid;
  mutable prev : tuple option;
}

module Key_table = Hashtbl.Make (struct
  type t = Value.t

  let equal = Value.equal
  let hash = Value.hash
end)

type t = {
  schema : Schema.t;
  tuples_per_page : int;
  mutable next_slot : int;
  heads : tuple Key_table.t;
  mutable gen : int;
}

let create ?(tuples_per_page = 64) schema =
  assert (tuples_per_page > 0);
  { schema; tuples_per_page; next_slot = 0; heads = Key_table.create 64; gen = 0 }

let schema t = t.schema
let rel_name t = Schema.name t.schema
let generation t = t.gen

let fresh_tid t =
  let slot = t.next_slot in
  t.next_slot <- slot + 1;
  { page = slot / t.tuples_per_page; slot = slot mod t.tuples_per_page }

let insert_version t ~key ~row ~xmin =
  Schema.check_row t.schema row;
  let prev = Key_table.find_opt t.heads key in
  let tuple = { tid = fresh_tid t; key; row; xmin; xmax = invalid_xid; prev } in
  Key_table.replace t.heads key tuple;
  tuple

let set_xmax tuple xid = tuple.xmax <- xid

(* Shared by every heap and never installed in one, so [==] identifies it. *)
let absent =
  {
    tid = { page = -1; slot = -1 };
    key = Value.Null;
    row = [||];
    xmin = invalid_xid;
    xmax = invalid_xid;
    prev = None;
  }

let is_absent tuple = tuple == absent

(* [find], not [find_opt]: reads look up a head per row, and the option
   would be their only allocation. *)
let head t key = match Key_table.find t.heads key with v -> v | exception Not_found -> absent

let unlink_head t key =
  match Key_table.find_opt t.heads key with
  | None -> invalid_arg "Heap.unlink_head: no versions for key"
  | Some tuple -> (
      match tuple.prev with
      | None -> Key_table.remove t.heads key
      | Some older -> Key_table.replace t.heads key older)

let versions tuple =
  let rec seq v () =
    match v with
    | None -> Seq.Nil
    | Some tup -> Seq.Cons (tup, seq tup.prev)
  in
  seq (Some tuple)

let iter_heads t f = Key_table.iter (fun _ tuple -> f tuple) t.heads
let fold_heads t ~init ~f = Key_table.fold (fun _ tuple acc -> f acc tuple) t.heads init
let cardinal t = Key_table.length t.heads

let npages t = 1 + ((max 0 (t.next_slot - 1)) / t.tuples_per_page)

let page_of_tid tid = tid.page

let rewrite t =
  t.gen <- t.gen + 1;
  t.next_slot <- 0;
  (* Relocate every version of every chain to a fresh location, as a
     rewriting DDL statement does.  Iteration order is unspecified, which is
     fine: only the fact that locations change matters. *)
  Key_table.iter
    (fun _ head_tuple -> Seq.iter (fun v -> v.tid <- fresh_tid t) (versions head_tuple))
    t.heads

let prune t ~live =
  Key_table.iter
    (fun _ head_tuple ->
      let rec cut v =
        match v.prev with
        | None -> ()
        | Some older -> if live older then cut older else v.prev <- None
      in
      cut head_tuple)
    t.heads
