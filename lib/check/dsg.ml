(* Adya's direct serialization graph (paper §3.1) over recorded histories.
   See dsg.mli for the edge rules. *)

open Ssi_storage
module R = Ssi_engine.Recorded

type history = R.txn list
type kind = Wr | Ww | Rw

let kind_name = function Wr -> "wr" | Ww -> "ww" | Rw -> "rw"

module Row = Hashtbl.Make (struct
  type t = string * Value.t

  let equal (a, x) (b, y) = String.equal a b && Value.equal x y
  let hash (a, x) = Hashtbl.hash a + (31 * Value.hash x)
end)

(* One writer in a row's version order. *)
type writer = { cseq : int; xid : int; node : int; w : R.write }

(* Per-history lookup structures, each built once. *)
type index = {
  rows : writer array Row.t;  (** version order of every row written, by cseq *)
  cseq_of : (int, int) Hashtbl.t;  (** writer xid -> cseq *)
  rel_rows : (string, Value.t list) Hashtbl.t;  (** rows written, per relation *)
  index_entries : (string, (Value.t * Value.t) array) Hashtbl.t;
      (** index -> (index key, primary key) of every old and new entry a
          write touched, sorted by index key *)
}

type graph = {
  histories : R.txn array array;
  ids : int array array;  (** node of each entry, per history *)
  first : int array;  (** node -> offset of its successors in [succ] *)
  succ : int array;
  succ_kind : Bytes.t;
}

let kind_code = function Wr -> 'r' | Ww -> 'w' | Rw -> 'a'
let code_kind = function 'r' -> Wr | 'w' -> Ww | _ -> Rw

(* ---- Nodes ----------------------------------------------------------------- *)

(* Entries of different histories with the same gid are one transaction;
   every other entry is a node of its own.  A gid can be reused once its
   transaction is over, so the n-th entry with a gid in one history joins
   the n-th in another. *)
let number histories =
  let joined = Hashtbl.create 64 and n = ref 0 in
  let fresh () =
    let id = !n in
    incr n;
    id
  in
  let ids =
    Array.map
      (fun entries ->
        let seen = Hashtbl.create 64 in
        Array.map
          (fun (t : R.txn) ->
            match t.gid with
            | None -> fresh ()
            | Some g -> (
                let k = Option.value ~default:0 (Hashtbl.find_opt seen g) in
                Hashtbl.replace seen g (k + 1);
                match Hashtbl.find_opt joined (g, k) with
                | Some id -> id
                | None ->
                    let id = fresh () in
                    Hashtbl.add joined (g, k) id;
                    id))
          entries)
      histories
  in
  (ids, !n)

(* The (history, entry) parts of node [v]: looked up only to explain a
   cycle. *)
let parts g v =
  let acc = ref [] in
  Array.iteri
    (fun h ids ->
      Array.iteri (fun i id -> if id = v then acc := (h, g.histories.(h).(i)) :: !acc) ids)
    g.ids;
  List.rev !acc

let label g v =
  match parts g v with
  | (_, { R.gid = Some gid; _ }) :: _ -> gid
  | (h, t) :: _ ->
      if Array.length g.histories = 1 then string_of_int t.R.xid
      else Printf.sprintf "%d@%d" t.R.xid h
  | [] -> "?"

(* ---- Version orders ------------------------------------------------------------ *)

let build_index entries ids =
  let acc = Row.create 1024 and cseq_of = Hashtbl.create 1024 in
  let rel_rows = Hashtbl.create 8 and entries_of = Hashtbl.create 8 in
  Array.iteri
    (fun i (t : R.txn) ->
      if t.writes <> [] then Hashtbl.replace cseq_of t.xid t.cseq;
      let node = ids.(i) in
      List.iter
        (fun (w : R.write) ->
          let row = (w.rel, w.key) in
          (match Row.find_opt acc row with
          | Some l -> Row.replace acc row ({ cseq = t.cseq; xid = t.xid; node; w } :: l)
          | None ->
              Row.add acc row [ { cseq = t.cseq; xid = t.xid; node; w } ];
              Hashtbl.replace rel_rows w.rel
                (w.key :: Option.value ~default:[] (Hashtbl.find_opt rel_rows w.rel)));
          List.iter
            (fun (index, ikey) ->
              Hashtbl.replace entries_of index
                ((ikey, w.key) :: Option.value ~default:[] (Hashtbl.find_opt entries_of index)))
            (w.old_keys @ w.new_keys))
        t.writes)
    entries;
  let rows = Row.create (Row.length acc) in
  Row.iter
    (fun row ws ->
      let a = Array.of_list ws in
      Array.sort (fun a b -> compare a.cseq b.cseq) a;
      Row.add rows row a)
    acc;
  let index_entries = Hashtbl.create 8 in
  let cmp (k1, p1) (k2, p2) =
    match Value.compare k1 k2 with 0 -> Value.compare p1 p2 | c -> c
  in
  Hashtbl.iter
    (fun index l ->
      Hashtbl.add index_entries index (Array.of_list (List.sort_uniq cmp l)))
    entries_of;
  { rows; cseq_of; rel_rows; index_entries }

(* First position in [ws] whose cseq is at least [c]. *)
let first_at_or_after ws c =
  let lo = ref 0 and hi = ref (Array.length ws) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if ws.(mid).cseq < c then lo := mid + 1 else hi := mid
  done;
  !lo

(* Position of the version [x] created in [ws], or -1 for a version no
   recorded writer created (the state before the history began). *)
let position ix ws x =
  match Hashtbl.find_opt ix.cseq_of x with
  | None -> -1
  | Some c ->
      let i = first_at_or_after ws c in
      if i < Array.length ws && ws.(i).xid = x then i else -1

(* Apply [f] to the rows with an index entry in [[lo, hi]]: once each,
   except a row that had several keys in the range. *)
let iter_rows_in_range ix index lo hi f =
  match Hashtbl.find_opt ix.index_entries index with
  | None -> ()
  | Some a ->
      let n = Array.length a in
      let l = ref 0 and h = ref n in
      while !l < !h do
        let mid = (!l + !h) / 2 in
        if Value.compare (fst a.(mid)) lo < 0 then l := mid + 1 else h := mid
      done;
      let i = ref !l in
      while !i < n && Value.compare (fst a.(!i)) hi <= 0 do
        if !i = !l || not (Value.equal (snd a.(!i)) (snd a.(!i - 1))) then f (snd a.(!i));
        incr i
      done

(* ---- Edges ------------------------------------------------------------------------ *)

let in_range index lo hi keys =
  List.exists
    (fun (i, k) -> String.equal i index && Value.compare lo k <= 0 && Value.compare k hi <= 0)
    keys

(* Call [f] on every edge of the graph of [histories], as
   [f from kind to]. *)
let iter_edges histories ids indexes f =
  let f a kind b = if a <> b then f a kind b in
  Array.iteri
    (fun h (entries, ix) ->
      Row.iter
        (fun _ ws ->
          for i = 1 to Array.length ws - 1 do
            f ws.(i - 1).node Ww ws.(i).node
          done)
        ix.rows;
      (* A predicate read at [horizon] saw, of each row it had not written
         itself, the last version committed before it, and missed every
         later one: wr from the former when it matched, or when it was a
         deletion of a row that matched; rw to the first later writer that
         changed the match. *)
      let predicate reader ws horizon ~matched ~changed =
        let j = first_at_or_after ws horizon in
        if j > 0 && matched ws.(j - 1).w then f ws.(j - 1).node Wr reader;
        let k = ref j in
        while !k < Array.length ws && not (changed ws.(!k).w) do
          incr k
        done;
        if !k < Array.length ws then f reader Rw ws.(!k).node
      in
      Array.iteri
        (fun i (t : R.txn) ->
          let reader = ids.(h).(i) in
          List.iter
            (function
              | R.Point { rel; key; version; horizon } -> (
                  match Row.find_opt ix.rows (rel, key) with
                  | None -> ()
                  | Some ws -> (
                      match version with
                      | None ->
                          predicate reader ws horizon
                            ~matched:(fun w -> w.new_keys = [])
                            ~changed:(fun _ -> true)
                      | Some x when x = t.xid -> () (* its own write *)
                      | Some x ->
                          let i = position ix ws x in
                          if i >= 0 then f ws.(i).node Wr reader;
                          if i + 1 < Array.length ws then f reader Rw ws.(i + 1).node))
              | R.Scan { rel; range = None; horizon; own } ->
                  List.iter
                    (fun key ->
                      if not (List.exists (Value.equal key) own) then
                        predicate reader (Row.find ix.rows (rel, key)) horizon
                          ~matched:(fun _ -> true)
                          ~changed:(fun _ -> true))
                    (Option.value ~default:[] (Hashtbl.find_opt ix.rel_rows rel))
              | R.Scan { rel; range = Some (index, lo, hi); horizon; own } ->
                  iter_rows_in_range ix index lo hi (fun key ->
                      if not (List.exists (Value.equal key) own) then
                        predicate reader (Row.find ix.rows (rel, key)) horizon
                          ~matched:(fun w ->
                            in_range index lo hi
                              (if w.new_keys = [] then w.old_keys else w.new_keys))
                          ~changed:(fun w ->
                            in_range index lo hi w.old_keys || in_range index lo hi w.new_keys)))
            t.reads)
        entries)
    (Array.map2 (fun entries ix -> (entries, ix)) histories indexes)

(* The graph as compressed adjacency arrays — node v's successors are
   succ.(first.(v) .. first.(v + 1) - 1) — filled by a second pass over
   the edges, so no edge list is ever held. *)
let build histories =
  let histories = Array.of_list (List.map Array.of_list histories) in
  let ids, nodes = number histories in
  let indexes = Array.map2 build_index histories ids in
  let first = Array.make (nodes + 1) 0 in
  iter_edges histories ids indexes (fun a _ _ -> first.(a + 1) <- first.(a + 1) + 1);
  for v = 1 to nodes do
    first.(v) <- first.(v) + first.(v - 1)
  done;
  let fill = Array.sub first 0 nodes and succ = Array.make first.(nodes) 0 in
  let succ_kind = Bytes.create first.(nodes) in
  iter_edges histories ids indexes (fun a kind b ->
      succ.(fill.(a)) <- b;
      Bytes.set succ_kind fill.(a) (kind_code kind);
      fill.(a) <- fill.(a) + 1);
  { histories; ids; first; succ; succ_kind }

(* ---- Cycles ------------------------------------------------------------------------- *)

(* Tarjan's strongly connected components, iteratively, with an explicit
   stack of (node, next successor offset): the component id of every
   node. *)
let components g =
  let n = Array.length g.first - 1 in
  let index = Array.make n (-1) and low = Array.make n 0 and comp = Array.make n (-1) in
  let on_stack = Array.make n false and stack = ref [] and next = ref 0 and ncomp = ref 0 in
  let work = Array.make n 0 and pos = Array.make n 0 and depth = ref 0 in
  let visit v =
    index.(v) <- !next;
    low.(v) <- !next;
    incr next;
    stack := v :: !stack;
    on_stack.(v) <- true;
    work.(!depth) <- v;
    pos.(!depth) <- g.first.(v);
    incr depth
  in
  for root = 0 to n - 1 do
    if index.(root) < 0 then begin
      visit root;
      while !depth > 0 do
        let d = !depth - 1 in
        let v = work.(d) in
        if pos.(d) < g.first.(v + 1) then begin
          let w = g.succ.(pos.(d)) in
          pos.(d) <- pos.(d) + 1;
          if index.(w) < 0 then visit w
          else if on_stack.(w) then low.(v) <- min low.(v) index.(w)
        end
        else begin
          decr depth;
          if d > 0 then low.(work.(d - 1)) <- min low.(work.(d - 1)) low.(v);
          if low.(v) = index.(v) then begin
            let rec pop () =
              match !stack with
              | w :: tl ->
                  stack := tl;
                  on_stack.(w) <- false;
                  comp.(w) <- !ncomp;
                  if w <> v then pop ()
              | [] -> ()
            in
            pop ();
            incr ncomp
          end
        end
      done
    end
  done;
  comp

let iter_succ g v f =
  for i = g.first.(v) to g.first.(v + 1) - 1 do
    f g.succ.(i) (code_kind (Bytes.get g.succ_kind i))
  done

(* One cycle through [s], inside [s]'s component: a breadth-first search
   back to [s]. *)
let cycle_through g comp s =
  let parent = Hashtbl.create 16 and q = Queue.create () in
  Queue.add s q;
  let rec search () =
    let u = Queue.pop q in
    let back = ref false in
    iter_succ g u (fun w _ ->
        if w = s then back := true
        else if comp.(w) = comp.(s) && not (Hashtbl.mem parent w) then begin
          Hashtbl.add parent w u;
          Queue.add w q
        end);
    if !back then u else search ()
  in
  let rec path u acc = if u = s then s :: acc else path (Hashtbl.find parent u) (u :: acc) in
  path (search ()) []

type cycle = { nodes : string list; text : string }

let explain g cycle =
  let buf = Buffer.create 256 in
  let labels = List.map (fun v -> (v, label g v)) cycle in
  let label v = List.assoc v labels in
  Printf.bprintf buf "cycle: %s\n" (String.concat " -> " (List.map label cycle));
  let arr = Array.of_list cycle in
  Array.iteri
    (fun i a ->
      let b = arr.((i + 1) mod Array.length arr) in
      let kinds = ref [] in
      iter_succ g a (fun w k -> if w = b then kinds := k :: !kinds);
      Printf.bprintf buf "  %s --%s--> %s\n" (label a)
        (String.concat "," (List.map kind_name (List.sort_uniq compare !kinds)))
        (label b))
    arr;
  List.iter
    (fun v ->
      List.iter
        (fun (_, (t : R.txn)) ->
          Printf.bprintf buf "  txn %s (xid %d, cseq %d) reads=[%s] writes=[%s]\n" (label v) t.xid
            t.cseq
            (String.concat "; " (List.map (Format.asprintf "%a" R.pp_read) t.reads))
            (String.concat "; " (List.map (Format.asprintf "%a" R.pp_write) t.writes)))
        (parts g v))
    cycle;
  Buffer.contents buf

let check histories =
  let g = build histories in
  let comp = components g in
  let size = Array.make (Array.length comp) 0 in
  Array.iter (fun c -> size.(c) <- size.(c) + 1) comp;
  let rec first v =
    if v >= Array.length comp then Ok ()
    else if size.(comp.(v)) > 1 then begin
      let cycle = cycle_through g comp v in
      Error { nodes = List.map (label g) cycle; text = explain g cycle }
    end
    else first (v + 1)
  in
  first 0

let cycle_nodes c = c.nodes
let pp_cycle c = c.text

(* ---- Snapshot exactness --------------------------------------------------------------- *)

let stale_read histories =
  List.find_map
    (fun entries ->
      let entries = Array.of_list entries in
      let ix = build_index entries (Array.make (Array.length entries) 0) in
      Array.find_map
        (fun (t : R.txn) ->
          let wrote rel key =
            List.exists (fun (w : R.write) -> w.rel = rel && Value.equal w.key key) t.writes
          in
          List.find_map
            (function
              | R.Point { rel; key; version; horizon }
                when version <> Some t.xid && not (wrote rel key) ->
                  let expected =
                    match Row.find_opt ix.rows (rel, key) with
                    | None -> None
                    | Some ws ->
                        let j = first_at_or_after ws horizon in
                        if j = 0 then None else Some ws.(j - 1)
                  in
                  let ok =
                    match (expected, version) with
                    | None, None -> true
                    | None, Some x -> not (Hashtbl.mem ix.cseq_of x)
                    | Some w, None -> w.w.new_keys = []
                    | Some w, Some x -> w.xid = x && w.w.new_keys <> []
                  in
                  if ok then None
                  else
                    Some
                      (Format.asprintf "txn %d read %a, but the last write before its snapshot was %s"
                         t.xid R.pp_read
                         (R.Point { rel; key; version; horizon })
                         (match expected with
                         | None -> "none"
                         | Some w -> Format.asprintf "%a by %d" R.pp_write w.w w.xid))
              | R.Point _ | R.Scan _ -> None)
            t.reads)
        entries)
    histories
