open Ssi_storage

type t = {
  (* Tracked reads in scan order: read [i] is key [keys.(i)], in page
     group [group.(i)]. *)
  mutable keys : Value.t array;
  mutable group : int array;
  mutable nreads : int;
  (* Page groups, numbered in first-read order: group [g] is heap page
     [pages.(g)], holds [counts.(g)] reads and sits in [slots] at
     [slot_of.(g)]. *)
  mutable pages : int array;
  mutable counts : int array;
  mutable slot_of : int array;
  mutable ngroups : int;
  (* Open addressing from page to group + 1 (0: free slot).  The length is
     a power of two and at least twice [ngroups]. *)
  mutable slots : int array;
  (* The reads regrouped page by page, for {!flush_reads}. *)
  mutable sorted : Value.t array;
  mutable rows : Value.t array array;
  mutable nrows : int;
}

let create () =
  {
    keys = [||];
    group = [||];
    nreads = 0;
    pages = [||];
    counts = [||];
    slot_of = [||];
    ngroups = 0;
    slots = Array.make 16 0;
    sorted = [||];
    rows = [||];
    nrows = 0;
  }

(* [a] at twice its length (at least 16), its contents kept. *)
let grow a fill =
  let a' = Array.make (max 16 (2 * Array.length a)) fill in
  Array.blit a 0 a' 0 (Array.length a);
  a'

let rec free_slot slots i =
  if slots.(i) = 0 then i else free_slot slots ((i + 1) land (Array.length slots - 1))

let place b g =
  let slots = b.slots in
  let i = free_slot slots (Value.mix b.pages.(g) land (Array.length slots - 1)) in
  slots.(i) <- g + 1;
  b.slot_of.(g) <- i

let new_group b page =
  let g = b.ngroups in
  if g = Array.length b.pages then begin
    b.pages <- grow b.pages 0;
    b.counts <- grow b.counts 0;
    b.slot_of <- grow b.slot_of 0
  end;
  b.pages.(g) <- page;
  b.counts.(g) <- 0;
  b.ngroups <- g + 1;
  if 2 * b.ngroups > Array.length b.slots then begin
    b.slots <- Array.make (2 * Array.length b.slots) 0;
    for g' = 0 to g do
      place b g'
    done
  end
  else place b g;
  g

let rec find_group b page i =
  match b.slots.(i) with
  | 0 -> new_group b page
  | s when b.pages.(s - 1) = page -> s - 1
  | _ -> find_group b page ((i + 1) land (Array.length b.slots - 1))

let add_read b ~key ~page =
  let n = b.nreads in
  (* Consecutive reads mostly share a page: try the last one's group first. *)
  let g =
    if n > 0 && b.pages.(b.group.(n - 1)) = page then b.group.(n - 1)
    else find_group b page (Value.mix page land (Array.length b.slots - 1))
  in
  if n = Array.length b.keys then begin
    b.keys <- grow b.keys key;
    b.group <- grow b.group 0
  end;
  b.keys.(n) <- key;
  b.group.(n) <- g;
  b.counts.(g) <- b.counts.(g) + 1;
  b.nreads <- n + 1

let flush_reads b lock =
  let n = b.nreads and ng = b.ngroups in
  if n > 0 then begin
    if Array.length b.sorted < n then b.sorted <- Array.make (Array.length b.keys) b.keys.(0);
    (* A counting sort on group numbers, which are first-read ranks:
       [counts.(g)] becomes group [g]'s next free position, and after the
       placement loop its end. *)
    let start = ref 0 in
    for g = 0 to ng - 1 do
      let c = b.counts.(g) in
      b.counts.(g) <- !start;
      start := !start + c
    done;
    for i = 0 to n - 1 do
      let g = b.group.(i) in
      b.sorted.(b.counts.(g)) <- b.keys.(i);
      b.counts.(g) <- b.counts.(g) + 1
    done
  end;
  (* Forget the reads before handing them out, so the buffer is empty
     even if [lock] raises; the groups' arrays stay valid until the next
     read. *)
  for g = 0 to ng - 1 do
    b.slots.(b.slot_of.(g)) <- 0
  done;
  b.ngroups <- 0;
  b.nreads <- 0;
  for g = 0 to ng - 1 do
    let pos = if g = 0 then 0 else b.counts.(g - 1) in
    lock ~page:b.pages.(g) b.sorted ~pos ~len:(b.counts.(g) - pos)
  done

let add_row b row =
  let n = b.nrows in
  if n = Array.length b.rows then b.rows <- grow b.rows row;
  b.rows.(n) <- row;
  b.nrows <- n + 1

(* Emptied slots are overwritten with [[||]], so the buffer keeps no row
   alive that its caller has dropped. *)
let rec cons_rows b i acc =
  if i < 0 then acc
  else begin
    let row = b.rows.(i) in
    b.rows.(i) <- [||];
    cons_rows b (i - 1) (row :: acc)
  end

let take_rows b =
  let rows = cons_rows b (b.nrows - 1) [] in
  b.nrows <- 0;
  rows

let drop_rows b =
  Array.fill b.rows 0 b.nrows [||];
  b.nrows <- 0
