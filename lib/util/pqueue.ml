type 'a entry = { time : float; seq : int; value : 'a }

type 'a t = { mutable heap : 'a entry array; mutable n : int }

let create () = { heap = [||]; n = 0 }

let is_empty t = t.n = 0
let length t = t.n

let less a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

let grow t =
  let cap = Array.length t.heap in
  if t.n = cap then begin
    let newcap = if cap = 0 then 16 else 2 * cap in
    let bigger = Array.make newcap t.heap.(0) in
    Array.blit t.heap 0 bigger 0 t.n;
    t.heap <- bigger
  end

let push t ~time ~seq value =
  let e = { time; seq; value } in
  if Array.length t.heap = 0 then t.heap <- Array.make 16 e;
  grow t;
  t.heap.(t.n) <- e;
  t.n <- t.n + 1;
  (* Sift up. *)
  let i = ref (t.n - 1) in
  while
    !i > 0
    &&
    let parent = (!i - 1) / 2 in
    less t.heap.(!i) t.heap.(parent)
  do
    let parent = (!i - 1) / 2 in
    let tmp = t.heap.(!i) in
    t.heap.(!i) <- t.heap.(parent);
    t.heap.(parent) <- tmp;
    i := parent
  done

let pop t =
  if t.n = 0 then None
  else begin
    let top = t.heap.(0) in
    t.n <- t.n - 1;
    if t.n > 0 then begin
      t.heap.(0) <- t.heap.(t.n);
      (* Sift down. *)
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let smallest = ref !i in
        if l < t.n && less t.heap.(l) t.heap.(!smallest) then smallest := l;
        if r < t.n && less t.heap.(r) t.heap.(!smallest) then smallest := r;
        if !smallest = !i then continue := false
        else begin
          let tmp = t.heap.(!i) in
          t.heap.(!i) <- t.heap.(!smallest);
          t.heap.(!smallest) <- tmp;
          i := !smallest
        end
      done
    end;
    Some (top.time, top.seq, top.value)
  end

let clear t = t.n <- 0
