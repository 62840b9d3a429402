(* Exclusive wall-time attribution over a set of spans.

   Every instant of the window [lo, hi] is charged to exactly one owner:
   the open span that started most recently (ties go to the span created
   later), or to the residual when no span is open.  In a single-threaded
   program whose spans nest like a call stack, the most recently started
   open span is the innermost one, so a span's charge is its duration
   minus the union of its children's intervals, clipped to the span.
   Overlapping children (one open across a coroutine switch) and children
   that outlive their parent are each charged once, so no charge is ever
   negative and the charges plus the residual always sum to hi - lo. *)

type span = { name : string; start : float; stop : float }

module Active = Set.Make (struct
  type t = float * int

  let compare = compare
end)

let attribute ~lo ~hi (spans : span array) =
  let events = ref [] in
  Array.iteri
    (fun i sp ->
      let s = Float.max lo sp.start and e = Float.min hi sp.stop in
      if s < e then events := (s, true, i) :: (e, false, i) :: !events)
    spans;
  let events = List.sort (fun (a, _, _) (b, _, _) -> Float.compare a b) !events in
  let charge = Hashtbl.create 16 in
  let residual = ref 0. in
  let add name dt =
    Hashtbl.replace charge name (dt +. Option.value ~default:0. (Hashtbl.find_opt charge name))
  in
  let credit active dt =
    if dt > 0. then
      match Active.max_elt_opt active with
      | Some (_, i) -> add spans.(i).name dt
      | None -> residual := !residual +. dt
  in
  let active, last =
    List.fold_left
      (fun (active, last) (t, opening, i) ->
        credit active (t -. last);
        let key = (Float.max lo spans.(i).start, i) in
        ((if opening then Active.add key active else Active.remove key active), t))
      (Active.empty, lo) events
  in
  credit active (hi -. last);
  let by_name = Hashtbl.fold (fun k v acc -> (k, v) :: acc) charge [] in
  (List.sort compare by_name, !residual)
