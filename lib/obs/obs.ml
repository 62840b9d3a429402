open Ssi_util

type counter = { c_name : string; mutable c : int }

(* [g_set] distinguishes "created but never written" from a real 0.0:
   dump/render skip unset gauges and [get_gauge] reports them as [nan]
   instead of silently yielding 0. *)
type gauge = { g_name : string; mutable g : float; mutable g_set : bool }

(* Histograms are bounded log-bucketed sketches (Bhist): O(buckets)
   memory regardless of how long the run is, mergeable across
   registries, with quantiles within [hist_accuracy] relative error. *)
type histogram = { h_name : string; h_hist : Bhist.t }

let hist_accuracy = 0.01

type metric = Counter of counter | Gauge of gauge | Hist of histogram

type field = I of int | F of float | S of string | B of bool

type event = {
  seq : int;
  ts : float;
  name : string;
  fields : (string * field) list;
}

type span_ctx = { trace_id : int; span_id : int }

(* A span is an int handle: its slot in the registry's span store, the
   registry's index in [registries] and the slot's generation, which
   moves on when the span is dropped, so a handle kept past that is
   stale. *)
type span = int

let slot_bits = 23 and reg_bits = 21
let slot_mask = (1 lsl slot_bits) - 1 and reg_mask = (1 lsl reg_bits) - 1
let gen_mask = (1 lsl (62 - slot_bits - reg_bits)) - 1

(* One slot per open or retained finished span, struct-of-arrays, so
   opening and closing a span write unboxed fields and allocate nothing.
   [grow] swaps in a larger copy. *)
type store = {
  start : float array;
  stop : float array;  (* nan while open *)
  trace : int array;
  id : int array;
  parent : int array;  (* -1 for none *)
  name_id : int array;  (* index into [names] *)
  gen : int array;
  is_open : bool array;
  attrs : (string * field) list array;  (* newest first *)
  free : int array;  (* free slots: [free.(0 .. n_free - 1)] *)
}

type t = {
  metrics : (string, metric) Hashtbl.t;
  mutable clock : unit -> float;
  mutable last_ts : float;  (* last successful clock reading *)
  log : event array;  (* slot [seq mod capacity]; see [trace] *)
  mutable next_seq : int;
  reg : int;  (* index in [registries] *)
  mutable st : store;
  mutable n_free : int;
  ring : int array;  (* finished spans' slots, in finish order *)
  mutable span_seq : int;  (* finished-span insertion index *)
  mutable next_trace : int;
  mutable next_span : int;
  owner_spans : (int, span) Hashtbl.t;  (* txn xid -> owning span *)
  trace_dropped : counter;
  span_dropped : counter;
}

(* Every registry, weakly, so a bare handle finds its store. *)
let registries = ref (Weak.create 8) and n_registries = ref 0

let create ?(trace_capacity = 4096) ?(span_capacity = 4096) () =
  if trace_capacity <= 0 then invalid_arg "Obs.create: trace_capacity must be positive";
  if span_capacity <= 0 then invalid_arg "Obs.create: span_capacity must be positive";
  let reg = !n_registries and w = !registries in
  if reg > reg_mask then invalid_arg "Obs.create: too many registries";
  incr n_registries;
  if reg = Weak.length w then begin
    registries := Weak.create (2 * reg);
    Weak.blit w 0 !registries 0 reg
  end;
  let metrics = Hashtbl.create 64 in
  (* The drop counters exist from birth so truncation is visible in every
     render, including as an explicit 0 when nothing was dropped. *)
  let eager name =
    let c = { c_name = name; c = 0 } in
    Hashtbl.replace metrics name (Counter c);
    c
  in
  let t =
    {
      metrics;
      clock = (fun () -> 0.);
      last_ts = 0.;
      log = Array.make trace_capacity { seq = -1; ts = 0.; name = ""; fields = [] };
      next_seq = 0;
      reg;
      st = { start = [||]; stop = [||]; trace = [||]; id = [||]; parent = [||]; name_id = [||];
             gen = [||]; is_open = [||]; attrs = [||]; free = [||] };
      n_free = 0;
      ring = Array.make span_capacity 0;
      span_seq = 0;
      next_trace = 0;
      next_span = 0;
      owner_spans = Hashtbl.create 64;
      trace_dropped = eager "obs.trace.dropped";
      span_dropped = eager "obs.spans.dropped";
    }
  in
  Weak.set !registries reg (Some t);
  t

let set_clock t f = t.clock <- f

(* A simulation-backed clock raises once the simulation has ended; events
   and spans recorded after that (post-run report transactions, exports)
   freeze at the last virtual time instead of crashing the consumer. *)
let now t =
  match t.clock () with
  | ts ->
      t.last_ts <- ts;
      ts
  | exception _ -> t.last_ts

(* ------------------------------------------------------------------ *)
(* Metrics                                                            *)
(* ------------------------------------------------------------------ *)

let kind_name = function Counter _ -> "counter" | Gauge _ -> "gauge" | Hist _ -> "histogram"

let wrong_kind name want got =
  invalid_arg
    (Printf.sprintf "Obs: metric %S already registered as a %s, not a %s" name
       (kind_name got) want)

let counter t name =
  match Hashtbl.find_opt t.metrics name with
  | Some (Counter c) -> c
  | Some m -> wrong_kind name "counter" m
  | None ->
      let c = { c_name = name; c = 0 } in
      Hashtbl.replace t.metrics name (Counter c);
      c

let incr ?(by = 1) c = c.c <- c.c + by
let counter_value c = c.c

let gauge t name =
  match Hashtbl.find_opt t.metrics name with
  | Some (Gauge g) -> g
  | Some m -> wrong_kind name "gauge" m
  | None ->
      let g = { g_name = name; g = 0.; g_set = false } in
      Hashtbl.replace t.metrics name (Gauge g);
      g

let set_gauge g x =
  g.g <- x;
  g.g_set <- true

let gauge_value g = g.g

let histogram ?(accuracy = hist_accuracy) t name =
  match Hashtbl.find_opt t.metrics name with
  | Some (Hist h) -> h
  | Some m -> wrong_kind name "histogram" m
  | None ->
      let h = { h_name = name; h_hist = Bhist.create ~accuracy () } in
      Hashtbl.replace t.metrics name (Hist h);
      h

let observe h x = Bhist.add h.h_hist x
let histogram_hist h = h.h_hist

let get_counter t name =
  match Hashtbl.find_opt t.metrics name with Some (Counter c) -> c.c | _ -> 0

let get_gauge t name =
  match Hashtbl.find_opt t.metrics name with
  | Some (Gauge g) when g.g_set -> g.g
  | _ -> nan

(* ------------------------------------------------------------------ *)
(* Snapshots                                                          *)
(* ------------------------------------------------------------------ *)

let find_histogram t name =
  match Hashtbl.find_opt t.metrics name with Some (Hist h) -> Some h.h_hist | _ -> None

(* A snap freezes each counter's value and a bucket-wise copy of each
   histogram.  Bhist copies are O(buckets), so snapping stays cheap no
   matter how many observations the window absorbed; diffing the frozen
   copy against the live sketch yields the window's exact increment. *)
type snap = {
  s_counters : (string, int) Hashtbl.t;
  s_hists : (string, Bhist.t) Hashtbl.t;
}

let snap t =
  let s_counters = Hashtbl.create (Hashtbl.length t.metrics) in
  let s_hists = Hashtbl.create 16 in
  Hashtbl.iter
    (fun name m ->
      match m with
      | Counter c -> Hashtbl.replace s_counters name c.c
      | Hist h -> Hashtbl.replace s_hists name (Bhist.copy h.h_hist)
      | Gauge _ -> ())
    t.metrics;
  { s_counters; s_hists }

let snapped s name = Option.value ~default:0 (Hashtbl.find_opt s.s_counters name)

let delta_counter t s name = get_counter t name - snapped s name

let delta_hist t s name =
  match find_histogram t name with
  | None -> Bhist.create ~accuracy:hist_accuracy ()
  | Some cur -> (
      match Hashtbl.find_opt s.s_hists name with
      | Some base -> Bhist.diff ~cur ~base
      | None -> Bhist.copy cur (* born after the snap: whole life is the delta *))

(* ------------------------------------------------------------------ *)
(* Rendered views                                                     *)
(* ------------------------------------------------------------------ *)

type hist_summary = {
  h_count : int;
  h_mean : float;
  h_p50 : float;
  h_p95 : float;
  h_p99 : float;
  h_max : float;
}

type value = Counter_v of int | Gauge_v of float | Histogram_v of hist_summary

let summarize st =
  {
    h_count = Bhist.count st;
    h_mean = Bhist.mean st;
    h_p50 = Bhist.percentile st 0.5;
    h_p95 = Bhist.percentile st 0.95;
    h_p99 = Bhist.percentile st 0.99;
    h_max = Bhist.max_value st;
  }

(* Raw, uncopied view for the scrape layer: live sketches, exact counter
   and gauge values, sorted for deterministic iteration. *)
let raw_metrics t =
  Hashtbl.fold
    (fun name m acc ->
      match m with
      | Counter c -> (name, `Counter c.c) :: acc
      | Gauge g -> if g.g_set then (name, `Gauge g.g) :: acc else acc
      | Hist h -> (name, `Hist h.h_hist) :: acc)
    t.metrics []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let dump t =
  Hashtbl.fold
    (fun name m acc ->
      match m with
      | Counter c -> (name, Counter_v c.c) :: acc
      | Gauge g -> if g.g_set then (name, Gauge_v g.g) :: acc else acc
      | Hist h -> (name, Histogram_v (summarize h.h_hist)) :: acc)
    t.metrics []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let render t =
  let fmt_f x = if Float.is_nan x then "-" else Printf.sprintf "%.4g" x in
  let rows =
    List.map
      (fun (name, v) ->
        match v with
        | Counter_v n -> [ name; "counter"; string_of_int n ]
        | Gauge_v x -> [ name; "gauge"; fmt_f x ]
        | Histogram_v h ->
            [
              name;
              "histogram";
              Printf.sprintf "n=%d mean=%s p50=%s p95=%s p99=%s max=%s" h.h_count
                (fmt_f h.h_mean) (fmt_f h.h_p50) (fmt_f h.h_p95) (fmt_f h.h_p99)
                (fmt_f h.h_max);
            ])
      (dump t)
  in
  Tablefmt.render ~header:[ "metric"; "kind"; "value" ] rows

(* ------------------------------------------------------------------ *)
(* Span handles                                                       *)
(* ------------------------------------------------------------------ *)

let slot_of sp = sp land slot_mask
let reg_of sp = (sp lsr slot_bits) land reg_mask
let handle t s = (t.st.gen.(s) lsl (slot_bits + reg_bits)) lor (t.reg lsl slot_bits) lor s
let stale () = invalid_arg "Obs.Span: stale span handle"
let last = ref None (* the registry [find] returned last *)

(* The registry holding a bare handle. *)
let find sp =
  match !last with
  | Some t when t.reg = reg_of sp -> t
  | _ -> (
      match Weak.get !registries (reg_of sp) with
      | Some t as r ->
          last := r;
          t
      | None -> stale ())

let home t sp = if reg_of sp = t.reg then t else find sp

(* [sp]'s slot in its registry [t], while its span is stored there. *)
let slot t sp = if handle t (slot_of sp) = sp then slot_of sp else stale ()

(* ------------------------------------------------------------------ *)
(* Trace events                                                       *)
(* ------------------------------------------------------------------ *)

(* Every event is appended to the log exactly once, so [seq] is also the
   append index: the log always holds the newest [capacity] events, with
   dense seqs, and each overwrite is one dropped event. *)
let trace t ?span ?(fields = []) name =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let fields =
    match span with
    | None -> fields
    | Some sp ->
        let r = home t sp in
        let s = slot r sp in
        ("span", I r.st.id.(s)) :: ("trace", I r.st.trace.(s)) :: fields
  in
  let cap = Array.length t.log in
  if seq >= cap then incr t.trace_dropped;
  t.log.(seq mod cap) <- { seq; ts = now t; name; fields }

let events t =
  let cap = Array.length t.log in
  let first = Stdlib.max 0 (t.next_seq - cap) in
  List.init (t.next_seq - first) (fun i -> t.log.((first + i) mod cap))

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_float x = if Float.is_finite x then Printf.sprintf "%.9g" x else "null"

(* Append [,"key":value] for each field. *)
let add_fields buf =
  List.iter (fun (k, v) ->
      Buffer.add_string buf
        (Printf.sprintf ",\"%s\":%s" (json_escape k)
           (match v with
           | I n -> string_of_int n
           | F x -> json_float x
           | S s -> "\"" ^ json_escape s ^ "\""
           | B b -> string_of_bool b)))

let event_to_json e =
  let buf = Buffer.create 128 in
  Buffer.add_string buf
    (Printf.sprintf "{\"seq\":%d,\"ts\":%s,\"event\":\"%s\"" e.seq (json_float e.ts)
       (json_escape e.name));
  add_fields buf e.fields;
  Buffer.add_char buf '}';
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Spans                                                              *)
(* ------------------------------------------------------------------ *)

(* Span names, interned process-wide. *)
let name_ids = Hashtbl.create 64 and names = ref [||]

let intern name =
  match Hashtbl.find name_ids name with
  | i -> i
  | exception Not_found ->
      Hashtbl.add name_ids name (Array.length !names);
      names := Array.append !names [| name |];
      Array.length !names - 1

(* Double the store up to [span_capacity], then grow it by a quarter for
   the spans still open beyond that. *)
let grow t =
  let st = t.st and n = Array.length t.st.gen and cap = Array.length t.ring in
  let m = if n < cap then Stdlib.min cap (Stdlib.max 16 (2 * n)) else n + (n / 4) + 1 in
  if m > slot_mask + 1 then failwith "Obs: span store full";
  let ext a fill = Array.append a (Array.make (m - n) fill) in
  t.st <-
    { start = ext st.start nan; stop = ext st.stop nan; trace = ext st.trace 0; id = ext st.id 0;
      parent = ext st.parent 0; name_id = ext st.name_id 0; gen = ext st.gen 0;
      is_open = ext st.is_open false; attrs = ext st.attrs []; free = ext st.free 0 };
  for s = m - 1 downto n do
    t.st.free.(t.n_free) <- s;
    t.n_free <- t.n_free + 1
  done

let open_span t ~trace ~parent name =
  if t.n_free = 0 then grow t;
  t.n_free <- t.n_free - 1;
  let st = t.st and id = t.next_span in
  let s = st.free.(t.n_free) in
  t.next_span <- id + 1;
  st.trace.(s) <- trace;
  st.id.(s) <- id;
  st.parent.(s) <- parent;
  st.name_id.(s) <- intern name;
  st.start.(s) <- now t;
  st.stop.(s) <- nan;
  st.is_open.(s) <- true;
  handle t s

(* Close [sp] into the finished ring.  A full ring drops its oldest span:
   that slot's generation moves on and the slot is freed.  The closed
   slot, or -1 when [sp] is not an open span of [t]. *)
let close t sp =
  let st = t.st and s = slot_of sp in
  if handle t s <> sp || not st.is_open.(s) then -1
  else begin
    st.is_open.(s) <- false;
    st.stop.(s) <- now t;
    let cap = Array.length t.ring in
    let r = t.span_seq mod cap in
    if t.span_seq >= cap then begin
      let d = t.ring.(r) in
      st.gen.(d) <- (st.gen.(d) + 1) land gen_mask;
      st.attrs.(d) <- [];
      st.free.(t.n_free) <- d;
      t.n_free <- t.n_free + 1;
      incr t.span_dropped
    end;
    t.ring.(r) <- s;
    t.span_seq <- t.span_seq + 1;
    s
  end

module Span = struct
  let child t c name = open_span t ~trace:c.trace_id ~parent:c.span_id name

  let start t ?parent ?ctx ?(attrs = []) name =
    let sp =
      match (parent, ctx) with
      | Some p, _ ->
          let r = home t p in
          let s = slot r p in
          open_span t ~trace:r.st.trace.(s) ~parent:r.st.id.(s) name
      | None, Some c -> child t c name
      | None, None ->
          let tr = t.next_trace in
          t.next_trace <- tr + 1;
          open_span t ~trace:tr ~parent:(-1) name
    in
    (* A new span's slot holds no attributes; one needs no reversing. *)
    t.st.attrs.(slot_of sp) <- (match attrs with [ _ ] -> attrs | _ -> List.rev attrs);
    sp

  let finish t sp = ignore (close (home t sp) sp)

  let finish_observe t sp h =
    let t = home t sp in
    let s = close t sp in
    if s >= 0 then Bhist.add_interval h.h_hist t.st.start t.st.stop s

  let get f sp =
    let t = find sp in
    f t.st (slot t sp)

  let rec has_key k = function [] -> false | (k', _) :: l -> String.equal k k' || has_key k l

  let rec drop_key k = function
    | [] -> []
    | ((k', _) as a) :: l -> if String.equal k k' then l else a :: drop_key k l

  (* Newest first, each key once.  A new key copies nothing; re-adding
     the newest attribute's physically same value changes nothing. *)
  let add sp k v =
    let t = find sp in
    let s = slot t sp in
    match t.st.attrs.(s) with
    | (k', v') :: _ when v' == v && String.equal k k' -> ()
    | l -> t.st.attrs.(s) <- (k, v) :: (if has_key k l then drop_key k l else l)

  let trace_id = get (fun st s -> st.trace.(s))
  let id = get (fun st s -> st.id.(s))
  let ctx = get (fun st s -> { trace_id = st.trace.(s); span_id = st.id.(s) })
  let name = get (fun st s -> !names.(st.name_id.(s)))
  let parent = get (fun st s -> if st.parent.(s) < 0 then None else Some st.parent.(s))
  let start_ts = get (fun st s -> st.start.(s))
  let end_ts = get (fun st s -> st.stop.(s))
  let is_open = get (fun st s -> st.is_open.(s))
  let attrs = get (fun st s -> List.rev st.attrs.(s))
end

let set_owner_span t xid sp = Hashtbl.replace t.owner_spans xid sp
let clear_owner_span t xid = Hashtbl.remove t.owner_spans xid
let owner_span t xid = Hashtbl.find_opt t.owner_spans xid

module Spans = struct
  let by_id t a b = Int.compare t.st.id.(slot_of a) t.st.id.(slot_of b)

  let finished t =
    List.init (Stdlib.min t.span_seq (Array.length t.ring)) (fun i -> handle t t.ring.(i))
    |> List.sort (by_id t)

  let open_spans t =
    let acc = ref [] in
    Array.iteri (fun s o -> if o then acc := handle t s :: !acc) t.st.is_open;
    List.sort (by_id t) !acc

  let all t = List.merge (by_id t) (finished t) (open_spans t)
  let dropped t = counter_value t.span_dropped

  (* Chrome trace-event format (loadable in Perfetto / chrome://tracing):
     one complete ("X") event per span on a per-trace track (tid =
     trace_id), one instant ("i") per retained event emitted under it
     ([trace] puts its span field first).  Timestamps are
     microseconds of virtual time.  [args] carries the span identity so
     external validators can check that every parent_id resolves. *)
  let to_chrome_json t =
    let by_span = Hashtbl.create 256 in
    List.iter
      (fun ev ->
        match ev.fields with ("span", I id) :: _ -> Hashtbl.add by_span id ev | _ -> ())
      (List.rev (events t));
    let buf = Buffer.create 4096 and now = now t and st = t.st and first = ref true in
    Buffer.add_string buf "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    let item json =
      if !first then first := false else Buffer.add_char buf ',';
      Buffer.add_string buf ("\n" ^ json)
    in
    let emit_span sp =
      let s = slot_of sp in
      let te = if st.is_open.(s) then now else st.stop.(s) in
      item
        (Printf.sprintf
           "{\"name\":\"%s\",\"cat\":\"span\",\"ph\":\"X\",\"ts\":%s,\"dur\":%s,\"pid\":1,\"tid\":%d,\"args\":{\"trace_id\":%d,\"span_id\":%d%s%s"
           (json_escape !names.(st.name_id.(s)))
           (json_float (st.start.(s) *. 1e6))
           (json_float (Stdlib.max 0. (te -. st.start.(s)) *. 1e6))
           st.trace.(s) st.trace.(s) st.id.(s)
           (if st.parent.(s) >= 0 then Printf.sprintf ",\"parent_id\":%d" st.parent.(s) else "")
           (if st.is_open.(s) then ",\"incomplete\":true" else ""));
      add_fields buf (List.rev st.attrs.(s));
      Buffer.add_string buf "}}";
      List.iter
        (fun ev ->
          item
            (Printf.sprintf
               "{\"name\":\"%s\",\"ph\":\"i\",\"s\":\"t\",\"ts\":%s,\"pid\":1,\"tid\":%d,\"args\":{\"seq\":%d"
               (json_escape ev.name) (json_float (ev.ts *. 1e6)) st.trace.(s) ev.seq);
          add_fields buf ev.fields;
          Buffer.add_string buf "}}")
        (Hashtbl.find_all by_span st.id.(s))
    in
    List.iter emit_span (all t);
    Buffer.add_string buf "\n]}\n";
    Buffer.contents buf
end
