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

type span = {
  sp_trace : int;
  sp_id : int;
  sp_parent : int option;
  sp_name : string;
  sp_start : float;
  mutable sp_end : float;  (* nan while open *)
  mutable sp_open : bool;
  mutable sp_attrs : (string * field) list;  (* newest first *)
}

type t = {
  metrics : (string, metric) Hashtbl.t;
  mutable clock : unit -> float;
  mutable last_ts : float;  (* last successful clock reading *)
  log : event array;  (* slot [seq mod capacity]; see [trace] *)
  mutable next_seq : int;
  spans : span option array;  (* finished spans, bounded *)
  mutable span_seq : int;  (* finished-span insertion index *)
  mutable next_trace : int;
  mutable next_span : int;
  open_spans : (int, span) Hashtbl.t;  (* span_id -> span *)
  owner_spans : (int, span) Hashtbl.t;  (* txn xid -> owning span *)
  trace_dropped : counter;
  span_dropped : counter;
}

let create ?(trace_capacity = 4096) ?(span_capacity = 4096) () =
  if trace_capacity <= 0 then invalid_arg "Obs.create: trace_capacity must be positive";
  if span_capacity <= 0 then invalid_arg "Obs.create: span_capacity must be positive";
  let metrics = Hashtbl.create 64 in
  (* The drop counters exist from birth so truncation is visible in every
     render, including as an explicit 0 when nothing was dropped. *)
  let eager name =
    let c = { c_name = name; c = 0 } in
    Hashtbl.replace metrics name (Counter c);
    c
  in
  {
    metrics;
    clock = (fun () -> 0.);
    last_ts = 0.;
    log = Array.make trace_capacity { seq = -1; ts = 0.; name = ""; fields = [] };
    next_seq = 0;
    spans = Array.make span_capacity None;
    span_seq = 0;
    next_trace = 0;
    next_span = 0;
    open_spans = Hashtbl.create 64;
    owner_spans = Hashtbl.create 64;
    trace_dropped = eager "obs.trace.dropped";
    span_dropped = eager "obs.spans.dropped";
  }

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
    | Some sp -> ("span", I sp.sp_id) :: ("trace", I sp.sp_trace) :: fields
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

let field_to_json = function
  | I n -> string_of_int n
  | F x -> json_float x
  | S s -> "\"" ^ json_escape s ^ "\""
  | B b -> string_of_bool b

let event_to_json e =
  let buf = Buffer.create 128 in
  Buffer.add_string buf
    (Printf.sprintf "{\"seq\":%d,\"ts\":%s,\"event\":\"%s\"" e.seq (json_float e.ts)
       (json_escape e.name));
  List.iter
    (fun (k, v) ->
      Buffer.add_string buf
        (Printf.sprintf ",\"%s\":%s" (json_escape k) (field_to_json v)))
    e.fields;
  Buffer.add_char buf '}';
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Spans                                                              *)
(* ------------------------------------------------------------------ *)

module Span = struct
  let start t ?parent ?ctx ?(attrs = []) name =
    let sp_trace, sp_parent =
      match (parent, ctx) with
      | Some p, _ -> (p.sp_trace, Some p.sp_id)
      | None, Some c -> (c.trace_id, Some c.span_id)
      | None, None ->
          let tr = t.next_trace in
          t.next_trace <- tr + 1;
          (tr, None)
    in
    let sp_id = t.next_span in
    t.next_span <- sp_id + 1;
    let sp =
      {
        sp_trace;
        sp_id;
        sp_parent;
        sp_name = name;
        sp_start = now t;
        sp_end = nan;
        sp_open = true;
        sp_attrs = List.rev attrs;
      }
    in
    Hashtbl.replace t.open_spans sp_id sp;
    sp

  let finish t sp =
    if sp.sp_open then begin
      sp.sp_open <- false;
      sp.sp_end <- now t;
      Hashtbl.remove t.open_spans sp.sp_id;
      let slot = t.span_seq mod Array.length t.spans in
      (match t.spans.(slot) with Some _ -> incr t.span_dropped | None -> ());
      t.spans.(slot) <- Some sp;
      t.span_seq <- t.span_seq + 1
    end

  let add sp k v = sp.sp_attrs <- (k, v) :: List.remove_assoc k sp.sp_attrs

  let ctx sp = { trace_id = sp.sp_trace; span_id = sp.sp_id }
  let name sp = sp.sp_name
  let trace_id sp = sp.sp_trace
  let id sp = sp.sp_id
  let parent sp = sp.sp_parent
  let start_ts sp = sp.sp_start
  let end_ts sp = sp.sp_end
  let is_open sp = sp.sp_open
  let attrs sp = List.rev sp.sp_attrs
end

let set_owner_span t xid sp = Hashtbl.replace t.owner_spans xid sp
let clear_owner_span t xid = Hashtbl.remove t.owner_spans xid
let owner_span t xid = Hashtbl.find_opt t.owner_spans xid

module Spans = struct
  let finished t =
    Array.to_list t.spans
    |> List.filter_map Fun.id
    |> List.sort (fun a b -> Stdlib.compare a.sp_id b.sp_id)

  let open_spans t =
    Hashtbl.fold (fun _ sp acc -> sp :: acc) t.open_spans []
    |> List.sort (fun a b -> Stdlib.compare a.sp_id b.sp_id)

  let all t =
    List.merge (fun a b -> Stdlib.compare a.sp_id b.sp_id) (finished t) (open_spans t)

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
    let buf = Buffer.create 4096 in
    let now = now t in
    Buffer.add_string buf "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    let first = ref true in
    let sep () =
      if !first then first := false else Buffer.add_char buf ',';
      Buffer.add_string buf "\n"
    in
    let emit_attr (k, v) =
      Buffer.add_string buf
        (Printf.sprintf ",\"%s\":%s" (json_escape k) (field_to_json v))
    in
    let emit_span sp =
      sep ();
      let te = if sp.sp_open then now else sp.sp_end in
      let dur = Stdlib.max 0. (te -. sp.sp_start) in
      Buffer.add_string buf
        (Printf.sprintf
           "{\"name\":\"%s\",\"cat\":\"span\",\"ph\":\"X\",\"ts\":%s,\"dur\":%s,\"pid\":1,\"tid\":%d,\"args\":{\"trace_id\":%d,\"span_id\":%d"
           (json_escape sp.sp_name)
           (json_float (sp.sp_start *. 1e6))
           (json_float (dur *. 1e6))
           sp.sp_trace sp.sp_trace sp.sp_id);
      (match sp.sp_parent with
      | Some p -> Buffer.add_string buf (Printf.sprintf ",\"parent_id\":%d" p)
      | None -> ());
      if sp.sp_open then Buffer.add_string buf ",\"incomplete\":true";
      List.iter emit_attr (Span.attrs sp);
      Buffer.add_string buf "}}";
      List.iter
        (fun ev ->
          sep ();
          Buffer.add_string buf
            (Printf.sprintf
               "{\"name\":\"%s\",\"ph\":\"i\",\"s\":\"t\",\"ts\":%s,\"pid\":1,\"tid\":%d,\"args\":{\"seq\":%d"
               (json_escape ev.name)
               (json_float (ev.ts *. 1e6))
               sp.sp_trace ev.seq);
          List.iter emit_attr ev.fields;
          Buffer.add_string buf "}}")
        (Hashtbl.find_all by_span sp.sp_id)
    in
    List.iter emit_span (all t);
    Buffer.add_string buf "\n]}\n";
    Buffer.contents buf
end
