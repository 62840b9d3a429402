open Ssi_util
module Sim = Ssi_sim.Sim
module Obs = Ssi_obs.Obs

type link = {
  delay : float;
  jitter : float;
  drop : float;
  duplicate : float;
  reorder : float;
  reorder_delay : float;
}

let default_link =
  { delay = 50e-6; jitter = 20e-6; drop = 0.; duplicate = 0.; reorder = 0.; reorder_delay = 0. }

type 'msg node = { name : string; mutable handler : src:string -> 'msg -> unit }

type 'msg t = {
  rng : Rng.t;
  obs : Obs.t;
  mutable node_order : string list;  (* registration order, reversed *)
  node_by_name : (string, 'msg node) Hashtbl.t;
  link : link;  (* every pair's link *)
  mutable chaos_drop : float;
  mutable chaos_dup : float;
  mutable chaos_reorder : float;
  cut : (string * string, unit) Hashtbl.t;  (* normalized pairs *)
  c_sent : Obs.counter;
  c_delivered : Obs.counter;
  c_dropped : Obs.counter;
  c_duplicated : Obs.counter;
  c_reordered : Obs.counter;
  c_partition_drops : Obs.counter;
}

let create ?obs ?(default_link = default_link) ~seed () =
  let obs = match obs with Some o -> o | None -> Obs.create () in
  {
    rng = Rng.make (Hashtbl.hash (seed, "net"));
    obs;
    node_order = [];
    node_by_name = Hashtbl.create 8;
    link = default_link;
    chaos_drop = 0.;
    chaos_dup = 0.;
    chaos_reorder = 0.;
    cut = Hashtbl.create 8;
    c_sent = Obs.counter obs "net.sent";
    c_delivered = Obs.counter obs "net.delivered";
    c_dropped = Obs.counter obs "net.dropped";
    c_duplicated = Obs.counter obs "net.duplicated";
    c_reordered = Obs.counter obs "net.reordered";
    c_partition_drops = Obs.counter obs "net.partition_drops";
  }

let node t name =
  match Hashtbl.find t.node_by_name name with
  | n -> n
  | exception Not_found -> invalid_arg ("Net: unknown node " ^ name)

let add_node t name ~handler =
  if Hashtbl.mem t.node_by_name name then invalid_arg ("Net: duplicate node " ^ name);
  Hashtbl.add t.node_by_name name { name; handler };
  t.node_order <- name :: t.node_order

let set_handler t name handler = (node t name).handler <- handler
let nodes t = List.rev t.node_order

let set_chaos t ?drop ?duplicate ?reorder () =
  let clamp x = Float.max 0. (Float.min 1. x) in
  (match drop with Some d -> t.chaos_drop <- clamp d | None -> ());
  (match duplicate with Some d -> t.chaos_dup <- clamp d | None -> ());
  (match reorder with Some r -> t.chaos_reorder <- clamp r | None -> ())

let chaos t = (t.chaos_drop, t.chaos_dup, t.chaos_reorder)

(* ---- Partitions ----------------------------------------------------------- *)

let pair a b = if a <= b then (a, b) else (b, a)
let partition t a b = if a <> b then Hashtbl.replace t.cut (pair a b) ()
let heal t a b = Hashtbl.remove t.cut (pair a b)
let partitioned t a b = Hashtbl.mem t.cut (pair a b)
let isolate t a = List.iter (fun b -> partition t a b) (nodes t)

let rejoin t a =
  Hashtbl.iter (fun (x, y) () -> if x = a || y = a then Hashtbl.remove t.cut (x, y))
    (Hashtbl.copy t.cut)

let heal_all t = Hashtbl.reset t.cut

(* ---- Transmission ---------------------------------------------------------- *)

(* A [net.msg] span that never reaches its receiver closes now, saying why. *)
let lost t sp fate =
  match sp with
  | Some s ->
      Obs.Span.add s fate (Obs.B true);
      Obs.Span.finish t.obs s
  | None -> ()

(* Each accepted copy is scheduled as its own simulation process at
   [now + delay + jitter (+ reorder detour)]; the event heap's (time,
   seq) order makes concurrent deliveries deterministic. *)
let send t ?span_ctx ~src ~dst msg =
  ignore (node t src);
  let receiver = node t dst in
  Obs.incr t.c_sent;
  (* When the sender hands over a span context the hop itself becomes a
     span, parented across the wire: dropped and partitioned messages
     leave a finished span saying so, so lost causality is visible. *)
  let sp =
    match span_ctx with
    | Some ctx ->
        Some
          (Obs.Span.start t.obs ~ctx
             ~attrs:[ ("src", Obs.S src); ("dst", Obs.S dst) ]
             "net.msg")
    | None -> None
  in
  if Hashtbl.length t.cut > 0 && partitioned t src dst then begin
    Obs.incr t.c_partition_drops;
    lost t sp "partitioned"
  end
  else begin
    let l = t.link in
    let drop = Float.max l.drop t.chaos_drop in
    let dup = Float.max l.duplicate t.chaos_dup in
    let reorder = Float.max l.reorder t.chaos_reorder in
    if drop > 0. && Rng.chance t.rng drop then begin
      Obs.incr t.c_dropped;
      lost t sp "dropped"
    end
    else begin
      let copies = if dup > 0. && Rng.chance t.rng dup then 2 else 1 in
      if copies = 2 then Obs.incr t.c_duplicated;
      for _ = 1 to copies do
        let detour =
          if reorder > 0. && Rng.chance t.rng reorder then begin
            Obs.incr t.c_reordered;
            let amp = if l.reorder_delay > 0. then l.reorder_delay else 4. *. l.delay in
            Rng.float t.rng amp
          end
          else 0.
        in
        let latency =
          l.delay +. (if l.jitter > 0. then Rng.float t.rng l.jitter else 0.) +. detour
        in
        Sim.at ~after:latency (fun () ->
            Obs.incr t.c_delivered;
            (match sp with Some s -> Obs.Span.finish t.obs s | None -> ());
            receiver.handler ~src msg)
      done
    end
  end

let stats t =
  [
    ("net.delivered", Obs.counter_value t.c_delivered);
    ("net.dropped", Obs.counter_value t.c_dropped);
    ("net.duplicated", Obs.counter_value t.c_duplicated);
    ("net.partition_drops", Obs.counter_value t.c_partition_drops);
    ("net.reordered", Obs.counter_value t.c_reordered);
    ("net.sent", Obs.counter_value t.c_sent);
  ]

(* ---- Type-erased control surface ------------------------------------------------ *)

type ops = {
  o_nodes : unit -> string list;
  o_partition : string -> string -> unit;
  o_heal : string -> string -> unit;
  o_isolate : string -> unit;
  o_rejoin : string -> unit;
  o_heal_all : unit -> unit;
  o_set_chaos : ?drop:float -> ?duplicate:float -> ?reorder:float -> unit -> unit;
  o_chaos : unit -> float * float * float;
}

let ops t =
  {
    o_nodes = (fun () -> nodes t);
    o_partition = (fun a b -> partition t a b);
    o_heal = (fun a b -> heal t a b);
    o_isolate = (fun n -> isolate t n);
    o_rejoin = (fun n -> rejoin t n);
    o_heal_all = (fun () -> heal_all t);
    o_set_chaos = (fun ?drop ?duplicate ?reorder () -> set_chaos t ?drop ?duplicate ?reorder ());
    o_chaos = (fun () -> chaos t);
  }
