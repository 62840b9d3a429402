module Obs = Ssi_obs.Obs

type structure = {
  seq : int;
  ts : float;
  victim : int;
  reason : string;
  rule : string;
  t1 : int;
  t1_cseq : int;
  t1_ro : bool;
  t2 : int;
  t2_cseq : int;
  t3 : int;
  t3_cseq : int;
}

type edge = {
  e_seq : int;
  reader : int;
  writer : int;
  reader_cseq : int;
  writer_cseq : int;
  summarized : bool;
}

type exclusion = {
  x_seq : int;
  x_ts : float;
  x_victim : int;
  x_reason : string;
  x_pstamp : int;
  x_sstamp : int;
  x_peer : int;
}

let int_field ?(default = -1) (ev : Obs.event) key =
  match List.assoc_opt key ev.Obs.fields with Some (Obs.I n) -> n | _ -> default

let str_field ?(default = "?") (ev : Obs.event) key =
  match List.assoc_opt key ev.Obs.fields with Some (Obs.S s) -> s | _ -> default

let bool_field (ev : Obs.event) key =
  match List.assoc_opt key ev.Obs.fields with Some (Obs.B b) -> b | _ -> false

let structure_of_event (ev : Obs.event) =
  if ev.Obs.name <> "ssi.dangerous" then None
  else
    Some
      {
        seq = ev.Obs.seq;
        ts = ev.Obs.ts;
        victim = int_field ev "victim";
        reason = str_field ev "reason";
        rule = str_field ev "rule";
        t1 = int_field ev "t1";
        t1_cseq = int_field ev "t1_cseq";
        t1_ro = bool_field ev "t1_ro";
        t2 = int_field ev "t2";
        t2_cseq = int_field ev "t2_cseq";
        t3 = int_field ev "t3";
        t3_cseq = int_field ev "t3_cseq";
      }

let edge_of_event (ev : Obs.event) =
  if
    ev.Obs.name <> "ssi.rw_edge" && ev.Obs.name <> "ssn.rw_edge"
    && ev.Obs.name <> "essn.rw_edge"
  then None
  else
    Some
      {
        e_seq = ev.Obs.seq;
        reader = int_field ev "reader";
        writer = int_field ev "writer";
        reader_cseq = int_field ev "reader_cseq";
        writer_cseq = int_field ev "writer_cseq";
        summarized = bool_field ev "summarized";
      }

(* The watermark certifiers (SSN/ESSN) record one [<p>.exclusion] event
   per kill decision: the victim's closed window and the transaction whose
   stamp closed it. *)
let exclusion_of_event (ev : Obs.event) =
  if ev.Obs.name <> "ssn.exclusion" && ev.Obs.name <> "essn.exclusion" then None
  else
    Some
      {
        x_seq = ev.Obs.seq;
        x_ts = ev.Obs.ts;
        x_victim = int_field ev "victim";
        x_reason = str_field ev "reason";
        x_pstamp = int_field ev "pstamp";
        x_sstamp = int_field ev "sstamp";
        x_peer = int_field ev "peer";
      }

let structures obs = List.filter_map structure_of_event (Obs.events obs)
let edges obs = List.filter_map edge_of_event (Obs.events obs)
let exclusions obs = List.filter_map exclusion_of_event (Obs.events obs)

(* Transactions the certifier actually killed: dooms of a concurrent
   victim and serialization failures raised at the actor, as recorded by
   [<p>.doom] / [<p>.fail] events under any certifier namespace. *)
let doomed obs =
  List.filter_map
    (fun (ev : Obs.event) ->
      match ev.Obs.name with
      | "ssi.doom" | "ssi.fail" | "ssn.doom" | "ssn.fail" | "essn.doom" | "essn.fail"
        ->
          Some (int_field ev "xid", str_field ev "reason")
      | _ -> None)
    (Obs.events obs)

let victims obs =
  List.sort_uniq compare
    (List.map (fun s -> s.victim) (structures obs)
    @ List.map (fun x -> x.x_victim) (exclusions obs))

(* A structure is complete when all three transactions are identified and
   the firing rule is known — i.e. nothing about it was lost to
   summarization, crash recovery or table overwrites. *)
let complete s = s.t1 >= 0 && s.t2 >= 0 && s.t3 >= 0 && s.rule <> "?"

let node xid cseq ro =
  let id = if xid >= 0 then Printf.sprintf "x%d" xid else "x?" in
  let notes =
    (if cseq >= 0 then [ Printf.sprintf "cseq=%d" cseq ] else [])
    @ if ro then [ "read-only" ] else []
  in
  match notes with
  | [] -> id
  | ns -> Printf.sprintf "%s (%s)" id (String.concat ", " ns)

let render_exclusion x =
  let stamp v = if v < 0 then "inf" else string_of_int v in
  let peer = if x.x_peer >= 0 then Printf.sprintf " (closed by x%d)" x.x_peer else "" in
  Printf.sprintf "exclusion window closed: pstamp=%s >= sstamp=%s%s\n    reason: %s"
    (stamp x.x_pstamp) (stamp x.x_sstamp) peer x.x_reason

let render_structure s =
  let role =
    if s.victim = s.t2 then "pivot T2"
    else if s.victim = s.t1 then "T1"
    else if s.victim = s.t3 then "T3, first committer gave way"
    else "actor"
  in
  Printf.sprintf "T1 %s --rw--> T2 %s --rw--> T3 %s\n    rule:   %s\n    reason: %s (victim: %s)"
    (node s.t1 s.t1_cseq s.t1_ro)
    (node s.t2 s.t2_cseq false)
    (node s.t3 s.t3_cseq false)
    s.rule s.reason role

(* Read-fleet routing summary: the [fleet.*] counters plus a per-replica
   tally of the [replica.read] spans (served reads and the worst
   staleness each replica was read at). *)
let render_fleet obs =
  let c n = Obs.get_counter obs n in
  if c "fleet.route.replica" = 0 && c "fleet.route.primary" = 0 then ""
  else begin
    let buf = Buffer.create 256 in
    Buffer.add_string buf "read fleet:\n";
    Buffer.add_string buf
      (Printf.sprintf "  routed             %d to replicas, %d to primary (%d degraded)\n"
         (c "fleet.route.replica") (c "fleet.route.primary") (c "fleet.degraded"));
    Buffer.add_string buf
      (Printf.sprintf "  health             %d fallbacks, %d markdowns, %d probes, %d readmits\n"
         (c "fleet.fallbacks") (c "fleet.markdowns") (c "fleet.probes") (c "fleet.readmits"));
    Buffer.add_string buf
      (Printf.sprintf "  staleness          %d reads skipped a too-stale replica\n"
         (c "fleet.too_stale"));
    Buffer.add_string buf
      (Printf.sprintf "  sessions           %d waits, %d resets; %d primary switches\n"
         (c "fleet.session_waits") (c "fleet.session_resets") (c "fleet.primary_switches"));
    let tally = Hashtbl.create 8 in
    List.iter
      (fun sp ->
        if Obs.Span.name sp = "replica.read" then
          match List.assoc_opt "replica" (Obs.Span.attrs sp) with
          | Some (Obs.S r) ->
              let stal =
                match List.assoc_opt "staleness" (Obs.Span.attrs sp) with
                | Some (Obs.I n) -> n
                | _ -> 0
              in
              let served, worst =
                match Hashtbl.find_opt tally r with Some t -> t | None -> (0, 0)
              in
              Hashtbl.replace tally r (served + 1, max worst stal)
          | _ -> ())
      (Obs.Spans.all obs);
    List.iter
      (fun (r, (served, worst)) ->
        Buffer.add_string buf
          (Printf.sprintf "  %-18s served %d reads (worst staleness %d)\n" r served worst))
      (List.sort compare
         (Hashtbl.fold (fun r t acc -> (r, t) :: acc) tally []));
    Buffer.contents buf
  end

let render obs =
  let buf = Buffer.create 1024 in
  let structures = structures obs in
  let exclusions = exclusions obs in
  let doomed = doomed obs in
  Buffer.add_string buf
    (if exclusions = [] then
       Printf.sprintf "%d SSI victim(s), %d dangerous structure(s) retained\n"
         (List.length doomed) (List.length structures)
     else
       Printf.sprintf "%d certifier victim(s), %d exclusion window(s) retained\n"
         (List.length doomed) (List.length exclusions));
  let trace_dropped = Obs.get_counter obs "obs.trace.dropped" in
  let span_dropped = Obs.get_counter obs "obs.spans.dropped" in
  if trace_dropped > 0 || span_dropped > 0 then
    Buffer.add_string buf
      (Printf.sprintf
         "warning: evidence may be incomplete (%d trace events and %d spans overwritten)\n"
         trace_dropped span_dropped);
  let by_victim = Hashtbl.create 16 in
  List.iter
    (fun s ->
      Hashtbl.replace by_victim s.victim
        (s :: (match Hashtbl.find_opt by_victim s.victim with Some l -> l | None -> [])))
    structures;
  let excl_by_victim = Hashtbl.create 16 in
  List.iter
    (fun x ->
      Hashtbl.replace excl_by_victim x.x_victim
        (x :: (match Hashtbl.find_opt excl_by_victim x.x_victim with Some l -> l | None -> [])))
    exclusions;
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (xid, reason) ->
      if not (Hashtbl.mem seen xid) then begin
        Hashtbl.add seen xid ();
        Buffer.add_string buf (Printf.sprintf "\nvictim x%d: %s\n" xid reason);
        match (Hashtbl.find_opt by_victim xid, Hashtbl.find_opt excl_by_victim xid) with
        | None, None ->
            Buffer.add_string buf "  (no conflict evidence retained for this victim)\n"
        | ss, xs ->
            List.iter
              (fun s -> Buffer.add_string buf (Printf.sprintf "  %s\n" (render_structure s)))
              (List.rev (Option.value ss ~default:[]));
            List.iter
              (fun x -> Buffer.add_string buf (Printf.sprintf "  %s\n" (render_exclusion x)))
              (List.rev (Option.value xs ~default:[]))
      end)
    doomed;
  (match render_fleet obs with
  | "" -> ()
  | fleet ->
      Buffer.add_char buf '\n';
      Buffer.add_string buf fleet);
  Buffer.contents buf
