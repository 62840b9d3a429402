type rule =
  | Rate_above of { name : string; metric : string; per_sec : float }
  | Gauge_above of { name : string; metric : string; threshold : float; windows : int }
  | Stall of { name : string; idle : string; busy : string; min_busy : int; windows : int }

let rule_name = function
  | Rate_above { name; _ } | Gauge_above { name; _ } | Stall { name; _ } -> name

let rule_kind = function
  | Rate_above _ -> "rate_spike"
  | Gauge_above _ -> "slo_breach"
  | Stall _ -> "stall"

type alert = {
  al_rule : string;
  al_kind : string;
  al_metric : string;
  al_window : int;
  al_ts : float;
  al_value : float;
  al_threshold : float;
  al_ctx : Obs.span_ctx;
}

type state = { mutable streak : int; mutable firing : bool }

type t = {
  scrape : Scrape.t;
  rules : rule list;
  states : state array;  (* parallel to rules *)
  mutable fired : alert list;  (* newest first *)
  alerts_total : Obs.counter;
}

(* A rule's condition over one window: [None] = clear, [Some value] =
   breached with the observed value. *)
let breach w = function
  | Rate_above { metric; per_sec; _ } -> (
      match Scrape.find w metric with
      | Some (Scrape.Rate { delta; _ }) ->
          let dt = w.Scrape.w_end -. w.Scrape.w_start in
          if dt <= 0. then None
          else
            let rate = float_of_int delta /. dt in
            if rate > per_sec then Some rate else None
      | _ -> None)
  | Gauge_above { metric; threshold; _ } -> (
      match Scrape.find w metric with
      | Some (Scrape.Gauge v) when v > threshold -> Some v
      | _ -> None)
  | Stall { idle; busy; min_busy; _ } -> (
      let delta name =
        match Scrape.find w name with
        | Some (Scrape.Rate { delta; _ }) -> Some delta
        | _ -> None
      in
      match (delta idle, delta busy) with
      | Some 0, Some b when b >= min_busy -> Some (float_of_int b)
      | _ -> None)

let required = function
  | Rate_above _ -> 1
  | Gauge_above { windows; _ } -> Stdlib.max 1 windows
  | Stall { windows; _ } -> Stdlib.max 1 windows

let metric_of = function
  | Rate_above { metric; _ } | Gauge_above { metric; _ } -> metric
  | Stall { idle; _ } -> idle

let threshold_of = function
  | Rate_above { per_sec; _ } -> per_sec
  | Gauge_above { threshold; _ } -> threshold
  | Stall { min_busy; _ } -> float_of_int min_busy

let fire t rule w value =
  let obs = Scrape.obs t.scrape in
  let sp =
    Obs.Span.start obs
      ~attrs:
        [
          ("rule", Obs.S (rule_name rule));
          ("kind", Obs.S (rule_kind rule));
          ("metric", Obs.S (metric_of rule));
          ("value", Obs.F value);
          ("threshold", Obs.F (threshold_of rule));
          ("window", Obs.I w.Scrape.w_idx);
        ]
      "watchdog.alert"
  in
  Obs.trace obs ~span:sp "watchdog.fired";
  Obs.Span.finish obs sp;
  Obs.incr t.alerts_total;
  t.fired <-
    {
      al_rule = rule_name rule;
      al_kind = rule_kind rule;
      al_metric = metric_of rule;
      al_window = w.Scrape.w_idx;
      al_ts = w.Scrape.w_end;
      al_value = value;
      al_threshold = threshold_of rule;
      al_ctx = Obs.Span.ctx sp;
    }
    :: t.fired

let evaluate t w =
  List.iteri
    (fun i rule ->
      let st = t.states.(i) in
      match breach w rule with
      | Some value ->
          st.streak <- st.streak + 1;
          if st.streak >= required rule && not st.firing then begin
            st.firing <- true;
            fire t rule w value
          end
      | None ->
          st.streak <- 0;
          st.firing <- false)
    t.rules

let create scrape rules =
  let t =
    {
      scrape;
      rules;
      states = Array.init (List.length rules) (fun _ -> { streak = 0; firing = false });
      fired = [];
      alerts_total = Obs.counter (Scrape.obs scrape) "watchdog.alerts";
    }
  in
  Scrape.on_tick scrape (evaluate t);
  t

let rules t = t.rules
let alerts t = List.rev t.fired

let active t =
  List.filteri (fun i _ -> t.states.(i).firing) t.rules
  |> List.map rule_name |> List.sort String.compare

let render_alert a =
  Printf.sprintf "[%.6g] %s %s: %s=%.6g > %.6g (window %d)" a.al_ts a.al_kind a.al_rule
    a.al_metric a.al_value a.al_threshold a.al_window

let render t =
  match alerts t with
  | [] -> ""
  | l -> String.concat "\n" (List.map render_alert l) ^ "\n"

let default_rules ?(certifier_prefix = "ssi") ?(replicas = []) ?(abort_rate = 200.)
    ?(summarize_rate = 500.) ?(lag_threshold = 50.) ?(lag_windows = 2)
    ?(markdown_rate = 2.) ?(stall_windows = 3) () =
  [
    Rate_above
      { name = "abort-spike"; metric = "engine.serialization_failures"; per_sec = abort_rate };
    Rate_above
      {
        name = "summarize-pressure";
        metric = certifier_prefix ^ ".summarized";
        per_sec = summarize_rate;
      };
    Stall
      {
        name = "wal-flush-stall";
        idle = "wal.flushes";
        busy = "wal.appends";
        min_busy = 1;
        windows = stall_windows;
      };
    Rate_above
      { name = "fleet-markdown-churn"; metric = "fleet.markdowns"; per_sec = markdown_rate };
  ]
  @ List.map
      (fun r ->
        Gauge_above
          {
            name = "replica-lag:" ^ r;
            metric = Printf.sprintf "replica.%s.apply_lag" r;
            threshold = lag_threshold;
            windows = lag_windows;
          })
      replicas
