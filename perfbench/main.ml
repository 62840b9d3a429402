(* The repository's benchmark.  See README.md in this directory.

     main.exe --workload W --seed N --seconds S --trace 0|1
         one workload: end-to-end metrics (trace 0) or the per-layer
         ledger (trace 1), with a one-line JSON result last on stdout
     main.exe benchmark [--seed N] [--repeats R] [--workload W] [quick]
         every workload, R interleaved repeats each; writes
         BENCH_e2e.json, BENCH_layers.json and BENCH_trace_<W>.json
     main.exe compare A.json B.json
         judge B against A with BENCHMARK.json's directions and bounds

   Every measured run is a fresh child process of this executable
   (run-one / run-layers / run-probes), so one run's heap never leaks into
   the next; children run one at a time. *)

open Perfbench

let catalog_path = "BENCHMARK.json"

(* ---- Child processes ------------------------------------------------------ *)

let exe = Sys.executable_name

(* Run this executable with [args] and read back the value it marshals to
   its stdout.  Fails if the child does not exit cleanly. *)
let child args =
  let r, w = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin w Unix.stderr in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let value = try Some (input_value ic) with End_of_file | Failure _ -> None in
  close_in ic;
  match (snd (Unix.waitpid [] pid), value) with
  | Unix.WEXITED 0, Some v -> v
  | _ -> failwith ("benchmark child failed: " ^ String.concat " " args)

let reply v =
  set_binary_mode_out stdout true;
  Marshal.to_channel stdout v [];
  flush stdout

let workload_kind ~quick name =
  match Workloads.find name with
  | Some k -> Workloads.scaled ~quick k
  | None ->
      Printf.eprintf "unknown workload %S (expected one of: %s)\n" name
        (String.concat ", " Workloads.names);
      exit 2

let quick_args quick = if quick then [ "quick" ] else []

let e2e_child ~quick ~seed w : Measure.e2e =
  child ([ "run-one"; w; "--seed"; string_of_int seed ] @ quick_args quick)

let layers_child ~quick ~seed ?chrome w : Measure.layers =
  child
    ([ "run-layers"; w; "--seed"; string_of_int seed ]
    @ (match chrome with Some f -> [ "--chrome"; f ] | None -> [])
    @ quick_args quick)

let probes_child () : (string * float) list = child [ "run-probes" ]

(* ---- Assembling metrics ------------------------------------------------------ *)

let lookup what name values =
  match List.assoc_opt name values with
  | Some v -> v
  | None -> failwith (Printf.sprintf "%s metric %s listed in %s was not measured" what name catalog_path)

let violations (runs : Measure.e2e list) = List.concat_map (fun (e : Measure.e2e) -> e.violations) runs

(* Deterministic metrics that differ between runs made with the same seed. *)
let nondeterminism (runs : Measure.e2e list) =
  let first = Measure.deterministic (List.hd runs) in
  List.concat_map
    (fun e ->
      List.filter_map
        (fun (name, v) ->
          let v0 = List.assoc name first in
          if v = v0 || (Float.is_nan v && Float.is_nan v0) then None
          else Some (Printf.sprintf "deterministic metric %s differs between repeats: %.17g vs %.17g" name v0 v))
        (Measure.deterministic e))
    (List.tl runs)

(* The per-layer ledger of one workload from its runs.  A mix's counts come
   from its end-to-end run, the sharded counts from the layer run. *)
let layer_values (e : Measure.e2e) (l : Measure.layers) probes =
  let reference =
    match l.reference with
    | Some (c, a) when c <> e.committed || a <> e.attempted ->
        [ Printf.sprintf "bench copy of the sharded loop diverged: %d/%d vs %d/%d commits/attempts" c a e.committed e.attempted ]
    | _ -> []
  in
  let gap = e.wall_s *. 1e9 /. float (max 1 e.committed) /. l.untraced_ns in
  (e.counts @ l.metrics @ [ ("concurrency_gap", gap) ] @ probes, e.violations @ l.problems @ reference)

let print_metrics ~title metrics =
  Printf.printf "%s\n" title;
  List.iter (fun (name, unit_, v) -> Printf.printf "  %-34s %16.6g %s\n" name v unit_) metrics

(* ---- One workload, as BENCHMARK.json's command runs it --------------------------- *)

let run_workload catalog ~name ~seed ~seconds ~trace ~quick =
  ignore (workload_kind ~quick name);
  if trace then begin
    let e = e2e_child ~quick ~seed name in
    let l = layers_child ~quick ~seed name in
    let values, problems = layer_values e l (probes_child ()) in
    let metrics = List.map (fun (m, u) -> (m, u, lookup "per-layer" m values)) catalog.Report.per_layer in
    print_metrics ~title:(Printf.sprintf "%s seed %d: per-layer ledger" name seed) metrics;
    (metrics, [ e ], problems)
  end
  else begin
    (* Fixed-length runs, each with its own seed derived from [seed], until
       the next one would overrun the time budget (at least three). *)
    let sub_seed i = if i = 0 then seed else Hashtbl.hash (seed, i) in
    let t0 = Workloads.wall () in
    let rec go i acc =
      let e, dt = Workloads.timed (fun () -> e2e_child ~quick ~seed:(sub_seed i) name) in
      let acc = e :: acc in
      if i < 2 || Workloads.wall () -. t0 +. dt <= seconds then go (i + 1) acc else List.rev acc
    in
    let runs = go 0 [] in
    let values = List.map Measure.e2e_values runs in
    let metrics =
      List.map
        (fun (m : Report.e2e_metric) ->
          (m.name, m.unit_, Report.aggregate m.name (List.map (lookup "end-to-end" m.name) values)))
        catalog.Report.e2e
    in
    print_metrics
      ~title:
        (Printf.sprintf "%s seed %d: %d runs, %d commits in the first window" name seed
           (List.length runs) (List.hd runs).committed)
      metrics;
    Printf.printf "wall_tps of each run: %s\n"
      (String.concat " " (List.map (fun v -> Printf.sprintf "%.1f" (List.assoc "wall_tps" v)) values));
    (metrics, runs, violations runs)
  end

let report_result (metrics, (runs : Measure.e2e list), problems) =
  List.iter (fun p -> Printf.printf "CHECK FAILED: %s\n" p) problems;
  let attempted = List.fold_left (fun acc (e : Measure.e2e) -> acc + e.attempted) 0 runs in
  print_endline (Report.result_line ~correct:(problems = []) ~attempted ~failed:0 metrics);
  if problems <> [] then exit 1

(* ---- The full benchmark command ------------------------------------------------- *)

let write_file path contents =
  Out_channel.with_open_bin path (fun oc -> output_string oc contents);
  Printf.printf "wrote %s\n%!" path

let benchmark catalog ~seed ~repeats ~quick ~only =
  let names = match only with Some w -> [ w ] | None -> Workloads.names in
  List.iter (fun w -> ignore (workload_kind ~quick w)) names;
  (* Repeats interleave round-robin across workloads. *)
  let rounds =
    List.init repeats (fun i ->
        List.map
          (fun w ->
            Printf.eprintf "repeat %d/%d: %s\n%!" (i + 1) repeats w;
            e2e_child ~quick ~seed w)
          names)
  in
  let runs_of i = List.map (fun round -> List.nth round i) rounds in
  let probes = probes_child () in
  let problems = ref [] in
  let e2e_json = ref [] and layers_json = ref [] in
  List.iteri
    (fun i w ->
      let runs = runs_of i in
      let values = List.map Measure.e2e_values runs in
      let chrome = Printf.sprintf "BENCH_trace_%s.json" w in
      let layer, layer_problems =
        layer_values (List.hd runs) (layers_child ~quick ~seed ~chrome w) probes
      in
      problems := !problems @ List.map (fun p -> w ^ ": " ^ p) (violations runs @ nondeterminism runs @ layer_problems);
      Printf.printf "\n== %s (seed %d, %d repeats, %d commits per window) ==\n" w seed repeats
        (List.hd runs).committed;
      let e2e =
        List.map
          (fun (m : Report.e2e_metric) ->
            let xs = List.map (lookup "end-to-end" m.name) values in
            let q1, q3 = Report.quartiles xs in
            Printf.printf "  %-20s %14.6g %-10s q1 %-12.6g q3 %-12.6g spread %5.2f%% (bound %g%%)\n"
              m.name (Report.aggregate m.name xs) m.unit_ q1 q3 (100. *. Report.spread xs) (100. *. m.bound);
            ( m.name,
              Report.obj
                [
                  ("unit", Report.str m.unit_);
                  ("value", Report.num (Report.aggregate m.name xs));
                  ("values", Report.arr (List.map Report.num xs));
                ] ))
          catalog.Report.e2e
      in
      let layer =
        List.map (fun (m, u) -> (m, u, lookup "per-layer" m layer)) catalog.Report.per_layer
      in
      print_metrics ~title:"  per-layer ledger:" layer;
      e2e_json := !e2e_json @ [ (w, Report.obj e2e) ];
      layers_json :=
        !layers_json @ [ (w, Report.obj (List.map (fun (m, u, v) -> (m, Report.metric_json ~unit_:u v)) layer)) ])
    names;
  let header =
    [ ("seed", string_of_int seed); ("repeats", string_of_int repeats); ("quick", string_of_bool quick) ]
  in
  write_file "BENCH_e2e.json" (Report.obj (header @ [ ("workloads", Report.obj !e2e_json) ]) ^ "\n");
  write_file "BENCH_layers.json" (Report.obj (header @ [ ("workloads", Report.obj !layers_json) ]) ^ "\n");
  List.iter (fun p -> Printf.printf "CHECK FAILED: %s\n" p) !problems;
  if !problems <> [] then exit 1;
  Printf.printf "all correctness checks passed\n"

let compare_files catalog a b =
  let base = Report.load_e2e a and cur = Report.load_e2e b in
  let worse = ref false in
  Printf.printf "%-14s %-20s %14s %14s %8s  %s\n" "workload" "metric" "A" "B" "change" "verdict";
  List.iter
    (fun (w, base_metrics) ->
      match List.assoc_opt w cur with
      | None -> Printf.printf "%-14s missing from %s\n" w b
      | Some cur_metrics ->
          List.iter
            (fun (m : Report.e2e_metric) ->
              match (List.assoc_opt m.name base_metrics, List.assoc_opt m.name cur_metrics) with
              | Some xs, Some ys ->
                  let v = Report.verdict m ~base:xs ~cur:ys in
                  if v = Report.Worse then worse := true;
                  let mb = Report.aggregate m.name xs and mc = Report.aggregate m.name ys in
                  Printf.printf "%-14s %-20s %14.6g %14.6g %+7.2f%%  %s\n" w m.name mb mc
                    (100. *. (mc -. mb) /. Float.abs mb)
                    (Report.verdict_name v)
              | _ -> Printf.printf "%-14s %-20s not in both files\n" w m.name)
            catalog.Report.e2e)
    base;
  if !worse then exit 1

(* ---- Command line -------------------------------------------------------------- *)

let usage () =
  prerr_endline
    "usage: main.exe --workload W --seed N --seconds S --trace 0|1\n\
    \       main.exe benchmark [--seed N] [--repeats R] [--workload W] [quick]\n\
    \       main.exe compare A.json B.json";
  exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let quick = List.mem "quick" args in
  let args = List.filter (( <> ) "quick") args in
  let rec flags acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" -> flags ((k, v) :: acc) rest
    | [] -> (acc, [])
    | rest -> (acc, rest)
  in
  let int_flag fl k default =
    match List.assoc_opt k fl with
    | None -> default
    | Some v -> ( match int_of_string_opt v with Some n -> n | None -> usage ())
  in
  match args with
  | "run-one" :: w :: rest ->
      let fl, _ = flags [] rest in
      reply (Measure.e2e ~seed:(int_flag fl "--seed" 42) (workload_kind ~quick w))
  | "run-layers" :: w :: rest ->
      let fl, _ = flags [] rest in
      reply
        (Measure.layer_run ~seed:(int_flag fl "--seed" 42) ~chrome:(List.assoc_opt "--chrome" fl)
           (workload_kind ~quick w))
  | [ "run-probes" ] -> reply (Probes.run ())
  | [ "compare"; a; b ] -> compare_files (Report.load_catalog catalog_path) a b
  | "benchmark" :: rest ->
      let fl, extra = flags [] rest in
      if extra <> [] then usage ();
      benchmark (Report.load_catalog catalog_path) ~seed:(int_flag fl "--seed" 42)
        ~repeats:(if quick then 1 else int_flag fl "--repeats" 5)
        ~quick ~only:(List.assoc_opt "--workload" fl)
  | _ -> (
      match flags [] args with
      | fl, [] when List.mem_assoc "--workload" fl ->
          let catalog = Report.load_catalog catalog_path in
          report_result
            (run_workload catalog ~name:(List.assoc "--workload" fl) ~seed:(int_flag fl "--seed" 42)
               ~seconds:(float (int_flag fl "--seconds" 10))
               ~trace:(int_flag fl "--trace" 0 = 1) ~quick)
      | _ -> usage ())
