(* The metric catalog (read from BENCHMARK.json), repeat statistics, JSON
   output, and the comparison rule of the compare command. *)

module J = Ssi_harness.Bench_compare

type e2e_metric = { name : string; unit_ : string; higher_better : bool; bound : float }
type catalog = { e2e : e2e_metric list; per_layer : (string * string) list }

let load_catalog path =
  let json = J.parse (In_channel.with_open_bin path In_channel.input_all) in
  let field k o = match J.member k o with Some v -> v | None -> failwith (path ^ ": missing " ^ k) in
  let str k o = match field k o with J.J_str s -> s | _ -> failwith (path ^ ": " ^ k ^ " is not a string") in
  let num k o = match field k o with J.J_num x -> x | _ -> failwith (path ^ ": " ^ k ^ " is not a number") in
  let list k = match field k json with J.J_arr l -> l | _ -> failwith (path ^ ": " ^ k ^ " is not a list") in
  {
    e2e =
      List.map
        (fun o ->
          { name = str "name" o; unit_ = str "unit" o; higher_better = str "better" o = "higher"; bound = num "bound" o })
        (list "end_to_end");
    per_layer = List.map (fun o -> (str "name" o, str "unit" o)) (list "per_layer");
  }

(* ---- Repeat statistics ----------------------------------------------------- *)

let median = Measure.median

(* First and third quartiles by the "exclusive" method of Python's
   statistics.quantiles(xs, n=4). *)
let quartiles xs =
  let a = Array.of_list (List.sort Float.compare xs) in
  let n = Array.length a in
  if n = 0 then (nan, nan)
  else if n = 1 then (a.(0), a.(0))
  else
    let q i =
      let j = min (n - 1) (max 1 (i * (n + 1) / 4)) in
      let delta = float ((i * (n + 1)) - (j * 4)) in
      ((a.(j - 1) *. (4. -. delta)) +. (a.(j) *. delta)) /. 4.
    in
    (q 1, q 3)

(* Distance between the quartiles as a share of the median. *)
let spread xs =
  let q1, q3 = quartiles xs in
  let m = median xs in
  if m = 0. then 0. else (q3 -. q1) /. Float.abs m

(* How one workload's repeats combine into a reported value.  Interference
   from other work on the machine only ever slows a run down, so the
   fastest repeat is the least disturbed reading of wall throughput; set-up
   time is the median.  The virtual-clock metrics are exact for each seed,
   so their mean over the repeats' seeds estimates the workload's value
   (the sharded preset is bimodal across seeds, which a median would
   flip between). *)
let aggregate name xs =
  match name with
  | "wall_tps" -> List.fold_left Float.max neg_infinity xs
  | "setup_s" -> median xs
  | _ -> List.fold_left ( +. ) 0. xs /. float (List.length xs)

(* ---- Comparison -------------------------------------------------------------- *)

type verdict = Improved | Unchanged | Worse | Unresolved

let verdict_name = function
  | Improved -> "improved"
  | Unchanged -> "unchanged"
  | Worse -> "worse"
  | Unresolved -> "unresolved"

(* A change counts when the reported values differ by more than the
   bound.  When either side's spread exceeds the bound the result is
   unresolved, unless every run on one side beats every run on the other. *)
let verdict m ~base ~cur =
  let better a b = if m.higher_better then a > b else a < b in
  let beats xs ys = List.for_all (fun x -> List.for_all (better x) ys) xs in
  let mb = aggregate m.name base and mc = aggregate m.name cur in
  let worse_by = (if m.higher_better then mb -. mc else mc -. mb) /. Float.abs mb in
  if spread base > m.bound || spread cur > m.bound then
    if beats cur base then Improved else if beats base cur then Worse else Unresolved
  else if worse_by > m.bound then Worse
  else if worse_by < -.m.bound then Improved
  else Unchanged

(* ---- JSON output ----------------------------------------------------------------- *)

let num x =
  if not (Float.is_finite x) then invalid_arg "non-finite metric value";
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x else Printf.sprintf "%.17g" x

let str s = "\"" ^ Ssi_obs.Obs.json_escape s ^ "\""
let obj fields = "{" ^ String.concat ", " (List.map (fun (k, v) -> str k ^ ": " ^ v) fields) ^ "}"
let arr items = "[" ^ String.concat ", " items ^ "]"

let metric_json ~unit_ value = obj [ ("value", num value); ("unit", str unit_) ]

let result_line ~correct ~attempted ~failed metrics =
  obj
    [
      ("correct", string_of_bool correct);
      ("attempted", string_of_int attempted);
      ("failed", string_of_int failed);
      ("metrics", obj (List.map (fun (name, unit_, v) -> (name, metric_json ~unit_ v)) metrics));
    ]

(* ---- Reading a benchmark result file ------------------------------------------ *)

(* BENCH_e2e.json: workload -> metric -> the values of every repeat. *)
let load_e2e path =
  let json = J.parse (In_channel.with_open_bin path In_channel.input_all) in
  let fields = function J.J_obj l -> l | _ -> failwith (path ^ ": expected an object") in
  let workloads = match J.member "workloads" json with Some w -> fields w | None -> [] in
  List.map
    (fun (w, metrics) ->
      ( w,
        List.map
          (fun (name, m) ->
            match J.member "values" m with
            | Some (J.J_arr vs) ->
                (name, List.map (function J.J_num x -> x | _ -> failwith (path ^ ": bad value")) vs)
            | _ -> failwith (path ^ ": " ^ w ^ "." ^ name ^ " has no values"))
          (fields metrics) ))
    workloads
