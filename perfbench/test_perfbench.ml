(* Tests of the benchmark itself: the span self-time attribution, the
   metric catalog against BENCHMARK.json, and run-to-run determinism. *)

open Perfbench
module J = Ssi_harness.Bench_compare

let exe = Filename.concat "perfbench" "main.exe"

(* Start the benchmark from the build tree's root, where it finds
   BENCHMARK.json, with its stdout on a pipe. *)
let spawn args =
  let r, w = Unix.pipe ~cloexec:true () in
  Sys.chdir "..";
  let pid =
    Fun.protect
      ~finally:(fun () -> Sys.chdir "perfbench")
      (fun () -> Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin w Unix.stderr)
  in
  Unix.close w;
  (pid, Unix.in_channel_of_descr r)

let span name start stop = { Selftime.name; start; stop }
let close = Alcotest.(check (float 1e-9))

let charge name charges = Option.value ~default:0. (List.assoc_opt name charges)

let test_nested () =
  let charges, residual =
    Selftime.attribute ~lo:0. ~hi:12.
      [| span "parent" 1. 11.; span "a" 2. 4.; span "b" 6. 7.; span "a.child" 2.5 3. |]
  in
  close "parent: duration minus union of children" 7. (charge "parent" charges);
  close "a: minus its own child" 1.5 (charge "a" charges);
  close "b" 1. (charge "b" charges);
  close "a.child" 0.5 (charge "a.child" charges);
  close "residual: outside every span" 2. residual

let test_overlap_and_escape () =
  (* Overlapping children and one that outlives its parent: a plain sum of
     child durations would leave the parent 10 - 12 = -2. *)
  let charges, residual =
    Selftime.attribute ~lo:0. ~hi:14.
      [| span "parent" 0. 10.; span "c1" 1. 6.; span "c2" 2. 7.; span "c3" 8. 10.; span "late" 9. 13. |]
  in
  List.iter (fun (name, t) -> Alcotest.(check bool) (name ^ " non-negative") true (t >= 0.)) charges;
  close "parent: duration minus union of children clipped to it" 2. (charge "parent" charges);
  close "everything accounted" 14. (residual +. List.fold_left (fun acc (_, t) -> acc +. t) 0. charges)

let test_random_partition () =
  let rng = Random.State.make [| 17 |] in
  for _ = 1 to 200 do
    let spans =
      Array.init (1 + Random.State.int rng 30) (fun i ->
          let s = Random.State.float rng 10. in
          span (string_of_int (i mod 4)) s (s +. Random.State.float rng 5.))
    in
    let lo = Random.State.float rng 3. and hi = 7. +. Random.State.float rng 6. in
    let charges, residual = Selftime.attribute ~lo ~hi spans in
    List.iter (fun (_, t) -> Alcotest.(check bool) "non-negative" true (t >= 0.)) charges;
    Alcotest.(check bool) "residual non-negative" true (residual >= 0.);
    close "charges plus residual cover the window" (hi -. lo)
      (residual +. List.fold_left (fun acc (_, t) -> acc +. t) 0. charges)
  done

let test_quartiles () =
  (* Python: statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) *)
  let q1, q3 = Report.quartiles (List.init 10 (fun i -> float (i + 1))) in
  close "q1" 2.75 q1;
  close "q3" 8.25 q3

(* Run the benchmark executable and return its stdout lines. *)
let run args =
  let pid, ic = spawn args in
  let out = In_channel.input_all ic in
  close_in ic;
  (match snd (Unix.waitpid [] pid) with
  | Unix.WEXITED 0 -> ()
  | _ -> Alcotest.failf "%s %s failed:\n%s" exe (String.concat " " args) out);
  String.split_on_char '\n' (String.trim out)

let catalog = lazy (Report.load_catalog "../BENCHMARK.json")

let check_result ~trace expected =
  let lines = run [ "--workload"; "rubis-ro"; "--seed"; "3"; "--seconds"; "0"; "--trace"; trace; "quick" ] in
  let last = J.parse (List.nth lines (List.length lines - 1)) in
  Alcotest.(check bool) "correct" true (J.member "correct" last = Some (J.J_bool true));
  let metrics = match J.member "metrics" last with Some (J.J_obj m) -> m | _ -> [] in
  Alcotest.(check (list string)) "metric names" (List.map fst expected) (List.map fst metrics);
  List.iter
    (fun (name, unit_) ->
      let m = List.assoc name metrics in
      Alcotest.(check bool) (name ^ " unit") true (J.member "unit" m = Some (J.J_str unit_));
      Alcotest.(check bool) (name ^ " printed") true
        (List.exists (fun l -> String.length l > 2 && List.mem name (String.split_on_char ' ' l)) lines))
    expected

let test_e2e_catalog () =
  check_result ~trace:"0"
    (List.map (fun (m : Report.e2e_metric) -> (m.name, m.unit_)) (Lazy.force catalog).Report.e2e)

let test_layer_catalog () = check_result ~trace:"1" (Lazy.force catalog).Report.per_layer

let test_deterministic () =
  let once () : Measure.e2e =
    let pid, ic = spawn [ "run-one"; "rubis-ro"; "--seed"; "5"; "quick" ] in
    let e = input_value ic in
    close_in ic;
    ignore (Unix.waitpid [] pid);
    e
  in
  let a = once () and b = once () in
  Alcotest.(check (list string)) "no violations" [] a.violations;
  Alcotest.(check (list (pair string (float 0.)))) "deterministic metrics repeat exactly"
    (Measure.deterministic a) (Measure.deterministic b)

let () =
  Alcotest.run "perfbench"
    [
      ( "self time",
        [
          Alcotest.test_case "nested children" `Quick test_nested;
          Alcotest.test_case "overlapping and out-of-parent children" `Quick test_overlap_and_escape;
          Alcotest.test_case "random span sets partition the window" `Quick test_random_partition;
        ] );
      ("statistics", [ Alcotest.test_case "quartiles match Python" `Quick test_quartiles ]);
      ( "catalog",
        [
          Alcotest.test_case "end-to-end metrics of BENCHMARK.json" `Quick test_e2e_catalog;
          Alcotest.test_case "per-layer metrics of BENCHMARK.json" `Quick test_layer_catalog;
        ] );
      ("determinism", [ Alcotest.test_case "quick rubis-ro twice" `Quick test_deterministic ]);
    ]
