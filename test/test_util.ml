(* Unit and property tests for the utility library: RNG, statistics,
   the simulator's event queue, wait queues and table formatting. *)

open Ssi_util

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

(* ---- Rng -------------------------------------------------------------------- *)

let test_rng_deterministic () =
  let a = Rng.make 42 and b = Rng.make 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_split_independent () =
  let parent = Rng.make 1 in
  let child = Rng.split parent in
  let a = Rng.bits64 child and b = Rng.bits64 parent in
  Alcotest.(check bool) "split streams differ" true (a <> b)

let test_rng_copy () =
  let a = Rng.make 7 in
  ignore (Rng.bits64 a);
  let b = Rng.copy a in
  Alcotest.(check int64) "copy continues identically" (Rng.bits64 a) (Rng.bits64 b)

(* The first 1,000 draws of a seed, mixing every primitive: [int] over
   bounds from 1 to near [max_int], [float] printed exactly, raw [bits64],
   and [split] (the child's first word, then the parent goes on).  The
   digests pin the stream, so a change to how the state is held cannot
   move a single draw. *)
let draws seed =
  let t = Rng.make seed and buf = Buffer.create 16_384 in
  for i = 0 to 999 do
    (match i mod 4 with
    | 0 -> Printf.bprintf buf "i%d" (Rng.int t (1 + (i * 7_919 * 1_000_003 land (max_int lsr 1))))
    | 1 -> Printf.bprintf buf "f%h" (Rng.float t (float_of_int i +. 0.5))
    | 2 -> Printf.bprintf buf "b%Lx" (Rng.bits64 t)
    | _ -> Printf.bprintf buf "s%Lx" (Rng.bits64 (Rng.split t)));
    Buffer.add_char buf ' '
  done;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let test_rng_stream_pinned () =
  List.iter
    (fun (seed, want) -> Alcotest.(check string) (Printf.sprintf "seed %d" seed) want (draws seed))
    [
      (0, "1d430e7a8b786183f43e22b2eab15da7");
      (1, "fd8a021c71d58d1ce60ea4e5e63da3ef");
      (42, "5bdb8b33b6e781661cc134d8b0fd5e5b");
      (-7, "d35e053451d1c626014a2c4322c2cdde");
      (max_int, "b41de5c15b54a9a34944b897e42cffda");
    ]

let prop_int_range =
  QCheck.Test.make ~name:"Rng.int in range" ~count:500
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, n) ->
      let rng = Rng.make seed in
      let v = Rng.int rng n in
      v >= 0 && v < n)

let prop_int_incl =
  QCheck.Test.make ~name:"Rng.int_incl in range" ~count:500
    QCheck.(triple small_int (int_range (-50) 50) (int_range 0 100))
    (fun (seed, lo, span) ->
      let rng = Rng.make seed in
      let v = Rng.int_incl rng lo (lo + span) in
      v >= lo && v <= lo + span)

let prop_float_range =
  QCheck.Test.make ~name:"Rng.float in range" ~count:500 QCheck.small_int (fun seed ->
      let rng = Rng.make seed in
      let v = Rng.float rng 3.5 in
      v >= 0. && v < 3.5)

let prop_zipf_bounds =
  QCheck.Test.make ~name:"zipf sample in bounds" ~count:200
    QCheck.(pair small_int (int_range 1 500))
    (fun (seed, n) ->
      let rng = Rng.make seed in
      let z = Rng.zipf ~n ~theta:0.99 in
      let v = Rng.zipf_sample z rng in
      v >= 0 && v < n)

let test_zipf_skew () =
  (* With theta near 1, item 0 must be sampled far more often than the
     median item. *)
  let rng = Rng.make 3 in
  let z = Rng.zipf ~n:100 ~theta:0.99 in
  let counts = Array.make 100 0 in
  for _ = 1 to 20_000 do
    let v = Rng.zipf_sample z rng in
    counts.(v) <- counts.(v) + 1
  done;
  Alcotest.(check bool) "head is hot" true (counts.(0) > 10 * max 1 counts.(50))

let prop_shuffle_permutation =
  QCheck.Test.make ~name:"shuffle is a permutation" ~count:200
    QCheck.(pair small_int (list small_int))
    (fun (seed, l) ->
      let rng = Rng.make seed in
      let a = Array.of_list l in
      Rng.shuffle rng a;
      List.sort compare (Array.to_list a) = List.sort compare l)

let test_nurand_range () =
  let rng = Rng.make 5 in
  for _ = 1 to 1000 do
    let v = Rng.nurand rng ~a:255 ~x:10 ~y:50 in
    Alcotest.(check bool) "nurand in [x,y]" true (v >= 10 && v <= 50)
  done

(* ---- Stats ------------------------------------------------------------------- *)

let test_stats_moments () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ];
  Alcotest.(check int) "count" 8 (Stats.count s);
  Alcotest.(check (float 1e-9)) "mean" 5.0 (Stats.mean s);
  Alcotest.(check (float 1e-9)) "min" 2.0 (Stats.min_value s);
  Alcotest.(check (float 1e-9)) "max" 9.0 (Stats.max_value s);
  Alcotest.(check (float 1e-6)) "stddev (sample)" 2.1380899353 (Stats.stddev s)

let test_stats_percentiles () =
  let s = Stats.create () in
  for i = 1 to 100 do
    Stats.add s (float_of_int i)
  done;
  Alcotest.(check (float 1e-9)) "median" 50.5 (Stats.median s);
  Alcotest.(check (float 1e-9)) "p0" 1.0 (Stats.percentile s 0.);
  Alcotest.(check (float 1e-9)) "p100" 100.0 (Stats.percentile s 1.);
  Alcotest.(check (float 0.5)) "p90" 90.1 (Stats.percentile s 0.9)

let test_stats_empty () =
  let s = Stats.create () in
  Alcotest.(check bool) "mean nan" true (Float.is_nan (Stats.mean s));
  Alcotest.(check bool) "median nan" true (Float.is_nan (Stats.median s))

let test_histogram () =
  let h = Stats.histogram ~lo:0. ~hi:10. ~buckets:10 in
  List.iter (Stats.hist_add h) [ 0.5; 1.5; 1.6; 9.9; -5.; 25. ];
  Alcotest.(check int) "total" 6 (Stats.hist_count h);
  Alcotest.(check int) "bucket 0 holds underflow" 2 (Stats.hist_bucket h 0);
  Alcotest.(check int) "bucket 1" 2 (Stats.hist_bucket h 1);
  Alcotest.(check int) "last bucket holds overflow" 2 (Stats.hist_bucket h 9);
  Alcotest.(check int) "render lines" 10 (List.length (Stats.hist_render h ~width:20))

(* ---- Event queue -------------------------------------------------------------- *)

(* The simulator keeps its pending events in a min-heap on (time, seq); these
   tests drive it through [Sim.at], numbering events in scheduling order, which
   is the order [Sim] assigns seqs in. *)

module Sim = Ssi_sim.Sim

let prop_pqueue_sorted =
  QCheck.Test.make ~name:"pqueue pops in priority order" ~count:200
    QCheck.(list (pair (float_bound_inclusive 100.) small_nat))
    (fun items ->
      let popped = ref [] in
      ignore
        (Sim.run (fun () ->
             List.iteri
               (fun i (t, _) -> Sim.at ~after:t (fun () -> popped := (Sim.now (), i) :: !popped))
               items));
      let popped = List.rev !popped in
      List.length popped = List.length items && popped = List.sort compare popped)

let test_pqueue_fifo_ties () =
  let order = ref [] in
  ignore
    (Sim.run (fun () ->
         List.iter (fun i -> Sim.at ~after:1.0 (fun () -> order := i :: !order)) [ 1; 2; 3; 4 ]));
  Alcotest.(check (list int)) "ties pop in sequence order" [ 1; 2; 3; 4 ] (List.rev !order)

let test_pqueue_interleaved () =
  (* Every event that fires schedules a random number of new ones, some at
     the current time; each must fire as the minimum of a reference model. *)
  let rng = Rng.make 11 in
  let reference = ref [] in
  let seq = ref 0 and fired = ref 0 in
  let limit = 20_000 in
  let rec push () =
    incr seq;
    let s = !seq in
    let d = if Rng.int rng 4 = 0 then 0. else Rng.float rng 50. in
    reference := (Sim.now () +. d, s) :: !reference;
    Sim.at ~after:d (fun () -> fire s)
  and fire s =
    incr fired;
    let expected = List.fold_left min (List.hd !reference) (List.tl !reference) in
    Alcotest.(check bool) "pops model minimum" true ((Sim.now (), s) = expected);
    reference := List.filter (fun x -> x <> expected) !reference;
    while !seq < limit && (!reference = [] || Rng.bool rng) do
      push ()
    done
  in
  ignore (Sim.run push);
  Alcotest.(check int) "every event fired" limit !fired;
  Alcotest.(check bool) "model drained" true (!reference = [])

(* ---- Waitq ---------------------------------------------------------------------- *)

let test_waitq_fifo () =
  let q = Waitq.create () in
  let woken = ref [] in
  List.iter (fun i -> Waitq.enqueue q (fun () -> woken := i :: !woken)) [ 1; 2; 3 ];
  Waitq.wake_all q;
  Alcotest.(check (list int)) "FIFO wake order" [ 1; 2; 3 ] (List.rev !woken);
  Alcotest.(check bool) "drained" true (Waitq.is_empty q)

let test_waitq_wake_one () =
  let q = Waitq.create () in
  let woken = ref 0 in
  Waitq.enqueue q (fun () -> incr woken);
  Waitq.enqueue q (fun () -> incr woken);
  Alcotest.(check bool) "wake one" true (Waitq.wake_one q);
  Alcotest.(check int) "only one" 1 !woken;
  Alcotest.(check int) "one left" 1 (Waitq.length q)

let test_waitq_reentrant_wake () =
  (* A thunk that re-enqueues itself must not be woken by the same
     wake_all. *)
  let q = Waitq.create () in
  let count = ref 0 in
  let rec thunk () =
    incr count;
    if !count < 5 then Waitq.enqueue q thunk
  in
  Waitq.enqueue q thunk;
  Waitq.wake_all q;
  Alcotest.(check int) "woken exactly once" 1 !count

let test_direct_scheduler () =
  Alcotest.check_raises "direct suspend raises" Db_error.(Error Lock_not_available) (fun () ->
      Waitq.direct.Waitq.suspend (Waitq.create ()));
  Waitq.direct.Waitq.charge 1.0;
  Alcotest.(check (float 0.)) "direct now" 0. (Waitq.direct.Waitq.now ())

(* ---- Tablefmt ------------------------------------------------------------------- *)

let test_tablefmt_layout () =
  let out =
    Tablefmt.render
      ~align:[ Tablefmt.Left; Tablefmt.Right ]
      ~header:[ "name"; "n" ]
      [ [ "a"; "1" ]; [ "longer"; "22" ] ]
  in
  let lines = String.split_on_char '\n' out in
  Alcotest.(check bool) "four lines plus trailing" true (List.length lines >= 4);
  Alcotest.(check bool) "left aligned body" true
    (List.exists (fun l -> String.length l > 0 && l.[0] = 'a') lines)

let () =
  Alcotest.run "util"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "split independent" `Quick test_rng_split_independent;
          Alcotest.test_case "copy" `Quick test_rng_copy;
          Alcotest.test_case "first 1,000 draws pinned" `Quick test_rng_stream_pinned;
          Alcotest.test_case "zipf skew" `Quick test_zipf_skew;
          Alcotest.test_case "nurand range" `Quick test_nurand_range;
        ] );
      qsuite "rng-props"
        [ prop_int_range; prop_int_incl; prop_float_range; prop_zipf_bounds;
          prop_shuffle_permutation ];
      ( "stats",
        [
          Alcotest.test_case "moments" `Quick test_stats_moments;
          Alcotest.test_case "percentiles" `Quick test_stats_percentiles;
          Alcotest.test_case "empty" `Quick test_stats_empty;
          Alcotest.test_case "histogram" `Quick test_histogram;
        ] );
      ( "pqueue",
        [
          Alcotest.test_case "fifo ties" `Quick test_pqueue_fifo_ties;
          Alcotest.test_case "interleaved model" `Quick test_pqueue_interleaved;
        ] );
      qsuite "pqueue-props" [ prop_pqueue_sorted ];
      ( "waitq",
        [
          Alcotest.test_case "fifo" `Quick test_waitq_fifo;
          Alcotest.test_case "wake one" `Quick test_waitq_wake_one;
          Alcotest.test_case "reentrant wake" `Quick test_waitq_reentrant_wake;
          Alcotest.test_case "direct scheduler" `Quick test_direct_scheduler;
        ] );
      ("tablefmt", [ Alcotest.test_case "layout" `Quick test_tablefmt_layout ]);
    ]
