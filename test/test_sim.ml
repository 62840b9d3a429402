(* The discrete-event simulator: virtual time, processes, suspension,
   resources, and stuck-process detection. *)

module Sim = Ssi_sim.Sim
open Ssi_util

let test_outside_run () =
  Alcotest.check_raises "now outside run" Sim.Not_in_simulation (fun () ->
      ignore (Sim.now ()))

let test_time_advances () =
  let final =
    Sim.run (fun () ->
        Alcotest.(check (float 0.)) "starts at zero" 0. (Sim.now ());
        Sim.delay 1.5;
        Alcotest.(check (float 1e-9)) "advanced" 1.5 (Sim.now ());
        Sim.delay 0.5)
  in
  Alcotest.(check (float 1e-9)) "final time" 2.0 final

let test_event_ordering () =
  (* Processes interleave strictly by virtual time; ties run FIFO. *)
  let log = ref [] in
  let mark tag = log := (tag, Sim.now ()) :: !log in
  ignore
    (Sim.run (fun () ->
         Sim.spawn (fun () ->
             Sim.delay 2.;
             mark "b");
         Sim.spawn (fun () ->
             Sim.delay 1.;
             mark "a";
             Sim.delay 2.;
             mark "c")));
  Alcotest.(check (list string))
    "chronological order" [ "a"; "b"; "c" ]
    (List.rev_map fst !log)

let test_yield_fifo () =
  let log = ref [] in
  ignore
    (Sim.run (fun () ->
         Sim.spawn (fun () ->
             log := 1 :: !log;
             Sim.yield ();
             log := 3 :: !log);
         Sim.spawn (fun () ->
             log := 2 :: !log;
             Sim.yield ();
             log := 4 :: !log)));
  Alcotest.(check (list int)) "round robin" [ 1; 2; 3; 4 ] (List.rev !log)

let test_wait_wake () =
  let q = Waitq.create () in
  let woken_at = ref (-1.) in
  ignore
    (Sim.run (fun () ->
         Sim.spawn (fun () ->
             Sim.wait q;
             woken_at := Sim.now ());
         Sim.spawn (fun () ->
             Sim.delay 3.;
             Waitq.wake_all q)));
  Alcotest.(check (float 1e-9)) "woken at waker's time" 3. !woken_at

let test_stuck_detection () =
  let q = Waitq.create () in
  (try
     ignore (Sim.run (fun () -> Sim.spawn (fun () -> Sim.wait q)));
     Alcotest.fail "expected Stuck"
   with Sim.Stuck { count; labels } ->
     Alcotest.(check int) "one stuck process" 1 count;
     Alcotest.(check (list string)) "names the wait queue"
       [ Printf.sprintf "waitq:%d" (Waitq.id q) ]
       labels)

(* A run that raises while a process waits must not leave that waiter's
   label behind: the next stuck run names only its own queue. *)
let test_stuck_labels_after_raise () =
  let q1 = Waitq.create () and q2 = Waitq.create () in
  Alcotest.check_raises "first run raises" (Failure "boom") (fun () ->
      ignore
        (Sim.run (fun () ->
             Sim.spawn (fun () -> Sim.wait q1);
             Sim.spawn (fun () ->
                 Sim.yield ();
                 failwith "boom"))));
  match Sim.run (fun () -> Sim.spawn (fun () -> Sim.wait q2)) with
  | _ -> Alcotest.fail "expected Stuck"
  | exception Sim.Stuck { labels; _ } ->
      Alcotest.(check (list string)) "only the second run's waiter"
        [ Printf.sprintf "waitq:%d" (Waitq.id q2) ]
        labels

let test_exception_propagates () =
  Alcotest.check_raises "process exception escapes run" (Failure "boom") (fun () ->
      ignore (Sim.run (fun () -> failwith "boom")))

let test_resource_capacity () =
  (* Three processes share a 1-slot resource for 1s each: they serialize. *)
  let ends = ref [] in
  ignore
    (Sim.run (fun () ->
         let r = Sim.resource ~capacity:1 in
         for _ = 1 to 3 do
           Sim.spawn (fun () ->
               Sim.use r 1.0;
               ends := Sim.now () :: !ends)
         done));
  Alcotest.(check (list (float 1e-9))) "serialized" [ 1.; 2.; 3. ] (List.rev !ends)

let test_resource_parallel () =
  let ends = ref [] in
  ignore
    (Sim.run (fun () ->
         let r = Sim.resource ~capacity:2 in
         for _ = 1 to 4 do
           Sim.spawn (fun () ->
               Sim.use r 1.0;
               ends := Sim.now () :: !ends)
         done));
  Alcotest.(check (list (float 1e-9)))
    "two at a time" [ 1.; 1.; 2.; 2. ]
    (List.rev !ends)

let test_resource_fifo_handoff () =
  (* The released slot goes to the oldest waiter, not a newcomer. *)
  let order = ref [] in
  ignore
    (Sim.run (fun () ->
         let r = Sim.resource ~capacity:1 in
         Sim.spawn (fun () ->
             Sim.acquire r;
             Sim.delay 1.0;
             Sim.release r);
         Sim.spawn (fun () ->
             Sim.delay 0.1;
             Sim.acquire r;
             order := "first-waiter" :: !order;
             Sim.delay 1.0;
             Sim.release r);
         Sim.spawn (fun () ->
             Sim.delay 0.2;
             Sim.acquire r;
             order := "second-waiter" :: !order;
             Sim.release r)));
  Alcotest.(check (list string))
    "fifo order" [ "first-waiter"; "second-waiter" ]
    (List.rev !order)

let test_busy_time () =
  ignore
    (Sim.run (fun () ->
         let r = Sim.resource ~capacity:2 in
         Sim.spawn (fun () -> Sim.use r 1.5);
         Sim.spawn (fun () -> Sim.use r 0.5);
         Sim.spawn (fun () ->
             Sim.delay 3.;
             Alcotest.(check (float 1e-9)) "slot-seconds" 2.0 (Sim.busy_time r))))

let test_scheduler_record () =
  let observed = ref (-1.) in
  ignore
    (Sim.run (fun () ->
         Sim.scheduler.Waitq.charge 2.0;
         observed := Sim.scheduler.Waitq.now ()));
  Alcotest.(check (float 1e-9)) "charge advances scheduler time" 2.0 !observed

let test_determinism () =
  let run () =
    let trace = ref [] in
    ignore
      (Sim.run (fun () ->
           let rng = Rng.make 9 in
           for i = 1 to 5 do
             Sim.spawn (fun () ->
                 Sim.delay (Rng.float rng 1.0);
                 trace := (i, Sim.now ()) :: !trace)
           done));
    !trace
  in
  Alcotest.(check bool) "identical traces" true (run () = run ())

let () =
  Alcotest.run "sim"
    [
      ( "core",
        [
          Alcotest.test_case "outside run" `Quick test_outside_run;
          Alcotest.test_case "time advances" `Quick test_time_advances;
          Alcotest.test_case "event ordering" `Quick test_event_ordering;
          Alcotest.test_case "yield fifo" `Quick test_yield_fifo;
          Alcotest.test_case "wait/wake" `Quick test_wait_wake;
          Alcotest.test_case "stuck detection" `Quick test_stuck_detection;
          Alcotest.test_case "stuck labels after a raise" `Quick test_stuck_labels_after_raise;
          Alcotest.test_case "exceptions propagate" `Quick test_exception_propagates;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "scheduler record" `Quick test_scheduler_record;
        ] );
      ( "resources",
        [
          Alcotest.test_case "capacity 1 serializes" `Quick test_resource_capacity;
          Alcotest.test_case "capacity 2 pairs" `Quick test_resource_parallel;
          Alcotest.test_case "fifo handoff" `Quick test_resource_fifo_handoff;
          Alcotest.test_case "busy time" `Quick test_busy_time;
        ] );
    ]
