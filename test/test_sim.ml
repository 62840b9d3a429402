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

(* A second resume of one suspension is a programmer error. *)
let test_resumed_twice () =
  Alcotest.check_raises "second resume" (Invalid_argument "Sim: process resumed twice")
    (fun () ->
      ignore
        (Sim.run (fun () ->
             let resume = ref ignore in
             Sim.spawn (fun () -> Sim.suspend (fun r -> resume := r));
             Sim.yield ();
             !resume ();
             !resume ())))

(* A NaN duration would set the clock to NaN; both entry points refuse it,
   while a negative one still counts as 0. *)
let test_nan_delay () =
  Alcotest.check_raises "at ~after:nan" (Invalid_argument "Sim.at: NaN delay") (fun () ->
      ignore (Sim.run (fun () -> Sim.at ~after:Float.nan ignore)));
  Alcotest.check_raises "delay nan" (Invalid_argument "Sim.delay: NaN delay") (fun () ->
      ignore (Sim.run (fun () -> Sim.delay Float.nan)));
  let fired = ref (-1.) in
  let final =
    Sim.run (fun () ->
        Sim.delay 1.;
        Sim.delay (-1.);
        Sim.at ~after:(-2.) (fun () -> fired := Sim.now ()))
  in
  Alcotest.(check (float 0.)) "negative timer fires now" 1. !fired;
  Alcotest.(check (float 0.)) "clock stays finite" 1. final

(* ---- Schedule-order model ----------------------------------------------------- *)

(* A script is a process body: each step logs [(tag, now)] and then acts.
   [sim_outcome] runs it under [Sim]; [reference_outcome] interprets the
   same script over an explicit event list kept sorted by (time, seq).
   Their logs and their stuck outcomes must agree. *)
type step =
  | Spawn of step list
  | At of float * step list
  | Delay of float
  | Yield
  | Wait of int  (** wait queue index *)
  | Wake_one of int
  | Wake_all of int
  | Suspend  (** park the process for a later [Resume] *)
  | Resume  (** resume the oldest parked process *)

let rec print_step = function
  | Spawn b -> Printf.sprintf "Spawn[%s]" (print_script b)
  | At (d, b) -> Printf.sprintf "At(%g)[%s]" d (print_script b)
  | Delay d -> Printf.sprintf "Delay %g" d
  | Yield -> "Yield"
  | Wait q -> Printf.sprintf "Wait %d" q
  | Wake_one q -> Printf.sprintf "Wake_one %d" q
  | Wake_all q -> Printf.sprintf "Wake_all %d" q
  | Suspend -> "Suspend"
  | Resume -> "Resume"

and print_script b = String.concat "; " (List.map print_step b)

let step_gen =
  QCheck.Gen.(
    let q = int_bound 1 and d = oneofl [ -1.; 0.; 0.25; 0.5; 1. ] in
    fix
      (fun self depth ->
        let body = list_size (int_bound 5) (self (depth - 1)) in
        frequency
          ((if depth > 0 then
              [ (1, map (fun b -> Spawn b) body); (1, map2 (fun d b -> At (d, b)) d body) ]
            else [])
          @ [
              (3, map (fun d -> Delay d) d);
              (2, return Yield);
              (2, map (fun q -> Wait q) q);
              (2, map (fun q -> Wake_one q) q);
              (1, map (fun q -> Wake_all q) q);
              (1, return Suspend);
              (2, return Resume);
            ]))
      2)

(* The log, then [Some (count, labels)] when the run was stuck. *)
type outcome = (string * float) list * (int * string list) option

let sim_outcome queues script : outcome =
  let log = ref [] and next = ref 0 and parked = Queue.create () in
  let rec exec pid steps =
    List.iteri
      (fun i st ->
        log := (Printf.sprintf "%d.%d" pid i, Sim.now ()) :: !log;
        match st with
        | Spawn b -> Sim.spawn (proc b)
        | At (d, b) -> Sim.at ~after:d (proc b)
        | Delay d -> Sim.delay d
        | Yield -> Sim.yield ()
        | Wait q -> Sim.wait queues.(q)
        | Wake_one q -> ignore (Waitq.wake_one queues.(q))
        | Wake_all q -> Waitq.wake_all queues.(q)
        | Suspend -> Sim.suspend (fun resume -> Queue.add resume parked)
        | Resume -> Option.iter (fun r -> r ()) (Queue.take_opt parked))
      steps;
    log := (Printf.sprintf "%d.end" pid, Sim.now ()) :: !log
  and proc b =
    incr next;
    let pid = !next in
    fun () -> exec pid b
  in
  let stuck =
    match Sim.run (proc script) with
    | _ -> None
    | exception Sim.Stuck { count; labels } -> Some (count, labels)
  in
  (List.rev !log, stuck)

(* The reference scheduler.  A process is its remaining steps; an event
   starts or resumes one at (time, seq). *)
let reference_outcome queues script : outcome =
  let log = ref [] and next = ref 0 and seq = ref 0 and now = ref 0. in
  let events = ref [] in
  let waiting = Array.map (fun _ -> Queue.create ()) queues and parked = Queue.create () in
  let schedule time proc =
    incr seq;
    events := List.sort compare ((time, !seq, proc) :: !events)
  in
  let start b =
    incr next;
    (!next, 0, b)
  in
  (* Run [pid] from step [i] of [steps] until it blocks or ends. *)
  let rec run (pid, i, steps) =
    match steps with
    | [] -> log := (Printf.sprintf "%d.end" pid, !now) :: !log
    | st :: rest -> (
        log := (Printf.sprintf "%d.%d" pid i, !now) :: !log;
        let k = (pid, i + 1, rest) in
        let wake p = schedule !now p in
        match st with
        | Spawn b ->
            schedule !now (start b);
            run k
        | At (d, b) ->
            schedule (!now +. Float.max 0. d) (start b);
            run k
        | Delay d -> if d > 0. then schedule (!now +. d) k else run k
        | Yield -> schedule !now k
        | Wait q -> Queue.add k waiting.(q)
        | Wake_one q ->
            Option.iter wake (Queue.take_opt waiting.(q));
            run k
        | Wake_all q ->
            let ps = List.of_seq (Queue.to_seq waiting.(q)) in
            Queue.clear waiting.(q);
            List.iter wake ps;
            run k
        | Suspend -> Queue.add k parked
        | Resume ->
            Option.iter wake (Queue.take_opt parked);
            run k)
  in
  schedule 0. (start script);
  let rec loop () =
    match !events with
    | [] -> ()
    | (time, _, p) :: rest ->
        events := rest;
        now := time;
        run p;
        loop ()
  in
  loop ();
  let labels =
    List.concat
      (Array.to_list
         (Array.mapi
            (fun q w -> List.init (Queue.length w) (fun _ -> Printf.sprintf "waitq:%d" (Waitq.id queues.(q))))
            waiting))
  in
  let count = List.length labels + Queue.length parked in
  (List.rev !log, if count > 0 then Some (count, List.sort compare labels) else None)

let prop_schedule_model =
  QCheck.Test.make ~name:"Sim runs scripts in the reference (time, seq) order" ~count:500
    ~long_factor:50
    (QCheck.make ~print:print_script QCheck.Gen.(list_size (int_bound 6) step_gen))
    (fun script ->
      let queues = [| Waitq.create (); Waitq.create () |] in
      sim_outcome queues script = reference_outcome queues script)

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
          Alcotest.test_case "resumed twice" `Quick test_resumed_twice;
          Alcotest.test_case "NaN delay" `Quick test_nan_delay;
        ] );
      ("model", [ QCheck_alcotest.to_alcotest prop_schedule_model ]);
      ( "resources",
        [
          Alcotest.test_case "capacity 1 serializes" `Quick test_resource_capacity;
          Alcotest.test_case "capacity 2 pairs" `Quick test_resource_parallel;
          Alcotest.test_case "fifo handoff" `Quick test_resource_fifo_handoff;
          Alcotest.test_case "busy time" `Quick test_busy_time;
        ] );
    ]
