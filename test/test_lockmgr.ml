(* Heavyweight lock manager: compatibility matrix, blocking under the
   simulator, FIFO fairness, deadlock detection, release. *)

open Ssi_storage
module Lockmgr = Ssi_lockmgr.Lockmgr
module Sim = Ssi_sim.Sim
open Lockmgr

let rel = Relation "t"
let tup k = Tuple ("t", Value.Int k)

(* ---- Matrix ------------------------------------------------------------------ *)

let test_compat_matrix () =
  let cases =
    [
      (IS, IS, true); (IS, IX, true); (IS, S, true); (IS, SIX, true); (IS, X, false);
      (IX, IX, true); (IX, S, false); (IX, SIX, false); (IX, X, false);
      (S, S, true); (S, SIX, false); (S, X, false);
      (SIX, SIX, false); (SIX, X, false);
      (X, X, false);
    ]
  in
  List.iter
    (fun (a, b, expect) ->
      let name = Format.asprintf "%a/%a" pp_mode a pp_mode b in
      Alcotest.(check bool) name expect (compatible a b);
      Alcotest.(check bool) (name ^ " symmetric") expect (compatible b a))
    cases

let test_covers () =
  Alcotest.(check bool) "X covers S" true (covers X S);
  Alcotest.(check bool) "SIX covers S" true (covers SIX S);
  Alcotest.(check bool) "SIX covers IX" true (covers SIX IX);
  Alcotest.(check bool) "S does not cover IX" false (covers S IX);
  Alcotest.(check bool) "IS covers only IS" true (covers IS IS && not (covers IS S))

(* ---- Direct (non-blocking) use ----------------------------------------------- *)

let test_grant_and_reacquire () =
  let lm = create Ssi_util.Waitq.direct in
  acquire lm ~owner:1 rel IS;
  acquire lm ~owner:1 rel IS;
  acquire lm ~owner:2 rel IX;
  Alcotest.(check int) "two holdings" 2 (lock_count lm);
  Alcotest.(check bool) "holds" true (holds lm ~owner:1 rel IS);
  Alcotest.(check bool) "covered request is no-op" true
    (try_acquire lm ~owner:1 rel IS)

let test_direct_conflict_raises () =
  let lm = create Ssi_util.Waitq.direct in
  acquire lm ~owner:1 (tup 1) X;
  Alcotest.check_raises "would block" Ssi_util.Waitq.Would_block (fun () ->
      acquire lm ~owner:2 (tup 1) S)

let test_try_acquire () =
  let lm = create Ssi_util.Waitq.direct in
  acquire lm ~owner:1 (tup 1) X;
  Alcotest.(check bool) "try fails on conflict" false (try_acquire lm ~owner:2 (tup 1) S);
  Alcotest.(check bool) "try succeeds elsewhere" true (try_acquire lm ~owner:2 (tup 2) S)

let test_release_all () =
  let lm = create Ssi_util.Waitq.direct in
  acquire lm ~owner:1 rel IX;
  acquire lm ~owner:1 (tup 1) X;
  acquire lm ~owner:1 (tup 2) X;
  release_all lm ~owner:1;
  Alcotest.(check int) "all gone" 0 (lock_count lm);
  Alcotest.(check bool) "free again" true (try_acquire lm ~owner:2 (tup 1) X)

(* An uncontended acquire formats nothing and builds no debug closure: one
   intention lock, one tuple lock and their release stay within a tight
   allocation budget (169 words per cycle with OCaml 5.1, no flambda). *)
let test_untraced_allocation () =
  let lm = create Ssi_util.Waitq.direct in
  let cycle k =
    acquire lm ~owner:1 rel IX;
    acquire lm ~owner:1 (tup k) X;
    release_all lm ~owner:1
  in
  cycle 0;
  let rounds = 1000 in
  let before = Gc.minor_words () in
  for k = 1 to rounds do
    cycle k
  done;
  let words = (Gc.minor_words () -. before) /. float rounds in
  if words > 176. then Alcotest.failf "%.1f words per acquire/acquire/release (budget 176)" words

(* ---- Blocking under the simulator ----------------------------------------------- *)

let test_blocking_grant () =
  let events = ref [] in
  ignore
    (Sim.run (fun () ->
         let lm = create Sim.scheduler in
         Sim.spawn (fun () ->
             acquire lm ~owner:1 (tup 1) X;
             Sim.delay 2.0;
             release_all lm ~owner:1;
             events := ("released", Sim.now ()) :: !events);
         Sim.spawn (fun () ->
             Sim.delay 0.5;
             acquire lm ~owner:2 (tup 1) S;
             events := ("granted", Sim.now ()) :: !events)));
  Alcotest.(check bool) "reader waited for writer" true
    (List.assoc "granted" !events >= 2.0)

let test_fifo_no_starvation () =
  (* S, then X waits, then another S: the second S must queue behind the X
     rather than overtaking it. *)
  let order = ref [] in
  ignore
    (Sim.run (fun () ->
         let lm = create Sim.scheduler in
         Sim.spawn (fun () ->
             acquire lm ~owner:1 (tup 1) S;
             Sim.delay 1.0;
             release_all lm ~owner:1);
         Sim.spawn (fun () ->
             Sim.delay 0.1;
             acquire lm ~owner:2 (tup 1) X;
             order := 2 :: !order;
             Sim.delay 0.5;
             release_all lm ~owner:2);
         Sim.spawn (fun () ->
             Sim.delay 0.2;
             acquire lm ~owner:3 (tup 1) S;
             order := 3 :: !order;
             release_all lm ~owner:3)));
  Alcotest.(check (list int)) "writer first" [ 2; 3 ] (List.rev !order)

let test_deadlock_detected () =
  (* Owner 1 waits for owner 2 first; when owner 2's request would close
     the cycle, owner 2 (the requester) is the victim. *)
  let deadlocked = ref None in
  ignore
    (Sim.run (fun () ->
         let lm = create Sim.scheduler in
         Sim.spawn (fun () ->
             acquire lm ~owner:1 (tup 1) X;
             Sim.delay 0.2;
             acquire lm ~owner:1 (tup 2) X;
             release_all lm ~owner:1);
         Sim.spawn (fun () ->
             acquire lm ~owner:2 (tup 2) X;
             Sim.delay 0.5;
             (try acquire lm ~owner:2 (tup 1) X
              with Deadlock { victim; _ } -> deadlocked := Some victim);
             release_all lm ~owner:2)));
  Alcotest.(check (option int)) "requester is the victim" (Some 2) !deadlocked

let test_upgrade_deadlock () =
  (* Two owners hold S and both request X: a classic upgrade deadlock. *)
  let failures = ref 0 in
  ignore
    (Sim.run (fun () ->
         let lm = create Sim.scheduler in
         for i = 1 to 2 do
           Sim.spawn (fun () ->
               acquire lm ~owner:i (tup 1) S;
               Sim.delay 0.1;
               (try
                  acquire lm ~owner:i (tup 1) X;
                  Sim.delay 0.1
                with Deadlock _ -> incr failures);
               release_all lm ~owner:i)
         done));
  Alcotest.(check int) "one of the upgraders aborted" 1 !failures

let test_waiting_count () =
  ignore
    (Sim.run (fun () ->
         let lm = create Sim.scheduler in
         Sim.spawn (fun () ->
             acquire lm ~owner:1 (tup 1) X;
             Sim.delay 1.0;
             release_all lm ~owner:1);
         Sim.spawn (fun () ->
             Sim.delay 0.2;
             acquire lm ~owner:2 (tup 1) S;
             release_all lm ~owner:2);
         Sim.spawn (fun () ->
             Sim.delay 0.5;
             Alcotest.(check int) "one waiter mid-flight" 1 (waiting_count lm))))

let test_held_by () =
  let lm = create Ssi_util.Waitq.direct in
  acquire lm ~owner:1 rel IS;
  acquire lm ~owner:2 rel IX;
  let holders = List.sort compare (held_by lm rel) in
  Alcotest.(check bool) "both holders" true (holders = [ (1, IS); (2, IX) ])

let () =
  Alcotest.run "lockmgr"
    [
      ( "matrix",
        [
          Alcotest.test_case "compatibility" `Quick test_compat_matrix;
          Alcotest.test_case "covers" `Quick test_covers;
        ] );
      ( "direct",
        [
          Alcotest.test_case "grant and reacquire" `Quick test_grant_and_reacquire;
          Alcotest.test_case "conflict raises" `Quick test_direct_conflict_raises;
          Alcotest.test_case "try_acquire" `Quick test_try_acquire;
          Alcotest.test_case "release_all" `Quick test_release_all;
          Alcotest.test_case "untraced allocation" `Quick test_untraced_allocation;
        ] );
      ( "blocking",
        [
          Alcotest.test_case "waits for release" `Quick test_blocking_grant;
          Alcotest.test_case "fifo fairness" `Quick test_fifo_no_starvation;
          Alcotest.test_case "deadlock detection" `Quick test_deadlock_detected;
          Alcotest.test_case "upgrade deadlock" `Quick test_upgrade_deadlock;
          Alcotest.test_case "waiting count" `Quick test_waiting_count;
          Alcotest.test_case "held_by" `Quick test_held_by;
        ] );
    ]
