(* Heavyweight lock manager: compatibility matrix, blocking under the
   simulator, FIFO fairness, deadlock detection, release. *)

open Ssi_storage
module Lockmgr = Ssi_lockmgr.Lockmgr
module Sim = Ssi_sim.Sim
open Lockmgr

let lock_not_available = Ssi_util.Db_error.(Error Lock_not_available)
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
  Alcotest.check_raises "would block" lock_not_available (fun () ->
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

(* An uncontended acquire formats nothing and builds no debug closure, and
   once the record pools hold what one transaction takes, an intention
   lock, a fresh tuple lock and their release allocate nothing at all:
   the lock records, the holdings and the owner's entry are recycled.
   The targets are built beforehand, as a caller that keeps them would. *)
let test_untraced_allocation () =
  let lm = create Ssi_util.Waitq.direct in
  let tuples = Array.init 64 tup in
  let cycle k =
    acquire lm ~owner:k rel IX;
    acquire lm ~owner:k tuples.(k land 63) X;
    release_all lm ~owner:k
  in
  cycle 0;
  let rounds = 1000 in
  let before = Gc.minor_words () in
  for k = 1 to rounds do
    cycle k
  done;
  let words = (Gc.minor_words () -. before) /. float rounds in
  Alcotest.(check int) "all released" 0 (lock_count lm);
  if Float.round words > 0. then
    Alcotest.failf "%.1f words per acquire/acquire/release (budget 0)" words

(* Minor words [f] allocates per call, over enough calls that the
   measurement's own boxing rounds away. *)
let words_per_call f =
  let rounds = 10_000 in
  let before = Gc.minor_words () in
  for _ = 1 to rounds do
    f ()
  done;
  Float.round ((Gc.minor_words () -. before) /. float rounds)

(* The table lookup, the coverage check and a miss allocate nothing: no
   hashing tuple, no option and no closure. *)
let test_lookup_allocation () =
  let lm = create Ssi_util.Waitq.direct in
  let held = tup 3 and absent = Tuple ("t", Value.Float 4.5) in
  acquire lm ~owner:1 held X;
  Alcotest.(check (float 0.)) "re-acquire a held target" 0.
    (words_per_call (fun () -> acquire lm ~owner:1 held S));
  Alcotest.(check (float 0.)) "holds miss" 0.
    (words_per_call (fun () -> ignore (holds lm ~owner:1 absent S)))

(* ---- Model ------------------------------------------------------------------- *)

(* Random acquire / try_acquire / release_all under the direct scheduler,
   against a list of (owner, mode) holders per target.  [Int 3] and
   [Float 3.0] are one target, as [Value.equal] says. *)
let targets =
  [|
    rel; tup 3; Tuple ("t", Value.Float 3.0); tup 4; Page ("t", 3); Index_page ("t", 3);
  |]

let canonical i = if i = 2 then 1 else i
let modes = [ IS; IX; S; SIX; X ]

type op = Acquire of int * int * mode | Try of int * int * mode | Release of int

let print_op =
  let show o i m = Printf.sprintf "%d %s %s" o (target_to_string targets.(i)) (mode_to_string m) in
  function
  | Acquire (o, i, m) -> "acquire " ^ show o i m
  | Try (o, i, m) -> "try " ^ show o i m
  | Release o -> Printf.sprintf "release %d" o

let op_gen =
  QCheck.Gen.(
    let owner = int_range 1 3 and target = int_bound (Array.length targets - 1) in
    let mode = oneofl modes in
    frequency
      [
        (4, map3 (fun o i m -> Acquire (o, i, m)) owner target mode);
        (2, map3 (fun o i m -> Try (o, i, m)) owner target mode);
        (1, map (fun o -> Release o) owner);
      ])

let prop_model =
  QCheck.Test.make ~name:"lockmgr matches a holder-list model" ~count:300 ~long_factor:50
    (QCheck.make ~print:QCheck.Print.(list print_op) QCheck.Gen.(list_size (int_range 0 60) op_gen))
    (fun ops ->
      let lm = create Ssi_util.Waitq.direct in
      let model = Array.make (Array.length targets) [] in
      let covered hs o m = List.exists (fun (o', m') -> o' = o && covers m' m) hs in
      let grantable o i m =
        let hs = model.(canonical i) in
        covered hs o m || not (List.exists (fun (o', m') -> o' <> o && not (compatible m' m)) hs)
      in
      let grant o i m =
        let hs = model.(canonical i) in
        if not (covered hs o m) then model.(canonical i) <- (o, m) :: hs
      in
      let agrees () =
        List.for_all
          (fun i ->
            let t = targets.(i) and hs = model.(canonical i) in
            List.sort compare (held_by lm t) = List.sort compare hs
            && List.for_all
                 (fun o -> List.for_all (fun m -> holds lm ~owner:o t m = covered hs o m) modes)
                 [ 1; 2; 3 ])
          (List.init (Array.length targets) Fun.id)
        && lock_count lm = Array.fold_left (fun n hs -> n + List.length hs) 0 model
        && waiting_count lm = 0
      in
      List.for_all
        (fun op ->
          let outcome_ok =
            match op with
            | Acquire (o, i, m) -> (
                let expect = grantable o i m in
                match acquire lm ~owner:o targets.(i) m with
                | () ->
                    grant o i m;
                    expect
                | exception Ssi_util.Db_error.Error Lock_not_available -> not expect)
            | Try (o, i, m) ->
                let expect = grantable o i m in
                let got = try_acquire lm ~owner:o targets.(i) m in
                if got then grant o i m;
                got = expect
            | Release o ->
                release_all lm ~owner:o;
                Array.iteri
                  (fun i hs -> model.(i) <- List.filter (fun (o', _) -> o' <> o) hs)
                  model;
                true
          in
          outcome_ok && agrees ())
        ops)

(* ---- Blocking model ----------------------------------------------------------------- *)

(* Random scripts of several owners at once under [Sim], so requests
   really wait: they reach the FIFO queue, deadlock withdrawal, and waits
   interrupted by a timeout, which may come before the grant (the request
   leaves the middle of the queue) or after it (the owner keeps the
   lock).  Everything happens at whole ticks; between two ticks every
   woken owner has run, and the lock table must agree with a model of
   what each owner was granted. *)

exception Timed_out of bool  (** whether the grant had already arrived *)

type step =
  | Want of int * mode * int option  (** target, mode, timeout in ticks *)
  | Pause of int
  | Quit  (** [release_all], as a commit or an abort does *)

let print_step = function
  | Want (i, m, t) ->
      Printf.sprintf "want %s %s%s" (target_to_string targets.(i)) (mode_to_string m)
        (match t with None -> "" | Some n -> Printf.sprintf " within %d" n)
  | Pause n -> Printf.sprintf "pause %d" n
  | Quit -> "quit"

let step_gen =
  QCheck.Gen.(
    let target = int_bound (Array.length targets - 1) and mode = oneofl modes in
    let limit = frequency [ (3, return None); (1, map Option.some (int_range 1 3)) ] in
    frequency
      [
        (6, map3 (fun i m t -> Want (i, m, t)) target mode limit);
        (2, map (fun n -> Pause n) (int_range 1 3));
        (1, return Quit);
      ])

let scripts_arb =
  QCheck.make
    ~print:(fun scripts ->
      String.concat "\n"
        (Array.to_list
           (Array.mapi
              (fun i s ->
                Printf.sprintf "owner %d: %s" (i + 1) (String.concat "; " (List.map print_step s)))
              scripts)))
    QCheck.Gen.(
      int_range 2 4 >>= fun n -> array_repeat n (list_size (int_range 1 12) step_gen))

(* [Sim.wait], or when [limit] holds a number of ticks, a wait that
   raises [Timed_out] if no wake came first. *)
let timed_suspend limit q =
  match !limit with
  | None -> Sim.wait q
  | Some ticks ->
      limit := None;
      let settled = ref false and expired = ref false and granted = ref false in
      Sim.suspend (fun resume ->
          Ssi_util.Waitq.enqueue q (fun () ->
              granted := true;
              if not !settled then begin
                settled := true;
                resume ()
              end);
          Sim.at ~after:(float ticks) (fun () ->
              if not !settled then begin
                settled := true;
                expired := true;
                resume ()
              end));
      if !expired then raise (Timed_out !granted)

let canonical_targets =
  List.filter (fun i -> canonical i = i) (List.init (Array.length targets) Fun.id)

let prop_blocking_model =
  QCheck.Test.make ~name:"lockmgr keeps its invariants while requests wait" ~count:200
    ~long_factor:50 scripts_arb (fun scripts ->
      let n = Array.length scripts in
      let limit = ref None in
      let lm = create { Sim.scheduler with Ssi_util.Waitq.suspend = timed_suspend limit } in
      (* The model: what each owner was granted, and its request in flight
         (issue order, target, mode). *)
      let granted = Array.make n [] and in_flight = Array.make n None in
      let issued = ref 0 and running = ref n and ok = ref true in
      let check b = if not b then ok := false in
      let owner i = i + 1 in
      let covered i c m = List.exists (fun (c', m') -> c' = c && covers m' m) granted.(i) in
      let grant i c m = if not (covered i c m) then granted.(i) <- (c, m) :: granted.(i) in
      (* FIFO: no older request of another owner for the same target, in
         an incompatible mode, is still waiting. *)
      let fifo i (seq, c, m) =
        let ahead j = function
          | Some (seq', c', m') -> j <> i && c' = c && seq' < seq && not (compatible m' m)
          | None -> false
        in
        not (Array.exists Fun.id (Array.mapi ahead in_flight))
      in
      let agrees () =
        List.for_all
          (fun c ->
            let holders = held_by lm targets.(c) in
            let model =
              List.concat
                (List.mapi
                   (fun i hs ->
                     List.filter_map (fun (c', m) -> if c' = c then Some (owner i, m) else None) hs)
                   (Array.to_list granted))
            in
            List.sort compare holders = List.sort compare model
            && List.for_all
                 (fun (o, m) -> List.for_all (fun (o', m') -> o = o' || compatible m m') holders)
                 holders)
          canonical_targets
        && waiting_count lm = Array.fold_left (fun k r -> if r = None then k else k + 1) 0 in_flight
      in
      let quit i =
        release_all lm ~owner:(owner i);
        granted.(i) <- []
      in
      let run i script =
        List.iter
          (function
            | Pause ticks -> Sim.delay (float ticks)
            | Quit ->
                quit i;
                Sim.delay 1.
            | Want (t, m, l) ->
                let c = canonical t in
                if covered i c m then acquire lm ~owner:(owner i) targets.(t) m
                else begin
                  incr issued;
                  let req = (!issued, c, m) in
                  in_flight.(i) <- Some req;
                  limit := l;
                  (match acquire lm ~owner:(owner i) targets.(t) m with
                  | () ->
                      in_flight.(i) <- None;
                      check (fifo i req);
                      grant i c m
                  | exception Deadlock { victim; _ } ->
                      in_flight.(i) <- None;
                      check (victim = owner i);
                      quit i
                  | exception Timed_out arrived ->
                      in_flight.(i) <- None;
                      if arrived then grant i c m);
                  limit := None
                end;
                Sim.delay 1.)
          script;
        quit i;
        decr running
      in
      (* Every script is over long before tick 1000 unless an owner is
         stuck, which [Sim.run] then reports. *)
      let rec monitor () =
        if !running > 0 && Sim.now () < 1000. then begin
          check (agrees ());
          Sim.delay 1.;
          monitor ()
        end
      in
      ignore
        (Sim.run (fun () ->
             Array.iteri (fun i script -> Sim.spawn (fun () -> run i script)) scripts;
             Sim.spawn (fun () ->
                 Sim.delay 0.5;
                 monitor ())));
      (* Once everyone has released, nothing is held or waiting, and the
         recycled records come back empty. *)
      !ok && lock_count lm = 0 && waiting_count lm = 0
      && begin
           acquire lm ~owner:99 rel IX;
           acquire lm ~owner:99 (tup 3) X;
           let fresh = held_by lm rel = [ (99, IX) ] && held_by lm (tup 3) = [ (99, X) ] in
           release_all lm ~owner:99;
           fresh && lock_count lm = 0
         end)

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

(* Owners 1, 2 and 3 each hold one tuple and then ask for the next one's:
   the third request closes the cycle, so its owner is the victim and the
   reported cycle names all three. *)
let test_three_owner_cycle () =
  let deadlocks = ref [] and finished = ref [] in
  ignore
    (Sim.run (fun () ->
         let lm = create Sim.scheduler in
         for i = 1 to 3 do
           Sim.spawn (fun () ->
               acquire lm ~owner:i (tup i) X;
               Sim.delay (0.1 *. float i);
               (try acquire lm ~owner:i (tup ((i mod 3) + 1)) X
                with Deadlock { victim; cycle } ->
                  deadlocks := (victim, List.sort compare cycle) :: !deadlocks);
               Sim.delay 0.1;
               release_all lm ~owner:i;
               finished := i :: !finished)
         done));
  Alcotest.(check (list (pair int (list int)))) "one deadlock, owner 3 the victim"
    [ (3, [ 1; 2; 3 ]) ] !deadlocks;
  Alcotest.(check (list int)) "everyone finishes" [ 1; 2; 3 ] (List.sort compare !finished)

(* A chain 3 -> 2 -> 1 with no edge back is a wait, not a deadlock: the
   locks are handed down the chain as each owner releases. *)
let test_wait_chain () =
  let order = ref [] in
  ignore
    (Sim.run (fun () ->
         let lm = create Sim.scheduler in
         let run i ~holds ~wants =
           Sim.spawn (fun () ->
               Option.iter (fun k -> acquire lm ~owner:i (tup k) X) holds;
               Sim.delay 0.1;
               Option.iter (fun k -> acquire lm ~owner:i (tup k) X) wants;
               Sim.delay 0.1;
               release_all lm ~owner:i;
               order := i :: !order)
         in
         run 1 ~holds:(Some 1) ~wants:None;
         run 2 ~holds:(Some 2) ~wants:(Some 1);
         run 3 ~holds:None ~wants:(Some 2)));
  Alcotest.(check (list int)) "released down the chain" [ 1; 2; 3 ] (List.rev !order)

(* Owner 3's S request on tuple 1 is compatible with the holder (owner 1's
   S) but queued behind owner 2's X, so 3 waits for 2, a waiter rather than
   a holder.  Owner 1 then asks for tuple 2, which 3 holds: the cycle
   1 -> 3 -> 2 -> 1 closes only through that queued-ahead edge. *)
let test_cycle_through_queued_waiter () =
  let deadlocks = ref [] and finished = ref [] in
  ignore
    (Sim.run (fun () ->
         let lm = create Sim.scheduler in
         let step i f =
           Sim.spawn (fun () ->
               (try f () with Deadlock { victim; cycle } ->
                  deadlocks := (victim, List.sort compare cycle) :: !deadlocks);
               release_all lm ~owner:i;
               finished := i :: !finished)
         in
         step 1 (fun () ->
             acquire lm ~owner:1 (tup 1) S;
             Sim.delay 0.3;
             acquire lm ~owner:1 (tup 2) S);
         step 2 (fun () ->
             Sim.delay 0.1;
             acquire lm ~owner:2 (tup 1) X);
         step 3 (fun () ->
             acquire lm ~owner:3 (tup 2) X;
             Sim.delay 0.2;
             acquire lm ~owner:3 (tup 1) S)));
  Alcotest.(check (list (pair int (list int)))) "owner 1 is the victim"
    [ (1, [ 1; 2; 3 ]) ] !deadlocks;
  Alcotest.(check (list int)) "everyone finishes" [ 1; 2; 3 ] (List.sort compare !finished)

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
          Alcotest.test_case "lookup allocation" `Quick test_lookup_allocation;
        ] );
      ("model", List.map QCheck_alcotest.to_alcotest [ prop_model; prop_blocking_model ]);
      ( "blocking",
        [
          Alcotest.test_case "waits for release" `Quick test_blocking_grant;
          Alcotest.test_case "fifo fairness" `Quick test_fifo_no_starvation;
          Alcotest.test_case "deadlock detection" `Quick test_deadlock_detected;
          Alcotest.test_case "upgrade deadlock" `Quick test_upgrade_deadlock;
          Alcotest.test_case "three-owner cycle" `Quick test_three_owner_cycle;
          Alcotest.test_case "wait chain" `Quick test_wait_chain;
          Alcotest.test_case "cycle through a queued waiter" `Quick
            test_cycle_through_queued_waiter;
          Alcotest.test_case "waiting count" `Quick test_waiting_count;
          Alcotest.test_case "held_by" `Quick test_held_by;
        ] );
    ]
