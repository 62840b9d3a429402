(* The paper's Figure 1: write skew on a hospital on-call roster.

     dune exec examples/doctors_oncall.exe

   A hospital requires at least one doctor on call.  Each doctor's
   "go off call" transaction checks the count first — correct in
   isolation, but under snapshot isolation two concurrent runs can both
   pass the check and leave nobody on call.  This example runs many
   concurrent off-call/on-call requests under the cooperative simulator,
   first at snapshot isolation and then at SERIALIZABLE, and audits the
   invariant continuously. *)

open Ssi_storage
module E = Ssi_engine.Engine
module Sim = Ssi_sim.Sim
module Rng = Ssi_util.Rng

let sim_config =
  (* Non-zero per-operation costs make transactions take virtual time, so
     the simulator actually interleaves them. *)
  {
    E.default_config with
    E.costs =
      { E.zero_costs with E.cpu_per_op = 100e-6; cpu_per_tuple = 5e-6; io_commit = 50e-6 };
  }

let doctors = [ "alice"; "bob"; "carol"; "dave"; "erin" ]

let setup db =
  E.create_table db ~name:"doctors" ~cols:[ "name"; "oncall" ] ~key:"name";
  E.with_txn db (fun t ->
      List.iter
        (fun d -> E.insert t ~table:"doctors" [| Value.Str d; Value.Bool true |])
        doctors)

let oncall_count t =
  List.length (E.seq_scan t ~table:"doctors" ~filter:(fun row -> Value.as_bool row.(1)) ())

let set_oncall t who flag =
  ignore
    (E.update t ~table:"doctors" ~key:(Value.Str who) ~f:(fun row ->
         [| row.(0); Value.Bool flag |]))

(* The Figure 1 transaction: go off call only if someone else remains. *)
let go_off_call t who = if oncall_count t >= 2 then set_oncall t who false

let run isolation =
  let db = E.create ~scheduler:Sim.scheduler ~config:sim_config () in
  let violations = ref 0 in
  let checks = ref 0 in
  ignore
    (Sim.run (fun () ->
         setup db;
         (* Each doctor repeatedly goes off call (if safe) and back on. *)
         List.iteri
           (fun i who ->
             let rng = Rng.make i in
             Sim.spawn (fun () ->
                 for _ = 1 to 40 do
                   (try
                      E.retry ~isolation db (fun t ->
                          go_off_call t who;
                          ignore (Rng.bool rng))
                    with E.Error (E.Serialization_failure _) -> ());
                   Sim.delay 0.001;
                   E.retry ~isolation db (fun t -> set_oncall t who true);
                   Sim.delay 0.001
                 done))
           doctors;
         (* A continuous auditor: the invariant must hold in every
            committed state. *)
         Sim.spawn (fun () ->
             for _ = 1 to 200 do
               E.with_txn ~isolation ~read_only:(isolation = E.Serializable) db (fun t ->
                   incr checks;
                   if oncall_count t < 1 then incr violations);
               Sim.delay 0.002
             done)));
  (!checks, !violations)

let () =
  Format.printf "Doctors on call (Figure 1), 5 doctors, 40 rounds each@.";
  let checks, violations = run E.Repeatable_read in
  Format.printf "snapshot isolation: %d audits, %d invariant violations@." checks violations;
  let checks, violations = run E.Serializable in
  Format.printf "SSI serializable:   %d audits, %d invariant violations@." checks violations;
  if violations > 0 then exit 1
