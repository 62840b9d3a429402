module type S = sig
  type cfg
  type outcome

  val header : cfg -> string
  val run : cfg -> outcome
  val pp : Format.formatter -> outcome -> unit
  val ok : outcome -> bool
end

module Dsg = Ssi_check.Dsg

let history_violation name histories =
  match Dsg.check histories with
  | Error cycle -> Some (Printf.sprintf "%s DSG is cyclic\n%s" name (Dsg.pp_cycle cycle))
  | Ok () -> Option.map (fun e -> name ^ ": " ^ e) (Dsg.stale_read histories)

let lineage old ~promote_cseq promoted =
  List.filter (fun (t : Ssi_engine.Recorded.txn) -> t.cseq <= promote_cseq) old @ promoted

(* Equal digests of the [Marshal] images: byte-identical outcomes. *)
let fingerprint o = Digest.string (Marshal.to_string o [])

type 'o verdict = { outcome : 'o; ok : bool; identical : bool; exit_code : int }

let replay (type c o) (module M : S with type cfg = c and type outcome = o) cfg =
  let outcome = M.run cfg in
  let identical = fingerprint outcome = fingerprint (M.run cfg) in
  let ok = M.ok outcome in
  { outcome; ok; identical; exit_code = (if ok && identical then 0 else 1) }

let main (type c o) (module M : S with type cfg = c and type outcome = o) cfg =
  Format.printf "%s@?" (M.header cfg);
  let v = replay (module M) cfg in
  Format.printf "%a" M.pp v.outcome;
  Format.printf "replay: %s@."
    (if v.identical then "byte-identical" else "DIVERGED from the first run");
  v.exit_code
