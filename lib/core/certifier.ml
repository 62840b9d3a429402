(* The pluggable serializability certifier: the signature and shared types
   of [Certifier_intf], the kind names, and [make], which packs the chosen
   implementation with its instance once per engine. *)

module Obs = Ssi_obs.Obs
include Certifier_intf

let all_kinds = [ SSI; SSN; ESSN ]
let kind_to_string = function SSI -> "ssi" | SSN -> "ssn" | ESSN -> "essn"

(* The metric/event namespace each certifier reports under:
   [<prefix>.conflicts], [<prefix>.victims.<slug>], [<prefix>.fail], ... *)
let prefix = kind_to_string

type packed = Cert : (module S with type t = 'c and type node = 'n) * 'c -> packed

let make ?(config = default_config) ?(obs = Obs.create ()) clog =
  match config.kind with
  | SSI -> Cert ((module Ssi), Ssi.create ~config ~obs clog)
  | SSN -> Cert ((module Ssn), Ssn.create ~config ~obs ~extended:false clog)
  | ESSN -> Cert ((module Ssn), Ssn.create ~config ~obs ~extended:true clog)

let graph_dot kind infos =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "digraph %s {\n  rankdir=LR;\n" (prefix kind));
  List.iter
    (fun info ->
      Buffer.add_string buf
        (Printf.sprintf "  t%d [label=\"T%d\\n%s%s\"%s];\n" info.info_xid info.info_xid
           info.info_status
           (if info.info_doomed then " (doomed)" else "")
           (if info.info_doomed then " color=red" else ""));
      List.iter
        (fun w ->
          Buffer.add_string buf
            (Printf.sprintf "  t%d -> t%d [label=\"rw\"];\n" info.info_xid w))
        info.info_out)
    infos;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
