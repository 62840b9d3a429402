(* What an engine's recorder hands out: one committed transaction's reads
   and writes, in the terms the DSG checker needs.  See recorded.mli. *)

open Ssi_storage

type read =
  | Point of { rel : string; key : Value.t; version : int option; horizon : int }
  | Scan of {
      rel : string;
      range : (string * Value.t * Value.t) option;
      horizon : int;
      own : Value.t list;
    }

type write = {
  rel : string;
  key : Value.t;
  old_keys : (string * Value.t) list;
  new_keys : (string * Value.t) list;
}

type txn = { xid : int; gid : string option; cseq : int; reads : read list; writes : write list }

let pp_read ppf = function
  | Point { rel; key; version; horizon } ->
      Format.fprintf ppf "%s[%a]@%s/h%d" rel Value.pp key
        (match version with Some x -> string_of_int x | None -> "absent")
        horizon
  | Scan { rel; range = None; horizon; own = _ } -> Format.fprintf ppf "%s[*]/h%d" rel horizon
  | Scan { rel = _; range = Some (index, lo, hi); horizon; own = _ } ->
      Format.fprintf ppf "%s[%a..%a]/h%d" index Value.pp lo Value.pp hi horizon

let pp_write ppf w =
  Format.fprintf ppf "%s[%a]%s" w.rel Value.pp w.key
    (match w.new_keys with [] -> "(deleted)" | _ :: _ -> "")
