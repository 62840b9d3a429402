open Ssi_util.Db_error

type t = { name : string; columns : string array; key_index : int }

let make ~name ~cols ~key =
  let columns = Array.of_list cols in
  let seen = Hashtbl.create (Array.length columns) in
  Array.iter
    (fun c ->
      if Hashtbl.mem seen c then
        raise (Error (Duplicate_object ("Schema.make: duplicate column " ^ c)));
      Hashtbl.add seen c ())
    columns;
  let key_index =
    let found = ref (-1) in
    Array.iteri (fun i c -> if c = key then found := i) columns;
    if !found < 0 then raise (Error (Undefined_object ("Schema.make: unknown key column " ^ key)));
    !found
  in
  { name; columns; key_index }

let name t = t.name
let columns t = t.columns
let arity t = Array.length t.columns
let key_index t = t.key_index

let column_index t col =
  let found = ref (-1) in
  Array.iteri (fun i c -> if c = col then found := i) t.columns;
  if !found < 0 then raise Not_found;
  !found

let key_of_row t row = row.(t.key_index)

let check_row t row =
  if Array.length row <> arity t then
    Printf.ksprintf (fun m -> raise (Error (Invalid_request m)))
      "Schema.check_row: table %s expects %d columns, got %d" t.name (arity t) (Array.length row)

let pp ppf t =
  Format.fprintf ppf "%s(%s)" t.name (String.concat ", " (Array.to_list t.columns))
