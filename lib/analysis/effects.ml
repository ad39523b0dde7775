module Ast = Eden_lang.Ast
module Schema = Eden_lang.Schema

type access = [ `Read | `Write ]

type footprint = {
  fields : (Ast.entity * string * access) list;
  arrays : (Ast.entity * string * access) list;
  uses_rand : bool;
  uses_clock : bool;
  uses_hash : bool;
}

let fold_action f acc (a : Ast.t) =
  let acc =
    List.fold_left (fun acc fd -> Ast.fold_expr f acc fd.Ast.fn_body) acc a.Ast.af_funs
  in
  Ast.fold_expr f acc a.Ast.af_body

let of_action (a : Ast.t) =
  let uses p = fold_action (fun found e -> found || p e) false a in
  {
    fields = Ast.fields_used a;
    arrays = Ast.arrays_used a;
    uses_rand = uses (function Ast.Rand _ -> true | _ -> false);
    uses_clock = uses (function Ast.Clock -> true | _ -> false);
    uses_hash = uses (function Ast.Hash _ -> true | _ -> false);
  }

let diagnostics schema (a : Ast.t) =
  let fp = of_action a in
  let check kind find l =
    List.filter_map
      (fun (ent, name, acc) ->
        let where = Printf.sprintf "%s.%s" (Ast.entity_to_string ent) name in
        match find schema ent name with
        | None -> Some (Printf.sprintf "%s: undeclared %s" where kind)
        | Some ro when acc = `Write && ro = Schema.Read_only ->
          Some (Printf.sprintf "%s: write to read-only %s" where kind)
        | Some _ -> None)
      l
  in
  check "field"
    (fun s e n -> Option.map (fun f -> f.Schema.f_access) (Schema.find_field s e n))
    fp.fields
  @ check "array"
      (fun s e n -> Option.map (fun d -> d.Schema.a_access) (Schema.find_array s e n))
      fp.arrays

let pp_footprint fmt fp =
  let pp_item fmt (ent, name, acc) =
    Format.fprintf fmt "%s.%s (%s)" (Ast.entity_to_string ent) name
      (match acc with `Read -> "r" | `Write -> "rw")
  in
  let pp_list what l =
    if l <> [] then
      Format.fprintf fmt "  %s: %a@," what
        (Format.pp_print_list ~pp_sep:(fun f () -> Format.fprintf f ", ") pp_item)
        l
  in
  Format.fprintf fmt "@[<v>";
  pp_list "fields" fp.fields;
  pp_list "arrays" fp.arrays;
  let intrinsics =
    List.filter_map
      (fun (used, n) -> if used then Some n else None)
      [ (fp.uses_rand, "rand"); (fp.uses_clock, "clock"); (fp.uses_hash, "hash") ]
  in
  if intrinsics <> [] then
    Format.fprintf fmt "  intrinsics: %s@," (String.concat ", " intrinsics);
  Format.fprintf fmt "@]"
