type ty = T_int | T_bool | T_unit

let ty_to_string = function T_int -> "int" | T_bool -> "bool" | T_unit -> "unit"

type error = { message : string }

let pp_error fmt e = Format.pp_print_string fmt e.message

exception Type_error of string

let err fmt = Printf.ksprintf (fun message -> raise (Type_error message)) fmt

module Smap = Map.Make (String)

type binding = { b_ty : ty; b_mutable : bool }

(* Environment: locals in scope, the function table, and — while checking a
   recursive function body — the assumed return type of the function itself. *)
type ctx = {
  schema : Schema.t;
  locals : binding Smap.t;
  funs : Ast.fundef Smap.t;
  fun_returns : ty Smap.t;  (* known return types *)
  checking : string list;  (* stack of functions currently being checked *)
}

let lookup_field ctx ent name =
  match Schema.find_field ctx.schema ent name with
  | Some f -> f
  | None -> err "entity %s has no field %S" (Ast.entity_to_string ent) name

let lookup_array ctx ent name =
  match Schema.find_array ctx.schema ent name with
  | Some a -> a
  | None -> err "entity %s has no array %S" (Ast.entity_to_string ent) name

let expect what expected found =
  if expected <> found then
    err "%s: expected %s, found %s" what (ty_to_string expected) (ty_to_string found)

let rec infer ctx (e : Ast.expr) : ty =
  match e with
  | Int _ -> T_int
  | Bool _ -> T_bool
  | Unit -> T_unit
  | Var x -> (
    match Smap.find_opt x ctx.locals with
    | Some b -> b.b_ty
    | None -> err "unbound variable %S" x)
  | Field (ent, name) ->
    ignore (lookup_field ctx ent name);
    T_int
  | Arr_get (ent, name, idx) ->
    ignore (lookup_array ctx ent name);
    expect "array index" T_int (infer ctx idx);
    T_int
  | Arr_len (ent, name) ->
    ignore (lookup_array ctx ent name);
    T_int
  | Let { name; mutable_; rhs; body } ->
    let rhs_ty = infer ctx rhs in
    if rhs_ty = T_unit then err "let %s: cannot bind unit" name;
    let locals = Smap.add name { b_ty = rhs_ty; b_mutable = mutable_ } ctx.locals in
    infer { ctx with locals } body
  | Assign (x, rhs) -> (
    match Smap.find_opt x ctx.locals with
    | None -> err "assignment to unbound variable %S" x
    | Some b ->
      if not b.b_mutable then err "assignment to immutable variable %S" x;
      expect (Printf.sprintf "assignment to %s" x) b.b_ty (infer ctx rhs);
      T_unit)
  | Set_field (ent, name, rhs) ->
    let f = lookup_field ctx ent name in
    if f.f_access = Schema.Read_only then
      err "field %s.%s is read-only" (Ast.entity_to_string ent) name;
    expect (Printf.sprintf "%s.%s <-" (Ast.entity_to_string ent) name) T_int
      (infer ctx rhs);
    T_unit
  | Arr_set (ent, name, idx, rhs) ->
    let a = lookup_array ctx ent name in
    if a.a_access = Schema.Read_only then
      err "array %s.%s is read-only" (Ast.entity_to_string ent) name;
    expect "array index" T_int (infer ctx idx);
    expect "array element" T_int (infer ctx rhs);
    T_unit
  | If (cond, then_, else_) ->
    expect "if condition" T_bool (infer ctx cond);
    let t1 = infer ctx then_ in
    let t2 = infer ctx else_ in
    if t1 <> t2 then
      err "if branches disagree: %s vs %s" (ty_to_string t1) (ty_to_string t2);
    t1
  | While (cond, body) ->
    expect "while condition" T_bool (infer ctx cond);
    expect "while body" T_unit (infer ctx body);
    T_unit
  | Seq (a, b) ->
    expect "sequence left-hand side" T_unit (infer ctx a);
    infer ctx b
  | Binop (op, a, b) -> (
    let ta = infer ctx a in
    let tb = infer ctx b in
    match op with
    | Add | Sub | Mul | Div | Rem | Band | Bor | Bxor | Shl | Shr ->
      expect "arithmetic operand" T_int ta;
      expect "arithmetic operand" T_int tb;
      T_int
    | And | Or ->
      expect "boolean operand" T_bool ta;
      expect "boolean operand" T_bool tb;
      T_bool
    | Eq | Ne | Lt | Le | Gt | Ge ->
      expect "comparison operand" T_int ta;
      expect "comparison operand" T_int tb;
      T_bool)
  | Unop (Neg, a) ->
    expect "negation operand" T_int (infer ctx a);
    T_int
  | Unop (Not, a) ->
    expect "not operand" T_bool (infer ctx a);
    T_bool
  | Call (fn, args) -> (
    match Smap.find_opt fn ctx.funs with
    | None -> err "call to undefined function %S" fn
    | Some fd ->
      let n_params = List.length fd.fn_params in
      let n_args = List.length args in
      if n_params <> n_args then
        err "function %S expects %d argument(s), got %d" fn n_params n_args;
      List.iter (fun a -> expect "function argument" T_int (infer ctx a)) args;
      return_type ctx fn fd)
  | Rand bound ->
    expect "rand bound" T_int (infer ctx bound);
    T_int
  | Clock -> T_int
  | Hash (a, b) ->
    expect "hash operand" T_int (infer ctx a);
    expect "hash operand" T_int (infer ctx b);
    T_int

and return_type ctx fn fd =
  match Smap.find_opt fn ctx.fun_returns with
  | Some ty -> ty
  | None ->
    if List.mem fn ctx.checking then
      (* Recursive occurrence: recursive functions return int by convention
         (the only recursive functions the compiler accepts are loop-shaped
         integer searches). *)
      T_int
    else begin
      let locals =
        List.fold_left
          (fun acc p -> Smap.add p { b_ty = T_int; b_mutable = false } acc)
          Smap.empty fd.fn_params
      in
      let ty =
        infer { ctx with locals; checking = fn :: ctx.checking } fd.fn_body
      in
      ty
    end

let initial_ctx schema (t : Ast.t) =
  let funs =
    List.fold_left
      (fun acc (fd : Ast.fundef) ->
        if Smap.mem fd.fn_name acc then err "duplicate function %S" fd.fn_name
        else Smap.add fd.fn_name fd acc)
      Smap.empty t.af_funs
  in
  { schema; locals = Smap.empty; funs; fun_returns = Smap.empty; checking = [] }

let check schema t =
  try
    let ctx = initial_ctx schema t in
    (* Check every auxiliary function even if unused. *)
    Smap.iter (fun name fd -> ignore (return_type ctx name fd)) ctx.funs;
    let body_ty = infer ctx t.af_body in
    if body_ty <> T_unit then
      err "action body must have type unit, found %s" (ty_to_string body_ty);
    Ok ()
  with Type_error message -> Error { message }

