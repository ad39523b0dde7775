module Ast = Eden_lang.Ast
module Schema = Eden_lang.Schema
module P = Eden_bytecode.Program

type error =
  | Rejected of string list  (** effect-analysis diagnostics *)
  | Type_error of Eden_lang.Typecheck.error
  | Compile_error of Eden_lang.Compile.error
  | Verifier_error of Eden_bytecode.Verifier.error

let error_to_string = function
  | Rejected ds -> String.concat "; " ds
  | Type_error e -> Format.asprintf "%a" Eden_lang.Typecheck.pp_error e
  | Compile_error e -> Eden_lang.Compile.error_to_string e
  | Verifier_error e -> Eden_bytecode.Verifier.error_to_string e

let pp_error fmt e = Format.pp_print_string fmt (error_to_string e)

let run schema (a : Ast.t) =
  (* Effect analysis first: name-level diagnostics beat the type
     checker's generic message when state is misused. *)
  let footprint = Effects.of_action a in
  match Effects.diagnostics schema a with
  | _ :: _ as ds -> Error (Rejected ds)
  | [] -> (
    match Eden_lang.Typecheck.check schema a with
    | Error e -> Error (Type_error e)
    | Ok () -> (
      let optimized, stats = Optimize.run a in
      match Eden_lang.Compile.compile schema optimized with
      | Error e -> Error (Compile_error e)
      | Ok program -> (
        (* The same check a remote enclave runs at install, plus
           strict mode: compiler output must be fully live. *)
        match Eden_bytecode.Verifier.analyse ~strict:true program with
        | Error e -> Error (Verifier_error e)
        | Ok an ->
          let report =
            {
              Report.r_name = a.Ast.af_name;
              r_footprint = footprint;
              r_concurrency = (P.footprint program).P.concurrency;
              r_diagnostics = [];
              r_nodes_before = stats.Optimize.nodes_before;
              r_nodes_after = stats.Optimize.nodes_after;
              r_code_len = Array.length program.P.code;
              r_max_stack = an.Eden_bytecode.Verifier.an_max_stack;
              r_bounds = Bounds.of_program program;
              r_cost = Cost.of_program program;
            }
          in
          Ok report)))
