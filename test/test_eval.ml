(* Differential testing: the reference AST evaluator, the bytecode
   interpreter and the closure-compiled engine must agree on every
   observable effect, over thousands of randomly generated programs. *)

open Eden_lang
module P = Eden_bytecode.Program
module Interp = Eden_bytecode.Interp
module Compiled = Eden_bytecode.Compiled

let now = Eden_base.Time.us 77

(* ------------------------------------------------------------------ *)
(* Unit tests of the evaluator itself *)

let eval_int expr =
  match Eval.eval_expr ~now expr (Eval.State.create ()) with
  | Ok v -> v
  | Error e -> Alcotest.failf "eval error: %s" (Eval.error_to_string e)

let test_eval_basics () =
  let open Dsl in
  Alcotest.(check int64) "arith" 42L (eval_int ((int 6 * int 8) - int 6));
  Alcotest.(check int64) "if" 1L (eval_int (if_ (int 2 > int 1) (int 1) (int 0)));
  Alcotest.(check int64) "let" 30L
    (eval_int (let_ "x" (int 10) (fun x -> x + x + x)));
  Alcotest.(check int64) "clock" (Eden_base.Time.to_ns now) (eval_int clock)

let test_eval_state_effects () =
  let st = Eval.State.create () in
  Eval.State.set_array st Ast.Global "Tbl" [| 5L; 6L |];
  let action =
    let open Dsl in
    action "t"
      (set_pkt "Priority" (glob_arr "Tbl" (int 1))
      ^^ set_glob_arr "Tbl" (int 0) (int 9)
      ^^ set_msg "Size" (int 123))
  in
  (match Eval.run ~now action st with
  | Ok () -> ()
  | Error e -> Alcotest.failf "eval failed: %s" (Eval.error_to_string e));
  Alcotest.(check int64) "field write" 6L (Eval.State.field st Ast.Packet "Priority");
  Alcotest.(check int64) "array write" 9L (Eval.State.array st Ast.Global "Tbl").(0);
  Alcotest.(check int64) "msg write" 123L (Eval.State.field st Ast.Message "Size")

let test_eval_faults () =
  let st = Eval.State.create () in
  let open Dsl in
  (match Eval.run (action "t" (set_msg "X" (int 1 / int 0))) st with
  | Error Eval.Division_by_zero -> ()
  | Ok () | Error _ -> Alcotest.fail "expected division fault");
  (match Eval.run (action "t" (set_msg "X" (glob_arr "None" (int 0)))) st with
  | Error (Eval.Array_bounds _) -> ()
  | Ok () | Error _ -> Alcotest.fail "expected bounds fault");
  match Eval.run ~step_limit:100 (action "t" (while_ tru (set_msg "X" (int 1)))) st with
  | Error Eval.Step_limit_exceeded -> ()
  | Ok () | Error _ -> Alcotest.fail "expected step fault"

let test_eval_matches_paper_function () =
  (* PIAS through the evaluator agrees with the reference model. *)
  let st = Eval.State.create () in
  Eval.State.set_array st Ast.Global "Thresholds" [| 10_000L; 1_000_000L |];
  Eval.State.set_field st Ast.Message "Size" 50_000L;
  Eval.State.set_field st Ast.Packet "Size" 1058L;
  (match Eval.run ~now Eden_functions.Pias.action st with
  | Ok () -> ()
  | Error e -> Alcotest.failf "eval failed: %s" (Eval.error_to_string e));
  let expected =
    Eden_functions.Pias.priority_for ~thresholds:[| 10_000L; 1_000_000L |] ~size:51_058L
  in
  Alcotest.(check int64) "pias priority" (Int64.of_int expected)
    (Eval.State.field st Ast.Packet "Priority")

(* ------------------------------------------------------------------ *)
(* Differential property: eval vs interpreter vs compiled engine *)

(* Random programs over: packet.Size (ro), packet.Priority (rw),
   msg.A/msg.B (rw), global.C (rw), global array Tbl (rw, length 4). *)
let gen_program =
  let open QCheck.Gen in
  let lit = map (fun v -> Ast.Int (Int64.of_int (v - 500))) (int_range 0 1000) in
  let scalar_reads =
    [ Ast.Field (Ast.Packet, "Size"); Ast.Field (Ast.Message, "A");
      Ast.Field (Ast.Message, "B"); Ast.Field (Ast.Global, "C") ]
  in
  let rec int_expr n =
    if n <= 0 then oneof [ lit; oneofl scalar_reads ]
    else
      frequency
        [
          (2, lit);
          (2, oneofl scalar_reads);
          ( 4,
            let* op =
              oneofl
                [ Ast.Add; Ast.Sub; Ast.Mul; Ast.Div; Ast.Rem; Ast.Band; Ast.Bor;
                  Ast.Bxor; Ast.Shl; Ast.Shr ]
            in
            let* a = int_expr (n / 2) in
            let* b = int_expr (n / 2) in
            return (Ast.Binop (op, a, b)) );
          (* Under [fun st]: built eagerly, the sub-generator chain below
             would be constructed on every call, drawn or not, which
             dominates generation time. *)
          (1, fun st -> map (fun e -> Ast.Unop (Ast.Neg, e)) (int_expr (n - 1)) st);
          ( 1,
            let* i = int_expr (n / 2) in
            return (Ast.Arr_get (Ast.Global, "Tbl", Ast.Binop (Ast.Rem, i, Ast.Int 4L))) );
          ( 1,
            let* a = int_expr (n / 2) in
            let* b = int_expr (n / 2) in
            return (Ast.Hash (a, b)) );
          ( 1,
            let* c = cond (n / 2) in
            let* a = int_expr (n / 2) in
            let* b = int_expr (n / 2) in
            return (Ast.If (c, a, b)) );
        ]
  and cond n =
    let* op = oneofl [ Ast.Lt; Ast.Le; Ast.Eq; Ast.Ne; Ast.Gt; Ast.Ge ] in
    let* a = int_expr (n / 2) in
    let* b = int_expr (n / 2) in
    return (Ast.Binop (op, a, b))
  in
  let stmt_leaf n =
    oneof
      [
        map (fun e -> Ast.Set_field (Ast.Packet, "Priority", e)) (int_expr n);
        map (fun e -> Ast.Set_field (Ast.Message, "A", e)) (int_expr n);
        map (fun e -> Ast.Set_field (Ast.Message, "B", e)) (int_expr n);
        map (fun e -> Ast.Set_field (Ast.Global, "C", e)) (int_expr n);
        ( let* i = int_expr (n / 2) in
          let* v = int_expr (n / 2) in
          return
            (Ast.Arr_set (Ast.Global, "Tbl", Ast.Binop (Ast.Rem, i, Ast.Int 4L), v)) );
      ]
  in
  let rec stmt n =
    if n <= 0 then stmt_leaf 0
    else
      frequency
        [
          (4, stmt_leaf n);
          ( 2,
            let* c = cond (n / 2) in
            let* a = stmt (n / 2) in
            let* b = stmt (n / 2) in
            return (Ast.If (c, a, b)) );
          ( 2,
            let* a = stmt (n / 2) in
            let* b = stmt (n / 2) in
            return (Ast.Seq (a, b)) );
          ( 1,
            let* rhs = int_expr (n / 2) in
            let* body = stmt (n / 2) in
            return (Ast.Let { name = "v"; mutable_ = false; rhs; body }) );
        ]
  in
  sized (fun n -> stmt (min n 24))

let schema =
  Schema.with_standard_packet
    ~message:
      [ Schema.field "A" ~access:Schema.Read_write; Schema.field "B" ~access:Schema.Read_write ]
    ~global:[ Schema.field "C" ~access:Schema.Read_write ]
    ~global_arrays:[ Schema.array "Tbl" ~access:Schema.Read_write ]
    ()

(* Negative Rem indices still fault on bounds in every engine: the AST
   wraps indices with [i % 4] which can be negative — all of them treat
   that as out of bounds, which is exactly the agreement we test. *)
let run_differential body =
  let action = { Ast.af_name = "diff"; af_funs = []; af_body = body } in
  match Compile.compile schema action with
  | Error e -> QCheck.Test.fail_reportf "compile failed: %s" (Compile.error_to_string e)
  | Ok program ->
    (* Shared initial values. *)
    let tbl0 = [| 11L; 22L; 33L; 44L |] in
    let init_scalar ent name =
      match (ent, name) with
      | P.Packet, "Size" -> 1058L
      | P.Message, "A" -> 7L
      | P.Message, "B" -> -3L
      | P.Global, "C" -> 1000L
      | _ -> 0L
    in
    (* Reference evaluation. *)
    let st = Eval.State.create () in
    Eval.State.set_field st Ast.Packet "Size" 1058L;
    Eval.State.set_field st Ast.Message "A" 7L;
    Eval.State.set_field st Ast.Message "B" (-3L);
    Eval.State.set_field st Ast.Global "C" 1000L;
    Eval.State.set_array st Ast.Global "Tbl" (Array.copy tbl0);
    let eval_result = Eval.run ~now ~rng:(Eden_base.Rng.create 5L) action st in
    let fresh_env () =
      let scalars =
        Array.map (fun (s : P.scalar_slot) -> init_scalar s.P.s_entity s.P.s_name)
          program.P.scalar_slots
      in
      let arrays =
        Array.map
          (fun (a : P.array_slot) ->
            match a.P.a_name with "Tbl" -> Array.copy tbl0 | _ -> [||])
          program.P.array_slots
      in
      Interp.make_env program ~scalars ~arrays
    in
    (* Each bytecode engine against the reference evaluation. *)
    let agrees engine (env : Interp.env) result =
      match (eval_result, result) with
      | Error _, Error _ -> true (* both faulted: agreement *)
      | Ok (), Ok _ ->
        (* Compare every scalar slot and the array. *)
        let scalars_agree = ref true in
        Array.iteri
          (fun i (s : P.scalar_slot) ->
            let expected =
              Eval.State.field st (Ast.entity_of_program s.P.s_entity) s.P.s_name
            in
            (* Read-only slots are not written back by the engines. *)
            let got = if s.P.s_access = P.Read_write then env.Interp.scalars.(i) else expected in
            if not (Int64.equal expected got) then scalars_agree := false)
          program.P.scalar_slots;
        let arrays_agree = ref true in
        Array.iteri
          (fun i (a : P.array_slot) ->
            if a.P.a_name = "Tbl" && env.Interp.arrays.(i) <> Eval.State.array st Ast.Global "Tbl"
            then arrays_agree := false)
          program.P.array_slots;
        if not (!scalars_agree && !arrays_agree) then
          QCheck.Test.fail_reportf "%s state divergence on:\n%s" engine
            (Pretty.action_to_string action)
        else true
      | Ok (), Error (f, _) ->
        QCheck.Test.fail_reportf "%s faulted (%s), eval did not:\n%s" engine
          (Interp.fault_to_string f)
          (Pretty.action_to_string action)
      | Error e, Ok _ ->
        QCheck.Test.fail_reportf "eval faulted (%s), %s did not:\n%s"
          (Eval.error_to_string e) engine
          (Pretty.action_to_string action)
    in
    let interp_env = fresh_env () in
    let interp_result =
      Interp.run program ~env:interp_env ~now ~rng:(Eden_base.Rng.create 5L)
    in
    let compiled_env = fresh_env () in
    let compiled_result =
      match Compiled.compile program with
      | Error e ->
        QCheck.Test.fail_reportf "closure compilation refused (%s):\n%s"
          (Eden_bytecode.Verifier.error_to_string e)
          (Pretty.action_to_string action)
      | Ok c -> Compiled.run c ~env:compiled_env ~now ~rng:(Eden_base.Rng.create 5L)
    in
    agrees "interpreter" interp_env interp_result
    && agrees "compiled engine" compiled_env compiled_result

let prop_differential =
  QCheck.Test.make ~name:"eval and compiled bytecode agree" ~count:2000
    (QCheck.make gen_program) run_differential

let prop_differential_via_parser =
  (* Full pipeline: AST -> text -> parse -> compile vs direct eval. *)
  QCheck.Test.make ~name:"eval agrees across the parser round-trip" ~count:300
    (QCheck.make gen_program) (fun body ->
      let action = { Ast.af_name = "diff"; af_funs = []; af_body = body } in
      let src = Pretty.action_to_string action in
      match Parser.parse_action ~name:"diff" src with
      | Error e -> QCheck.Test.fail_reportf "parse failed: %s" (Parser.error_to_string e)
      | Ok parsed -> run_differential parsed.Ast.af_body)

(* The verifier's static stack bound is sound: on every run of a compiled
   random program, the observed peak operand-stack depth stays within it. *)
let prop_verifier_stack_bound_sound =
  QCheck.Test.make ~name:"verifier stack bound is sound" ~count:500
    (QCheck.make gen_program) (fun body ->
      let action = { Ast.af_name = "vs"; af_funs = []; af_body = body } in
      match Compile.compile schema action with
      | Error e -> QCheck.Test.fail_reportf "compile failed: %s" (Compile.error_to_string e)
      | Ok program -> (
        let bound =
          match Eden_bytecode.Verifier.max_stack_depth program with
          | Ok d -> d
          | Error e ->
            QCheck.Test.fail_reportf "verifier rejected compiled code: %s"
              (Eden_bytecode.Verifier.error_to_string e)
        in
        let scalars = Array.map (fun _ -> 3L) program.P.scalar_slots in
        let arrays =
          Array.map
            (fun (a : P.array_slot) ->
              match a.P.a_name with "Tbl" -> [| 1L; 2L; 3L; 4L |] | _ -> [||])
            program.P.array_slots
        in
        let env = Interp.make_env program ~scalars ~arrays in
        match Interp.run program ~env ~now ~rng:(Eden_base.Rng.create 9L) with
        | Ok stats -> stats.Interp.max_stack <= bound
        | Error (_, stats) -> stats.Interp.max_stack <= bound))

let qcheck = Qcheck_seed.qcheck

let () =
  Qcheck_seed.announce ();
  Alcotest.run "eden_eval"
    [
      ( "eval",
        [
          Alcotest.test_case "basics" `Quick test_eval_basics;
          Alcotest.test_case "state effects" `Quick test_eval_state_effects;
          Alcotest.test_case "faults" `Quick test_eval_faults;
          Alcotest.test_case "pias" `Quick test_eval_matches_paper_function;
        ] );
      ( "differential",
        [
          qcheck prop_differential;
          qcheck prop_differential_via_parser;
          qcheck prop_verifier_stack_bound_sound;
        ] );
    ]
