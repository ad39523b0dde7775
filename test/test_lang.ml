(* Tests for the DSL: type checking, compilation, end-to-end execution of
   paper action functions through the interpreter. *)

open Eden_lang
module P = Eden_bytecode.Program
module Interp = Eden_bytecode.Interp

let check_bool = Alcotest.(check bool)
let check_i64 = Alcotest.(check int64)
let now = Eden_base.Time.us 10
let rng () = Eden_base.Rng.create 99L

let compile_ok ?stack_limit ?heap_limit ?step_limit schema action =
  match Compile.compile ?stack_limit ?heap_limit ?step_limit schema action with
  | Ok p -> p
  | Error e -> Alcotest.failf "compile failed: %s" (Compile.error_to_string e)

let expect_compile_error schema action pred name =
  match Compile.compile schema action with
  | Ok _ -> Alcotest.failf "%s: expected compile error" name
  | Error e -> check_bool name true (pred e)

(* Build an environment from (name, value) assoc lists, honouring the
   program's slot order. *)
let slot_entity_name = function
  | P.Packet -> "packet"
  | P.Message -> "msg"
  | P.Global -> "_global"

let env_for p ~scalars ~arrays =
  let s =
    Array.map
      (fun (slot : P.scalar_slot) ->
        match List.assoc_opt (slot_entity_name slot.P.s_entity ^ "." ^ slot.P.s_name) scalars with
        | Some v -> v
        | None -> 0L)
      p.P.scalar_slots
  in
  let a =
    Array.map
      (fun (slot : P.array_slot) ->
        match List.assoc_opt (slot_entity_name slot.P.a_entity ^ "." ^ slot.P.a_name) arrays with
        | Some v -> v
        | None -> [||])
      p.P.array_slots
  in
  Interp.make_env p ~scalars:s ~arrays:a

let scalar_out p env name =
  let found = ref None in
  Array.iteri
    (fun i (slot : P.scalar_slot) ->
      if String.equal (slot_entity_name slot.P.s_entity ^ "." ^ slot.P.s_name) name then
        found := Some env.Interp.scalars.(i))
    p.P.scalar_slots;
  match !found with
  | Some v -> v
  | None -> Alcotest.failf "no scalar slot %s" name

let run p env =
  match Interp.run p ~env ~now ~rng:(rng ()) with
  | Ok stats -> stats
  | Error (f, _) -> Alcotest.failf "fault: %s" (Interp.fault_to_string f)

(* ------------------------------------------------------------------ *)
(* Type checking *)

let simple_schema =
  Schema.with_standard_packet
    ~message:[ Schema.field "Size" ~access:Schema.Read_write ]
    ~global:[ Schema.field "Counter" ~access:Schema.Read_write ]
    ~global_arrays:[ Schema.array "Limits" ]
    ()

let test_typecheck_accepts_pias_like () =
  let open Dsl in
  let action =
    action "t"
      (set_msg "Size" (msg "Size" + pkt "Size") ^^ set_pkt "Priority" (int 1))
  in
  check_bool "ok" true (Result.is_ok (Typecheck.check simple_schema action))

let expect_type_error action msg_fragment =
  match Typecheck.check simple_schema action with
  | Ok () -> Alcotest.failf "expected type error (%s)" msg_fragment
  | Error e ->
    let contains s sub =
      let n = String.length sub in
      let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
      go 0
    in
    check_bool
      (Printf.sprintf "error mentions %S (got %S)" msg_fragment e.Typecheck.message)
      true
      (contains e.Typecheck.message msg_fragment)

let test_typecheck_unknown_field () =
  let open Dsl in
  expect_type_error (action "t" (set_pkt "Nope" (int 1))) "no field"

let test_typecheck_readonly_field () =
  let open Dsl in
  expect_type_error (action "t" (set_pkt "Size" (int 1))) "read-only"

let test_typecheck_bool_int_confusion () =
  let open Dsl in
  expect_type_error (action "t" (set_pkt "Priority" (int 1 < int 2))) "expected int";
  expect_type_error (action "t" (when_ (pkt "Size") (set_pkt "Priority" (int 1))))
    "expected bool"

let test_typecheck_immutable_assign () =
  let open Dsl in
  expect_type_error
    (action "t" (let_ "x" (int 1) (fun _ -> assign "x" (int 2))))
    "immutable"

let test_typecheck_unbound_var () =
  let open Dsl in
  expect_type_error (action "t" (set_pkt "Priority" (var "ghost"))) "unbound"

let test_typecheck_body_must_be_unit () =
  let open Dsl in
  expect_type_error (action "t" (pkt "Size")) "unit"

let test_typecheck_branch_mismatch () =
  let open Dsl in
  expect_type_error
    (action "t"
       (set_pkt "Priority" (if_ (int 1 < int 2) (int 1) (int 1 < int 3))))
    "disagree"

let test_typecheck_arity () =
  let open Dsl in
  let f = fn "f" [ "a"; "b" ] (var "a" + var "b") in
  expect_type_error
    (action ~funs:[ f ] "t" (set_pkt "Priority" (call "f" [ int 1 ])))
    "argument"

let test_typecheck_unknown_array () =
  let open Dsl in
  expect_type_error (action "t" (set_pkt "Priority" (glob_arr "Ghost" (int 0)))) "no array"

let test_typecheck_readonly_array () =
  let open Dsl in
  expect_type_error (action "t" (set_glob_arr "Limits" (int 0) (int 1))) "read-only"

(* ------------------------------------------------------------------ *)
(* Compilation + execution *)

let test_compile_simple_assignment () =
  let open Dsl in
  let action = action "prio" (set_pkt "Priority" (int 5)) in
  let p = compile_ok simple_schema action in
  let env = env_for p ~scalars:[] ~arrays:[] in
  ignore (run p env);
  check_i64 "priority set" 5L (scalar_out p env "packet.Priority")

let test_compile_field_arith () =
  let open Dsl in
  let action = action "t" (set_msg "Size" (msg "Size" + pkt "Size")) in
  let p = compile_ok simple_schema action in
  let env = env_for p ~scalars:[ ("msg.Size", 100L); ("packet.Size", 1460L) ] ~arrays:[] in
  ignore (run p env);
  check_i64 "accumulated" 1560L (scalar_out p env "msg.Size")

let test_compile_if () =
  let open Dsl in
  let action =
    action "t"
      (if_ (pkt "Size" > int 1000)
         (set_pkt "Priority" (int 0))
         (set_pkt "Priority" (int 7)))
  in
  let p = compile_ok simple_schema action in
  let env = env_for p ~scalars:[ ("packet.Size", 2000L) ] ~arrays:[] in
  ignore (run p env);
  check_i64 "big flow low prio" 0L (scalar_out p env "packet.Priority");
  let env = env_for p ~scalars:[ ("packet.Size", 10L) ] ~arrays:[] in
  ignore (run p env);
  check_i64 "small flow high prio" 7L (scalar_out p env "packet.Priority")

let test_compile_let_and_mutation () =
  let open Dsl in
  let action =
    action "t"
      (let_mut "x" (int 0) @@ fun x ->
       assign "x" (x + int 40) ^^ assign "x" (x + int 2) ^^ set_msg "Size" x)
  in
  let p = compile_ok simple_schema action in
  let env = env_for p ~scalars:[] ~arrays:[] in
  ignore (run p env);
  check_i64 "42" 42L (scalar_out p env "msg.Size")

let test_compile_while_loop () =
  let open Dsl in
  (* Sum 1..10 with a while loop. *)
  let action =
    action "t"
      (let_mut "i" (int 1) @@ fun i ->
       let_mut "acc" (int 0) @@ fun acc ->
       while_ (i <= int 10) (assign "acc" (acc + i) ^^ assign "i" (i + int 1))
       ^^ set_msg "Size" acc)
  in
  let p = compile_ok simple_schema action in
  let env = env_for p ~scalars:[] ~arrays:[] in
  ignore (run p env);
  check_i64 "55" 55L (scalar_out p env "msg.Size")

let test_compile_global_array_read () =
  let open Dsl in
  let action = action "t" (set_msg "Size" (glob_arr "Limits" (int 1))) in
  let p = compile_ok simple_schema action in
  let env = env_for p ~scalars:[] ~arrays:[ ("_global.Limits", [| 10L; 20L; 30L |]) ] in
  ignore (run p env);
  check_i64 "read" 20L (scalar_out p env "msg.Size")

let test_compile_inline_function () =
  let open Dsl in
  let double = fn "double" [ "x" ] (var "x" * int 2) in
  let action = action ~funs:[ double ] "t" (set_msg "Size" (call "double" [ int 21 ])) in
  let p = compile_ok simple_schema action in
  let env = env_for p ~scalars:[] ~arrays:[] in
  ignore (run p env);
  check_i64 "inlined" 42L (scalar_out p env "msg.Size")

let test_compile_nested_inline () =
  let open Dsl in
  let double = fn "double" [ "x" ] (var "x" * int 2) in
  let quad = fn "quad" [ "x" ] (call "double" [ call "double" [ var "x" ] ]) in
  let action =
    action ~funs:[ double; quad ] "t" (set_msg "Size" (call "quad" [ int 10 ]))
  in
  let p = compile_ok simple_schema action in
  let env = env_for p ~scalars:[] ~arrays:[] in
  ignore (run p env);
  check_i64 "nested" 40L (scalar_out p env "msg.Size")

let test_compile_tail_recursion () =
  let open Dsl in
  (* let rec search i = if i >= len then 0 elif limits[i] >= size then i
     else search (i+1) — the paper's PIAS search shape. *)
  let search =
    fn "search" [ "i" ]
      (if_ (var "i" >= glob_arr_len "Limits") (int 99)
         (if_ (glob_arr "Limits" (var "i") >= msg "Size")
            (var "i")
            (call "search" [ var "i" + int 1 ])))
  in
  let action = action ~funs:[ search ] "t" (set_pkt "Priority" (call "search" [ int 0 ])) in
  let p = compile_ok simple_schema action in
  let limits = [| 10_000L; 1_000_000L |] in
  let check size expected =
    let env =
      env_for p ~scalars:[ ("msg.Size", size) ] ~arrays:[ ("_global.Limits", limits) ]
    in
    ignore (run p env);
    check_i64
      (Printf.sprintf "size %Ld -> prio %Ld" size expected)
      expected
      (scalar_out p env "packet.Priority")
  in
  check 500L 0L;
  check 500_000L 1L;
  check 5_000_000L 99L

let test_compile_tail_recursion_is_loop () =
  (* Deep recursion must not exhaust anything: it compiles to a loop. *)
  let open Dsl in
  let count =
    fn "count" [ "i" ]
      (if_ (var "i" >= int 10_000) (var "i") (call "count" [ var "i" + int 1 ]))
  in
  let action =
    action ~funs:[ count ] "t" (set_msg "Size" (call "count" [ int 0 ]))
  in
  let p = compile_ok ~step_limit:1_000_000 simple_schema action in
  let env = env_for p ~scalars:[] ~arrays:[] in
  let stats = run p env in
  check_i64 "looped to 10000" 10_000L (scalar_out p env "msg.Size");
  check_bool "stack stayed small" true (Stdlib.( < ) stats.Interp.max_stack 8)

let test_compile_rejects_non_tail_recursion () =
  let open Dsl in
  let bad = fn "bad" [ "i" ] (int 1 + call "bad" [ var "i" ]) in
  expect_compile_error simple_schema
    (action ~funs:[ bad ] "t" (set_msg "Size" (call "bad" [ int 0 ])))
    (function Compile.Unsupported _ -> true | _ -> false)
    "non-tail"

let test_compile_rejects_mutual_recursion () =
  let open Dsl in
  let f = fn "f" [ "i" ] (call "g" [ var "i" ]) in
  let g = fn "g" [ "i" ] (call "f" [ var "i" ]) in
  expect_compile_error simple_schema
    (action ~funs:[ f; g ] "t" (set_msg "Size" (call "f" [ int 0 ])))
    (function Compile.Unsupported _ -> true | _ -> false)
    "mutual"

let test_compile_constant_folding () =
  let open Dsl in
  let action = action "t" (set_msg "Size" (int 6 * int 7)) in
  let p = compile_ok simple_schema action in
  (* Folded to a single push + store. *)
  check_bool "short code" true (Stdlib.( <= ) (Array.length p.P.code) 3);
  let env = env_for p ~scalars:[] ~arrays:[] in
  ignore (run p env);
  check_i64 "42" 42L (scalar_out p env "msg.Size")

let test_compile_env_contract () =
  let action =
    let open Dsl in
    action "t" (set_msg "Size" (msg "Size" + pkt "Size") ^^ set_pkt "Priority" (int 1))
  in
  let p = compile_ok simple_schema action in
  let writes = (P.footprint p).P.writes in
  check_bool "writes message" true (List.mem P.Message writes);
  check_bool "writes packet" true (List.mem P.Packet writes);
  check_bool "no global writes" false (List.mem P.Global writes);
  (match P.find_scalar p "Size" with
  | Some s -> check_bool "size slot exists" true (String.equal s.P.s_name "Size")
  | None -> Alcotest.fail "no Size slot");
  check_bool "packet.Size read-only" true
    (Array.exists
       (fun (s : P.scalar_slot) ->
         String.equal s.P.s_name "Size" && Stdlib.( = ) s.P.s_entity P.Packet && Stdlib.( = ) s.P.s_access P.Read_only)
       p.P.scalar_slots)

let test_compiled_code_verifies () =
  (* compile already verifies, but double-check the public contract. *)
  let open Dsl in
  let search =
    fn "search" [ "i" ]
      (if_ (var "i" >= int 8) (int 0) (call "search" [ var "i" + int 1 ]))
  in
  let action = action ~funs:[ search ] "t" (set_msg "Size" (call "search" [ int 0 ])) in
  let p = compile_ok simple_schema action in
  check_bool "verifies" true (Result.is_ok (Eden_bytecode.Verifier.verify p))

let test_schema_infer () =
  let action =
    let open Dsl in
    action "t"
      (set_msg "Count" (msg "Count" + int 1)
      ^^ set_glob_arr "Tbl" (int 0) (glob "Limit")
      ^^ set_pkt "Priority" (int 2))
  in
  let schema = Schema.infer action in
  (* Inferred schemas are permissive: everything touched is read-write. *)
  (match Schema.find_field schema Ast.Message "Count" with
  | Some f -> check_bool "msg rw" true (Stdlib.( = ) f.Schema.f_access Schema.Read_write)
  | None -> Alcotest.fail "Count missing");
  (match Schema.find_array schema Ast.Global "Tbl" with
  | Some a -> check_bool "array rw" true (Stdlib.( = ) a.Schema.a_access Schema.Read_write)
  | None -> Alcotest.fail "Tbl missing");
  check_bool "Limit present" true (Schema.find_field schema Ast.Global "Limit" <> None);
  (* Standard packet fields still enforce their access: the inferred
     schema never lets an action write packet.Size. *)
  let bad = let open Dsl in action "bad" (set_pkt "Size" (int 1)) in
  check_bool "packet.Size still read-only" true
    (Result.is_error (Compile.compile (Schema.infer bad) bad));
  (* And the inferred schema compiles the original action. *)
  check_bool "compiles" true (Result.is_ok (Compile.compile schema action))

let test_rand_in_action () =
  let open Dsl in
  let action = action "t" (set_msg "Size" (rand (int 10))) in
  let p = compile_ok simple_schema action in
  let env = env_for p ~scalars:[] ~arrays:[] in
  ignore (run p env);
  let v = scalar_out p env "msg.Size" in
  check_bool "in range" true (Stdlib.( && ) (Stdlib.( >= ) v 0L) (Stdlib.( < ) v 10L))

let test_pretty_printer_mentions_structure () =
  let action =
    let open Dsl in
    let search =
      fn "search" [ "index" ]
        (if_ (var "index" >= glob_arr_len "Limits") (int 0) (var "index"))
    in
    action ~funs:[ search ] "pias" (set_pkt "Priority" (call "search" [ int 0 ]))
  in
  let s = Pretty.action_to_string action in
  let contains sub =
    let n = String.length sub in
    let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  check_bool "lambda header" true (contains "fun (packet : Packet");
  check_bool "let rec" true (contains "let rec search index");
  check_bool "assignment" true (contains "packet.Priority <-")

(* ------------------------------------------------------------------ *)
(* Property tests *)

let prop_constant_folding_preserves_value =
  (* Random arithmetic expression trees evaluate to the same value
     compiled with and without folding being effective (folding is always
     on; we compare against a reference OCaml evaluation). *)
  let open QCheck in
  let gen_expr =
    let open Gen in
    let leaf = map (fun v -> Ast.Int (Int64.of_int (v mod 1000))) small_int in
    let node self n =
      if n <= 0 then leaf
      else
        oneof
          [
            leaf;
            map2 (fun a b -> Ast.Binop (Ast.Add, a, b)) (self (n / 2)) (self (n / 2));
            map2 (fun a b -> Ast.Binop (Ast.Sub, a, b)) (self (n / 2)) (self (n / 2));
            map2 (fun a b -> Ast.Binop (Ast.Mul, a, b)) (self (n / 2)) (self (n / 2));
          ]
    in
    sized (fix node)
  in
  let rec eval (e : Ast.expr) =
    match e with
    | Ast.Int v -> v
    | Ast.Binop (Ast.Add, a, b) -> Int64.add (eval a) (eval b)
    | Ast.Binop (Ast.Sub, a, b) -> Int64.sub (eval a) (eval b)
    | Ast.Binop (Ast.Mul, a, b) -> Int64.mul (eval a) (eval b)
    | _ -> 0L
  in
  Test.make ~name:"compiled arithmetic equals reference evaluation" ~count:200
    (make gen_expr) (fun expr ->
      let open Dsl in
      let action = action "t" (set_msg "Size" expr) in
      match Compile.compile simple_schema action with
      | Error _ -> false
      | Ok p -> (
        let env = env_for p ~scalars:[] ~arrays:[] in
        match Interp.run p ~env ~now ~rng:(rng ()) with
        | Error _ -> false
        | Ok _ -> Int64.equal (scalar_out p env "msg.Size") (eval expr)))

let qcheck = Qcheck_seed.qcheck

let () =
  Qcheck_seed.announce ();
  Alcotest.run "eden_lang"
    [
      ( "typecheck",
        [
          Alcotest.test_case "accepts pias-like" `Quick test_typecheck_accepts_pias_like;
          Alcotest.test_case "unknown field" `Quick test_typecheck_unknown_field;
          Alcotest.test_case "read-only field" `Quick test_typecheck_readonly_field;
          Alcotest.test_case "bool/int confusion" `Quick test_typecheck_bool_int_confusion;
          Alcotest.test_case "immutable assign" `Quick test_typecheck_immutable_assign;
          Alcotest.test_case "unbound var" `Quick test_typecheck_unbound_var;
          Alcotest.test_case "body unit" `Quick test_typecheck_body_must_be_unit;
          Alcotest.test_case "branch mismatch" `Quick test_typecheck_branch_mismatch;
          Alcotest.test_case "arity" `Quick test_typecheck_arity;
          Alcotest.test_case "unknown array" `Quick test_typecheck_unknown_array;
          Alcotest.test_case "read-only array" `Quick test_typecheck_readonly_array;
        ] );
      ( "compile",
        [
          Alcotest.test_case "assignment" `Quick test_compile_simple_assignment;
          Alcotest.test_case "field arithmetic" `Quick test_compile_field_arith;
          Alcotest.test_case "if" `Quick test_compile_if;
          Alcotest.test_case "let/mutation" `Quick test_compile_let_and_mutation;
          Alcotest.test_case "while" `Quick test_compile_while_loop;
          Alcotest.test_case "global array" `Quick test_compile_global_array_read;
          Alcotest.test_case "inline function" `Quick test_compile_inline_function;
          Alcotest.test_case "nested inline" `Quick test_compile_nested_inline;
          Alcotest.test_case "tail recursion" `Quick test_compile_tail_recursion;
          Alcotest.test_case "tail recursion is loop" `Quick
            test_compile_tail_recursion_is_loop;
          Alcotest.test_case "rejects non-tail" `Quick test_compile_rejects_non_tail_recursion;
          Alcotest.test_case "rejects mutual" `Quick test_compile_rejects_mutual_recursion;
          Alcotest.test_case "constant folding" `Quick test_compile_constant_folding;
          Alcotest.test_case "env contract" `Quick test_compile_env_contract;
          Alcotest.test_case "verifies" `Quick test_compiled_code_verifies;
          Alcotest.test_case "schema infer" `Quick test_schema_infer;
          Alcotest.test_case "rand" `Quick test_rand_in_action;
          Alcotest.test_case "pretty printer" `Quick test_pretty_printer_mentions_structure;
        ] );
      ("properties", [ qcheck prop_constant_folding_preserves_value ]);
    ]
