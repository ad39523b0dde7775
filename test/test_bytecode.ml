(* Tests for the bytecode VM: assembler, verifier, interpreter. *)

open Eden_bytecode
module Op = Opcode

let now = Eden_base.Time.us 100
let rng () = Eden_base.Rng.create 1L

let run_prog ?(scalars = [||]) ?(arrays = [||]) p =
  let env = Interp.make_env p ~scalars ~arrays in
  (Interp.run p ~env ~now ~rng:(rng ()), env)

let simple ?(stack_limit = 16) ?(heap_limit = 64) ?(step_limit = 10_000)
    ?(scalar_slots = [||]) ?(array_slots = [||]) code =
  Program.make ~name:"test" ~code ~scalar_slots ~array_slots ~stack_limit ~heap_limit
    ~step_limit ()

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let ro_scalar name local =
  { Program.s_name = name; s_entity = Program.Packet; s_access = Program.Read_only;
    s_local = local }

let rw_scalar name local =
  { Program.s_name = name; s_entity = Program.Packet; s_access = Program.Read_write;
    s_local = local }

let ro_array ?(min_len = 0) name =
  { Program.a_name = name; a_entity = Program.Global; a_access = Program.Read_only;
    a_min_len = min_len }

let rw_array ?(min_len = 0) name =
  { Program.a_name = name; a_entity = Program.Global; a_access = Program.Read_write;
    a_min_len = min_len }

(* ------------------------------------------------------------------ *)
(* Interpreter basics *)

let expect_scalar ?scalars ?arrays p slot expected =
  let scalars =
    match scalars with
    | Some s -> s
    | None -> Array.make (Array.length p.Program.scalar_slots) 0L
  in
  let arrays =
    match arrays with
    | Some a -> a
    | None -> Array.make (Array.length p.Program.array_slots) [||]
  in
  let result, env = run_prog ~scalars ~arrays p in
  (match result with
  | Ok _ -> ()
  | Error (f, _) -> Alcotest.failf "unexpected fault: %s" (Interp.fault_to_string f));
  Alcotest.(check int64) "scalar result" expected env.Interp.scalars.(slot)

let arith_prog result_expr =
  (* Stores the expression into a writable scalar slot 0 (local 0). *)
  simple ~scalar_slots:[| rw_scalar "Out" 0 |] (Array.append result_expr [| Op.Store 0 |])

let test_arith () =
  expect_scalar (arith_prog [| Op.Push 20L; Op.Push 22L; Op.Add |]) 0 42L;
  expect_scalar (arith_prog [| Op.Push 50L; Op.Push 8L; Op.Sub |]) 0 42L;
  expect_scalar (arith_prog [| Op.Push 6L; Op.Push 7L; Op.Mul |]) 0 42L;
  expect_scalar (arith_prog [| Op.Push 85L; Op.Push 2L; Op.Div |]) 0 42L;
  expect_scalar (arith_prog [| Op.Push 142L; Op.Push 100L; Op.Rem |]) 0 42L;
  expect_scalar (arith_prog [| Op.Push (-42L); Op.Neg |]) 0 42L

let test_bitwise () =
  expect_scalar (arith_prog [| Op.Push 0xF0L; Op.Push 0x0FL; Op.Bor |]) 0 0xFFL;
  expect_scalar (arith_prog [| Op.Push 0xFFL; Op.Push 0x0FL; Op.Band |]) 0 0x0FL;
  expect_scalar (arith_prog [| Op.Push 0xFFL; Op.Push 0x0FL; Op.Bxor |]) 0 0xF0L;
  expect_scalar (arith_prog [| Op.Push 1L; Op.Push 4L; Op.Shl |]) 0 16L;
  expect_scalar (arith_prog [| Op.Push 16L; Op.Push 4L; Op.Shr |]) 0 1L

let test_comparisons () =
  expect_scalar (arith_prog [| Op.Push 1L; Op.Push 2L; Op.Lt |]) 0 1L;
  expect_scalar (arith_prog [| Op.Push 2L; Op.Push 2L; Op.Le |]) 0 1L;
  expect_scalar (arith_prog [| Op.Push 2L; Op.Push 2L; Op.Eq |]) 0 1L;
  expect_scalar (arith_prog [| Op.Push 3L; Op.Push 2L; Op.Gt |]) 0 1L;
  expect_scalar (arith_prog [| Op.Push 3L; Op.Push 2L; Op.Ge |]) 0 1L;
  expect_scalar (arith_prog [| Op.Push 3L; Op.Push 2L; Op.Ne |]) 0 1L;
  expect_scalar (arith_prog [| Op.Push 3L; Op.Push 2L; Op.Lt |]) 0 0L;
  expect_scalar (arith_prog [| Op.Push 0L; Op.Not |]) 0 1L;
  expect_scalar (arith_prog [| Op.Push 5L; Op.Not |]) 0 0L

let test_stack_ops () =
  expect_scalar (arith_prog [| Op.Push 21L; Op.Dup; Op.Add |]) 0 42L;
  expect_scalar (arith_prog [| Op.Push 2L; Op.Push 44L; Op.Swap; Op.Sub |]) 0 42L;
  expect_scalar (arith_prog [| Op.Push 42L; Op.Push 1L; Op.Pop |]) 0 42L

let test_branching () =
  (* if 1 < 2 then 42 else 7 *)
  let code =
    [|
      Op.Push 1L; Op.Push 2L; Op.Lt; Op.Jz 6; Op.Push 42L; Op.Jmp 7; Op.Push 7L;
      Op.Store 0;
    |]
  in
  expect_scalar (simple ~scalar_slots:[| rw_scalar "Out" 0 |] code) 0 42L

let test_loop_sum () =
  (* local1 = 0; for local2 = 1..10: local1 += local2.  Sum = 55. *)
  let code =
    [|
      (* 0 *) Op.Push 0L; Op.Store 1; Op.Push 1L; Op.Store 2;
      (* 4: loop head *) Op.Load 2; Op.Push 10L; Op.Le; Op.Jz 15;
      (* 8 *) Op.Load 1; Op.Load 2; Op.Add; Op.Store 1;
      (* 12 *) Op.Load 2; Op.Push 1L; Op.Add;
      (* 15 is wrong target; recompute below *)
      Op.Store 2; Op.Jmp 4;
      (* 17 *) Op.Load 1; Op.Store 0;
    |]
  in
  (* Fix the exit target: Jz should jump to index 17. *)
  code.(7) <- Op.Jz 17;
  expect_scalar (simple ~scalar_slots:[| rw_scalar "Out" 0 |] code) 0 55L

let test_scalar_env_roundtrip () =
  (* Out(local1) := In(local0) * 2 *)
  let p =
    simple
      ~scalar_slots:[| ro_scalar "In" 0; rw_scalar "Out" 1 |]
      [| Op.Load 0; Op.Push 2L; Op.Mul; Op.Store 1 |]
  in
  let result, env = run_prog ~scalars:[| 21L; 0L |] p in
  check_bool "ok" true (Result.is_ok result);
  Alcotest.(check int64) "doubled" 42L env.Interp.scalars.(1);
  Alcotest.(check int64) "input preserved" 21L env.Interp.scalars.(0)

let test_readonly_scalar_not_written_back () =
  (* Writing the local backing a read-only slot must not publish. *)
  let p =
    simple ~scalar_slots:[| ro_scalar "In" 0 |] [| Op.Push 99L; Op.Store 0 |]
  in
  let result, env = run_prog ~scalars:[| 5L |] p in
  check_bool "ok" true (Result.is_ok result);
  Alcotest.(check int64) "unchanged" 5L env.Interp.scalars.(0)

let test_env_arrays () =
  (* arr[2] := arr[0] + arr[1] *)
  let p =
    simple ~array_slots:[| rw_array "A" |]
      [| Op.Push 2L; Op.Push 0L; Op.Gaload 0; Op.Push 1L; Op.Gaload 0; Op.Add;
         Op.Gastore 0 |]
  in
  let arrays = [| [| 40L; 2L; 0L |] |] in
  let result, _ = run_prog ~arrays p in
  check_bool "ok" true (Result.is_ok result);
  Alcotest.(check int64) "sum stored" 42L arrays.(0).(2)

let test_galen () =
  let p =
    simple
      ~scalar_slots:[| rw_scalar "Out" 0 |]
      ~array_slots:[| ro_array "A" |]
      [| Op.Galen 0; Op.Store 0 |]
  in
  expect_scalar ~scalars:[| 0L |] ~arrays:[| Array.make 7 0L |] p 0 7L

let test_heap_arrays () =
  (* r = newarr 3; r[1] := 42; out := r[1] + len(r) *)
  let code =
    [|
      Op.Push 3L; Op.Newarr; Op.Store 1;
      Op.Load 1; Op.Push 1L; Op.Push 42L; Op.Astore;
      Op.Load 1; Op.Push 1L; Op.Aload;
      Op.Load 1; Op.Alen; Op.Add; Op.Store 0;
    |]
  in
  expect_scalar (simple ~scalar_slots:[| rw_scalar "Out" 0 |] code) 0 45L

let test_clock_intrinsic () =
  let p = simple ~scalar_slots:[| rw_scalar "Out" 0 |] [| Op.Clock; Op.Store 0 |] in
  expect_scalar p 0 (Eden_base.Time.to_ns now)

let test_rand_intrinsic () =
  let p =
    simple ~scalar_slots:[| rw_scalar "Out" 0 |] [| Op.Push 10L; Op.Rand; Op.Store 0 |]
  in
  let result, env = run_prog ~scalars:[| 0L |] p in
  check_bool "ok" true (Result.is_ok result);
  let v = env.Interp.scalars.(0) in
  check_bool "in range" true (v >= 0L && v < 10L)

let test_hashmix_deterministic () =
  let p =
    simple ~scalar_slots:[| rw_scalar "Out" 0 |]
      [| Op.Push 123L; Op.Push 456L; Op.Hashmix; Op.Store 0 |]
  in
  let _, env1 = run_prog ~scalars:[| 0L |] p in
  let _, env2 = run_prog ~scalars:[| 0L |] p in
  Alcotest.(check int64) "deterministic" env1.Interp.scalars.(0) env2.Interp.scalars.(0);
  check_bool "mixed" true (env1.Interp.scalars.(0) <> 123L)

(* ------------------------------------------------------------------ *)
(* Faults *)

let expect_fault p ~scalars ~arrays pred name =
  let result, _ = run_prog ~scalars ~arrays p in
  match result with
  | Ok _ -> Alcotest.failf "%s: expected fault" name
  | Error (f, _) -> check_bool name true (pred f)

let test_division_by_zero () =
  let p = simple [| Op.Push 1L; Op.Push 0L; Op.Div; Op.Pop |] in
  expect_fault p ~scalars:[||] ~arrays:[||]
    (function Interp.Division_by_zero _ -> true | _ -> false)
    "div by zero";
  let p = simple [| Op.Push 1L; Op.Push 0L; Op.Rem; Op.Pop |] in
  expect_fault p ~scalars:[||] ~arrays:[||]
    (function Interp.Division_by_zero _ -> true | _ -> false)
    "rem by zero"

let test_step_limit () =
  (* Infinite loop. *)
  let p = simple ~step_limit:100 [| Op.Jmp 0 |] in
  expect_fault p ~scalars:[||] ~arrays:[||]
    (function Interp.Step_limit_exceeded { limit } -> limit = 100 | _ -> false)
    "step limit"

let test_array_bounds_fault () =
  let p = simple ~array_slots:[| ro_array "A" |] [| Op.Push 5L; Op.Gaload 0; Op.Pop |] in
  expect_fault p ~scalars:[||] ~arrays:[| [| 1L; 2L |] |]
    (function Interp.Array_bounds { index = 5; length = 2; _ } -> true | _ -> false)
    "bounds"

let test_negative_index_fault () =
  let p = simple ~array_slots:[| ro_array "A" |] [| Op.Push (-1L); Op.Gaload 0; Op.Pop |] in
  expect_fault p ~scalars:[||] ~arrays:[| [| 1L |] |]
    (function Interp.Array_bounds _ -> true | _ -> false)
    "negative index"

let test_heap_exhausted () =
  let p = simple ~heap_limit:10 [| Op.Push 100L; Op.Newarr; Op.Pop |] in
  expect_fault p ~scalars:[||] ~arrays:[||]
    (function Interp.Heap_exhausted { requested = 100; limit = 10; _ } -> true | _ -> false)
    "heap exhausted"

let test_bad_rand_bound () =
  let p = simple [| Op.Push 0L; Op.Rand; Op.Pop |] in
  expect_fault p ~scalars:[||] ~arrays:[||]
    (function Interp.Bad_random_bound _ -> true | _ -> false)
    "rand bound"

let test_invalid_heap_ref () =
  let p = simple [| Op.Push 3L; Op.Push 0L; Op.Aload; Op.Pop |] in
  expect_fault p ~scalars:[||] ~arrays:[||]
    (function Interp.Invalid_reference _ -> true | _ -> false)
    "invalid ref"

let test_fault_keeps_scalars_unpublished () =
  (* A program that writes its output local and then faults: the write
     must not reach the environment. *)
  let p =
    simple ~scalar_slots:[| rw_scalar "Out" 0 |]
      [| Op.Push 99L; Op.Store 0; Op.Push 1L; Op.Push 0L; Op.Div; Op.Pop |]
  in
  let scalars = [| 7L |] in
  let result, env = run_prog ~scalars p in
  check_bool "faulted" true (Result.is_error result);
  Alcotest.(check int64) "not published" 7L env.Interp.scalars.(0)

let test_stats_reported () =
  let p = simple [| Op.Push 1L; Op.Push 2L; Op.Add; Op.Pop |] in
  let result, _ = run_prog p in
  match result with
  | Ok stats ->
    check_int "steps" 4 stats.Interp.steps;
    check_int "max stack" 2 stats.Interp.max_stack;
    check_int "no heap" 0 stats.Interp.heap_cells
  | Error _ -> Alcotest.fail "unexpected fault"

(* ------------------------------------------------------------------ *)
(* Verifier *)

let expect_verify_error code pred name =
  match Verifier.verify (simple code) with
  | Ok () -> Alcotest.failf "%s: expected verifier rejection" name
  | Error e -> check_bool name true (pred e)

let test_verify_ok () =
  let p = simple [| Op.Push 1L; Op.Push 2L; Op.Add; Op.Pop |] in
  check_bool "accepts" true (Result.is_ok (Verifier.verify p))

let test_verify_empty () =
  expect_verify_error [||] (function Verifier.Empty_code -> true | _ -> false) "empty"

let test_verify_bad_jump () =
  expect_verify_error
    [| Op.Jmp 99 |]
    (function Verifier.Bad_jump { target = 99; _ } -> true | _ -> false)
    "bad jump"

let test_verify_underflow () =
  expect_verify_error [| Op.Add |]
    (function Verifier.Stack_underflow _ -> true | _ -> false)
    "underflow"

let test_verify_overflow () =
  let code = Array.make 20 (Op.Push 1L) in
  match Verifier.verify (simple ~stack_limit:8 code) with
  | Ok () -> Alcotest.fail "expected overflow"
  | Error e ->
    check_bool "overflow" true
      (match e with Verifier.Stack_overflow { limit = 8; _ } -> true | _ -> false)

let test_verify_inconsistent_depth () =
  (* Two paths reach the same pc with different depths. *)
  let code =
    [| Op.Push 1L; Op.Jz 3; Op.Push 7L; Op.Pop; Op.Halt |]
    (* path A: pc3 with depth 1 (after Push 7); path B: jump straight to
       pc3 with depth 0. *)
  in
  expect_verify_error code
    (function Verifier.Inconsistent_stack _ | Verifier.Stack_underflow _ -> true | _ -> false)
    "inconsistent"

let test_verify_bad_local () =
  let p =
    Program.make ~name:"t" ~code:[| Op.Load 5; Op.Pop |] ~n_locals:2 ~stack_limit:8
      ~heap_limit:8 ~step_limit:100 ()
  in
  match Verifier.verify p with
  | Ok () -> Alcotest.fail "expected bad local"
  | Error e ->
    check_bool "bad local" true
      (match e with Verifier.Bad_local { index = 5; _ } -> true | _ -> false)

let test_verify_bad_slot () =
  expect_verify_error
    [| Op.Push 0L; Op.Gaload 3; Op.Pop |]
    (function Verifier.Bad_array_slot { slot = 3; _ } -> true | _ -> false)
    "bad slot"

let test_verify_readonly_array_write () =
  let code = [| Op.Push 0L; Op.Push 1L; Op.Gastore 0 |] in
  match Verifier.verify (simple ~array_slots:[| ro_array "A" |] code) with
  | Ok () -> Alcotest.fail "expected readonly rejection"
  | Error e ->
    check_bool "readonly" true
      (match e with Verifier.Readonly_write { slot = 0; _ } -> true | _ -> false)

let test_verify_max_depth () =
  let p = simple [| Op.Push 1L; Op.Push 2L; Op.Push 3L; Op.Add; Op.Add; Op.Pop |] in
  match Verifier.max_stack_depth p with
  | Ok d -> check_int "depth" 3 d
  | Error _ -> Alcotest.fail "verify failed"

(* ------------------------------------------------------------------ *)
(* Assembler *)

let test_asm_labels () =
  let code =
    Asm.assemble_exn
      [
        Asm.I (Op.Push 1L);
        Asm.Jz_l "else";
        Asm.I (Op.Push 42L);
        Asm.Jmp_l "end";
        Asm.Label "else";
        Asm.I (Op.Push 7L);
        Asm.Label "end";
        Asm.I (Op.Store 0);
      ]
  in
  check_int "length" 6 (Array.length code);
  check_bool "jz resolved" true (code.(1) = Op.Jz 4);
  check_bool "jmp resolved" true (code.(3) = Op.Jmp 5)

let test_asm_undefined_label () =
  match Asm.assemble [ Asm.Jmp_l "nowhere" ] with
  | Ok _ -> Alcotest.fail "expected error"
  | Error msg -> check_bool "mentions label" true (String.length msg > 0)

let test_asm_duplicate_label () =
  match Asm.assemble [ Asm.Label "a"; Asm.Label "a" ] with
  | Ok _ -> Alcotest.fail "expected error"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Property: random linear (jump-free) programs never crash the VM. *)

let prop_vm_total =
  let gen_op =
    QCheck.Gen.oneof
      [
        QCheck.Gen.map (fun v -> Op.Push (Int64.of_int v)) QCheck.Gen.small_int;
        QCheck.Gen.return Op.Add;
        QCheck.Gen.return Op.Sub;
        QCheck.Gen.return Op.Mul;
        QCheck.Gen.return Op.Dup;
        QCheck.Gen.return Op.Pop;
        QCheck.Gen.return Op.Swap;
        QCheck.Gen.return Op.Not;
      ]
  in
  let gen = QCheck.Gen.array_size (QCheck.Gen.int_range 1 40) gen_op in
  QCheck.Test.make ~name:"vm is total on arbitrary linear programs" ~count:500
    (QCheck.make gen) (fun code ->
      let p = simple ~stack_limit:8 ~step_limit:1000 code in
      (* Run regardless of verification: the VM must fault, not crash. *)
      let env = Interp.make_env p ~scalars:[||] ~arrays:[||] in
      match Interp.run p ~env ~now ~rng:(rng ()) with Ok _ | Error _ -> true)

let prop_verified_linear_runs_clean =
  let gen_op =
    QCheck.Gen.oneof
      [
        QCheck.Gen.map (fun v -> Op.Push (Int64.of_int (v + 1))) QCheck.Gen.small_int;
        QCheck.Gen.return Op.Add;
        QCheck.Gen.return Op.Mul;
        QCheck.Gen.return Op.Dup;
        QCheck.Gen.return Op.Pop;
      ]
  in
  let gen = QCheck.Gen.array_size (QCheck.Gen.int_range 1 30) gen_op in
  QCheck.Test.make
    ~name:"verified jump-free programs without div/arrays never fault" ~count:500
    (QCheck.make gen) (fun code ->
      let p = simple ~stack_limit:32 ~step_limit:1000 code in
      match Verifier.verify p with
      | Error _ -> QCheck.assume_fail ()
      | Ok () -> (
        let env = Interp.make_env p ~scalars:[||] ~arrays:[||] in
        match Interp.run p ~env ~now ~rng:(rng ()) with
        | Ok _ -> true
        | Error _ -> false))

let qcheck = Qcheck_seed.qcheck

let test_scratch_reuse () =
  (* Same results with and without scratch, and no state leak between
     runs through uninitialized locals. *)
  let p =
    simple ~scalar_slots:[| rw_scalar "Out" 0 |]
      [| Op.Load 1; Op.Push 1L; Op.Add; Op.Store 1; Op.Load 1; Op.Store 0 |]
  in
  let scratch = Interp.make_scratch p in
  let run_with sc =
    let env = Interp.make_env p ~scalars:[| 0L |] ~arrays:[||] in
    (match Interp.run ?scratch:sc p ~env ~now ~rng:(rng ()) with
    | Ok _ -> ()
    | Error (f, _) -> Alcotest.failf "fault: %s" (Interp.fault_to_string f));
    env.Interp.scalars.(0)
  in
  (* local 1 starts at 0 each run: result is always 1 even when the
     previous run left 1 in the same buffer. *)
  Alcotest.(check int64) "fresh" 1L (run_with None);
  Alcotest.(check int64) "scratch run 1" 1L (run_with (Some scratch));
  Alcotest.(check int64) "scratch run 2 (no leak)" 1L (run_with (Some scratch))

let test_scratch_too_small_rejected () =
  let small = simple ~stack_limit:4 [| Op.Push 1L; Op.Pop |] in
  let big = simple ~stack_limit:32 [| Op.Push 1L; Op.Pop |] in
  let sc = Interp.make_scratch small in
  let env = Interp.make_env big ~scalars:[||] ~arrays:[||] in
  Alcotest.check_raises "rejected"
    (Invalid_argument "Interp.run: scratch buffers too small for this program")
    (fun () -> ignore (Interp.run ~scratch:sc big ~env ~now ~rng:(rng ())))


(* The interpreter is safe on programs the verifier never saw: stack
   depth, locals, env slots and jump targets are checked at run time, so
   a bad program faults or raises [Invalid_argument] and never reaches
   past the machine's buffers. *)
let test_unverified_stays_in_machine () =
  let unverified ?(stack_limit = 2) code =
    Program.make ~name:"unverified" ~code ~n_locals:2 ~stack_limit ~heap_limit:8
      ~step_limit:100 ()
  in
  let fault code =
    match run_prog (unverified code) with
    | Error (f, s), _ -> (f, s)
    | Ok _, _ -> Alcotest.fail "expected a fault"
  in
  (match fault [| Op.Push 1L; Op.Add |] with
  | Interp.Operand_stack_underflow { pc = 1 }, _ -> ()
  | f, _ -> Alcotest.failf "underflow: got %s" (Interp.fault_to_string f));
  (match fault [| Op.Push 1L; Op.Dup; Op.Dup |] with
  | Interp.Operand_stack_overflow { pc = 2 }, s ->
    check_int "peak at the limit" 2 s.Interp.max_stack
  | f, _ -> Alcotest.failf "overflow: got %s" (Interp.fault_to_string f));
  let raises what code =
    check_bool what true
      (match run_prog (unverified code) with
      | _ -> false
      | exception Invalid_argument _ -> true)
  in
  raises "local past the machine" [| Op.Load 2 |];
  raises "local index wrapping the byte offset" [| Op.Load (1 lsl 60) |];
  raises "negative local" [| Op.Push 1L; Op.Store (-1) |];
  raises "env slot past the env" [| Op.Galen 0 |];
  raises "jump before the code" [| Op.Jmp (-1) |];
  let huge = unverified ~stack_limit:(1 lsl 61) [| Op.Push 1L |] in
  Alcotest.check_raises "stack limit past the machine"
    (Invalid_argument "Interp.run: scratch buffers too small for this program") (fun () ->
      ignore
        (Interp.run
           ~scratch:(Interp.make_scratch (unverified [| Op.Push 1L |]))
           huge
           ~env:(Interp.make_env huge ~scalars:[||] ~arrays:[||])
           ~now ~rng:(rng ())))

let bytecode_suites =
    [
      ( "interp",
        [
          Alcotest.test_case "arithmetic" `Quick test_arith;
          Alcotest.test_case "bitwise" `Quick test_bitwise;
          Alcotest.test_case "comparisons" `Quick test_comparisons;
          Alcotest.test_case "stack ops" `Quick test_stack_ops;
          Alcotest.test_case "branching" `Quick test_branching;
          Alcotest.test_case "loop sum" `Quick test_loop_sum;
          Alcotest.test_case "scalar env roundtrip" `Quick test_scalar_env_roundtrip;
          Alcotest.test_case "read-only scalars stay put" `Quick
            test_readonly_scalar_not_written_back;
          Alcotest.test_case "env arrays" `Quick test_env_arrays;
          Alcotest.test_case "galen" `Quick test_galen;
          Alcotest.test_case "heap arrays" `Quick test_heap_arrays;
          Alcotest.test_case "clock" `Quick test_clock_intrinsic;
          Alcotest.test_case "rand" `Quick test_rand_intrinsic;
          Alcotest.test_case "hashmix" `Quick test_hashmix_deterministic;
          Alcotest.test_case "stats" `Quick test_stats_reported;
          Alcotest.test_case "scratch reuse" `Quick test_scratch_reuse;
          Alcotest.test_case "scratch too small" `Quick test_scratch_too_small_rejected;
        ] );
      ( "faults",
        [
          Alcotest.test_case "division by zero" `Quick test_division_by_zero;
          Alcotest.test_case "step limit" `Quick test_step_limit;
          Alcotest.test_case "unverified programs stay in the machine" `Quick
            test_unverified_stays_in_machine;
          Alcotest.test_case "array bounds" `Quick test_array_bounds_fault;
          Alcotest.test_case "negative index" `Quick test_negative_index_fault;
          Alcotest.test_case "heap exhausted" `Quick test_heap_exhausted;
          Alcotest.test_case "bad rand bound" `Quick test_bad_rand_bound;
          Alcotest.test_case "invalid heap ref" `Quick test_invalid_heap_ref;
          Alcotest.test_case "fault isolation" `Quick test_fault_keeps_scalars_unpublished;
        ] );
      ( "verifier",
        [
          Alcotest.test_case "accepts good code" `Quick test_verify_ok;
          Alcotest.test_case "empty" `Quick test_verify_empty;
          Alcotest.test_case "bad jump" `Quick test_verify_bad_jump;
          Alcotest.test_case "underflow" `Quick test_verify_underflow;
          Alcotest.test_case "overflow" `Quick test_verify_overflow;
          Alcotest.test_case "inconsistent depth" `Quick test_verify_inconsistent_depth;
          Alcotest.test_case "bad local" `Quick test_verify_bad_local;
          Alcotest.test_case "bad slot" `Quick test_verify_bad_slot;
          Alcotest.test_case "readonly array write" `Quick test_verify_readonly_array_write;
          Alcotest.test_case "max depth" `Quick test_verify_max_depth;
        ] );
      ( "asm",
        [
          Alcotest.test_case "labels" `Quick test_asm_labels;
          Alcotest.test_case "undefined label" `Quick test_asm_undefined_label;
          Alcotest.test_case "duplicate label" `Quick test_asm_duplicate_label;
        ] );
      ( "properties", [ qcheck prop_vm_total; qcheck prop_verified_linear_runs_clean ] );
    ]

(* ------------------------------------------------------------------ *)
(* Codec: binary serialization round-trips and rejects corruption. *)

let sample_program () =
  Program.make ~name:"sample"
    ~code:
      [|
        Op.Push 10L; Op.Load 0; Op.Add; Op.Store 1; Op.Push 0L; Op.Gaload 0;
        Op.Jz 8; Op.Clock; Op.Halt;
      |]
    ~scalar_slots:[| ro_scalar "In" 0; rw_scalar "Out" 1 |]
    ~array_slots:[| ro_array "Tbl" |]
    ~stack_limit:16 ~heap_limit:64 ~step_limit:500 ()

let test_codec_roundtrip () =
  let p = sample_program () in
  let encoded = Codec.encode p in
  match Codec.decode encoded with
  | Error e -> Alcotest.failf "decode failed: %s" (Codec.error_to_string e)
  | Ok p' ->
    check_bool "name" true (String.equal p'.Program.name p.Program.name);
    check_bool "code" true (p'.Program.code = p.Program.code);
    check_bool "scalars" true (p'.Program.scalar_slots = p.Program.scalar_slots);
    check_bool "arrays" true (p'.Program.array_slots = p.Program.array_slots);
    check_int "stack" p.Program.stack_limit p'.Program.stack_limit;
    check_int "heap" p.Program.heap_limit p'.Program.heap_limit;
    check_int "steps" p.Program.step_limit p'.Program.step_limit;
    check_int "locals" p.Program.n_locals p'.Program.n_locals

let test_codec_deterministic () =
  let p = sample_program () in
  check_bool "stable" true (String.equal (Codec.encode p) (Codec.encode p))

let test_codec_rejects_garbage () =
  check_bool "empty" true (Result.is_error (Codec.decode ""));
  check_bool "bad magic" true (Result.is_error (Codec.decode "NOPE\x01"));
  let p = sample_program () in
  let good = Codec.encode p in
  (* Truncations at every prefix length must fail, not crash. *)
  for len = 0 to String.length good - 1 do
    check_bool
      (Printf.sprintf "truncated at %d" len)
      true
      (Result.is_error (Codec.decode (String.sub good 0 len)))
  done;
  (* Trailing junk rejected. *)
  check_bool "trailing" true (Result.is_error (Codec.decode (good ^ "x")))

let test_codec_bad_version () =
  let good = Codec.encode (sample_program ()) in
  let bad = Bytes.of_string good in
  Bytes.set bad 4 '\xFF';
  (match Codec.decode (Bytes.to_string bad) with
  | Error e -> check_bool "mentions version" true
      (let m = Codec.error_to_string e in
       let rec has i = i + 7 <= String.length m && (String.sub m i 7 = "version" || has (i+1)) in
       has 0)
  | Ok _ -> Alcotest.fail "bad version accepted");
  (* Corrupt an opcode tag deep in the stream. *)
  let bad2 = Bytes.of_string good in
  Bytes.set bad2 (Bytes.length bad2 - 1) '\xEE';
  check_bool "corrupt tail rejected" true (Result.is_error (Codec.decode (Bytes.to_string bad2)))

(* Tags 38 and 39 once named unchecked array accesses; every array access
   is now checked, so a blob carrying them must be refused at decode. *)
let test_codec_retired_tags () =
  let p = Eden_functions.Pias.program () in
  let size code = String.length (Codec.encode { p with Program.code }) in
  let header = size [||] in
  let rec tag_offset pc off =
    match p.Program.code.(pc) with
    | Op.Gaload _ -> off
    | op -> tag_offset (pc + 1) (off + size [| op |] - header)
  in
  let off = tag_offset 0 header in
  List.iter
    (fun tag ->
      let blob = Bytes.of_string (Codec.encode p) in
      Bytes.set blob off (Char.chr tag);
      match Codec.decode (Bytes.to_string blob) with
      | Error e ->
        Alcotest.(check string) "names the tag" (Printf.sprintf "bad opcode tag %d" tag)
          e.Codec.message
      | Ok _ -> Alcotest.failf "retired tag %d decoded" tag)
    [ 38; 39 ]

let test_codec_decoded_runs_identically () =
  let p = sample_program () in
  let p' = Result.get_ok (Codec.decode (Codec.encode p)) in
  let run prog =
    let env = Interp.make_env prog ~scalars:[| 32L; 0L |] ~arrays:[| [| 1L; 2L |] |] in
    let r = Interp.run prog ~env ~now ~rng:(rng ()) in
    (r, env.Interp.scalars.(1))
  in
  let r1, out1 = run p in
  let r2, out2 = run p' in
  check_bool "same outcome" true (Result.is_ok r1 = Result.is_ok r2);
  Alcotest.(check int64) "same output" out1 out2

let prop_codec_roundtrip_random =
  let gen_op =
    QCheck.Gen.oneof
      [
        QCheck.Gen.map (fun v -> Op.Push (Int64.of_int v)) QCheck.Gen.int;
        QCheck.Gen.map (fun i -> Op.Load (abs i mod 8)) QCheck.Gen.small_int;
        QCheck.Gen.map (fun i -> Op.Jmp (abs i mod 64)) QCheck.Gen.small_int;
        QCheck.Gen.oneofl
          [ Op.Add; Op.Sub; Op.Mul; Op.Div; Op.Rem; Op.Neg; Op.Band; Op.Bor; Op.Bxor;
            Op.Shl; Op.Shr; Op.Not; Op.Eq; Op.Ne; Op.Lt; Op.Le; Op.Gt; Op.Ge; Op.Pop;
            Op.Dup; Op.Swap; Op.Newarr; Op.Aload; Op.Astore; Op.Alen; Op.Rand; Op.Clock;
            Op.Hashmix; Op.Halt ];
      ]
  in
  QCheck.Test.make ~name:"codec round-trips arbitrary programs" ~count:300
    (QCheck.make (QCheck.Gen.array_size (QCheck.Gen.int_range 1 64) gen_op))
    (fun code ->
      let p = simple code in
      match Codec.decode (Codec.encode p) with
      | Ok p' -> p'.Program.code = p.Program.code
      | Error _ -> false)

let () =
  Qcheck_seed.announce ();
  Alcotest.run "eden_bytecode"
    (bytecode_suites
    @ [
      ( "codec",
        [
          Alcotest.test_case "roundtrip" `Quick test_codec_roundtrip;
          Alcotest.test_case "deterministic" `Quick test_codec_deterministic;
          Alcotest.test_case "rejects garbage" `Quick test_codec_rejects_garbage;
          Alcotest.test_case "bad version" `Quick test_codec_bad_version;
          Alcotest.test_case "retired tags rejected" `Quick test_codec_retired_tags;
          Alcotest.test_case "decoded runs identically" `Quick
            test_codec_decoded_runs_identically;
          qcheck prop_codec_roundtrip_random;
        ] );
      ])
