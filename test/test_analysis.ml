(* Tests for the install-time analysis pipeline: effect footprints,
   bounds proofs and hardening, cost admission, the AST optimizer, and
   the verifier/typechecker edge cases the pipeline leans on. *)

open Eden_analysis
module Ast = Eden_lang.Ast
module Schema = Eden_lang.Schema
module Typecheck = Eden_lang.Typecheck
module Compile = Eden_lang.Compile
module P = Eden_bytecode.Program
module Op = Eden_bytecode.Opcode
module Interp = Eden_bytecode.Interp
module Verifier = Eden_bytecode.Verifier
module Enclave = Eden_enclave.Enclave

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let now = Eden_base.Time.us 100

let compile_exn ?step_limit schema action =
  match Compile.compile ?step_limit schema action with
  | Ok p -> p
  | Error e -> Alcotest.failf "compile: %s" (Compile.error_to_string e)

(* ------------------------------------------------------------------ *)
(* Effect footprints of the paper functions *)

let concurrency schema action = (P.footprint (compile_exn schema action)).P.concurrency

let test_effects_wcmp () =
  let fp = Effects.of_action Eden_functions.Wcmp.action in
  check_bool "writes packet.Path" true
    (List.mem (Ast.Packet, "Path", `Write) fp.Effects.fields);
  check_bool "reads _global.Paths" true
    (List.mem (Ast.Global, "Paths", `Read) fp.Effects.arrays);
  check_bool "no array writes" true
    (List.for_all (fun (_, _, a) -> a = `Read) fp.Effects.arrays);
  check_bool "uses rand" true fp.Effects.uses_rand;
  check_bool "parallel" true
    (concurrency Eden_functions.Wcmp.schema Eden_functions.Wcmp.action = `Parallel)

let test_effects_pias () =
  let fp = Effects.of_action Eden_functions.Pias.action in
  check_bool "writes msg.Size" true
    (List.mem (Ast.Message, "Size", `Write) fp.Effects.fields);
  check_bool "reads _global.Thresholds" true
    (List.mem (Ast.Global, "Thresholds", `Read) fp.Effects.arrays);
  check_bool "per-message" true
    (concurrency Eden_functions.Pias.schema Eden_functions.Pias.action = `Per_message)

let test_effects_sff () =
  check_bool "parallel: no message or global writes" true
    (concurrency Eden_functions.Sff.schema Eden_functions.Sff.action = `Parallel)

let test_effects_port_knocking_serial () =
  check_bool "serial: writes global state" true
    (concurrency Eden_functions.Port_knocking.schema Eden_functions.Port_knocking.action
    = `Serial)

(* The AST footprint writes an entity exactly when the compiled program
   declares a writable slot of it. *)
let test_effects_agree_with_enclave () =
  List.iter
    (fun (name, action, schema) ->
      let fp = Effects.of_action action in
      let declared = (P.footprint (compile_exn schema action)).P.writes in
      List.iter
        (fun (ast_entity, entity) ->
          let writes l = List.exists (fun (e, _, acc) -> e = ast_entity && acc = `Write) l in
          check_bool
            (Printf.sprintf "%s: AST and bytecode agree on %s writes" name
               (P.entity_to_string entity))
            (writes fp.Effects.fields || writes fp.Effects.arrays)
            (List.mem entity declared))
        [ (Ast.Packet, P.Packet); (Ast.Message, P.Message); (Ast.Global, P.Global) ])
    [
      ("wcmp", Eden_functions.Wcmp.action, Eden_functions.Wcmp.schema);
      ("pias", Eden_functions.Pias.action, Eden_functions.Pias.schema);
      ("sff", Eden_functions.Sff.action, Eden_functions.Sff.schema);
      ( "port_knocking",
        Eden_functions.Port_knocking.action,
        Eden_functions.Port_knocking.schema );
    ]

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_reject_readonly_write () =
  let action =
    let open Eden_lang.Dsl in
    action "bad" (set_pkt "Size" (int 0))
  in
  let schema = Schema.with_standard_packet () in
  check_bool "diagnostics flag the write" true
    (Effects.diagnostics schema action <> []);
  match Analyze.run schema action with
  | Error (Analyze.Rejected ds) ->
    check_bool "names the field" true (List.exists (fun d -> contains_sub d "Size") ds)
  | _ -> Alcotest.fail "expected Rejected"

(* ------------------------------------------------------------------ *)
(* Bounds proofs and hardening *)

let run_summary p ~env ~seed =
  let rng = Eden_base.Rng.create seed in
  match Interp.run p ~env ~now ~rng with
  | Ok _ -> None
  | Error (f, _) -> Some (Interp.fault_to_string f)

(* A loop over a min_length array: the guard survives widening and every
   access is proved; the hardened program must run identically. *)
let scan_action =
  let open Eden_lang.Dsl in
  action "scan"
    (let_mut "i" (int 0) @@ fun i ->
     let_mut "acc" (int 0) @@ fun acc ->
     while_ (i < glob_arr_len "Table")
       (assign "acc" (acc + glob_arr "Table" i) ^^ assign "i" (i + int 1))
     ^^ set_pkt "Priority" (acc % int 8))

let scan_schema =
  Schema.with_standard_packet
    ~global_arrays:[ Schema.array ~min_length:16 "Table" ] ()

let test_bounds_loop_proved () =
  let p = compile_exn scan_schema scan_action in
  let bounds, hardened = Bounds.of_program p in
  check_int "one array access" 1 bounds.Bounds.total;
  check_int "proved through the loop" 1 bounds.Bounds.proved;
  check_bool "hardened uses an unchecked load" true
    (Array.exists (function Op.Gaload_unsafe _ -> true | _ -> false)
       hardened.P.code);
  (match Verifier.analyse ~strict:true hardened with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "hardened rejected: %s" (Verifier.error_to_string e));
  (* Differential: checked and hardened agree on result and state. *)
  let mk p =
    Interp.make_env p
      ~scalars:(Array.make (Array.length p.P.scalar_slots) 0L)
      ~arrays:
        (Array.map
           (fun (a : P.array_slot) ->
             match a.P.a_name with
             | "Table" -> Array.init 16 (fun i -> Int64.of_int (i * 3))
             | _ -> [||])
           p.P.array_slots)
  in
  let env_c = mk p and env_h = mk hardened in
  let r_c = run_summary p ~env:env_c ~seed:7L in
  let r_h = run_summary hardened ~env:env_h ~seed:7L in
  check_bool "same outcome" true (r_c = r_h);
  check_bool "same final scalars" true (env_c.Interp.scalars = env_h.Interp.scalars)

let test_harden_wcmp_offset_route () =
  (* wcmp's guard is [i + 1 >= len]: the offset-provenance route.  Three
     of the four accesses prove; the fallback load on the exhausted
     branch is only dynamically safe and must stay checked. *)
  let bounds, hardened = Bounds.of_program (Eden_functions.Wcmp.program ()) in
  check_int "total" 4 bounds.Bounds.total;
  check_int "proved" 3 bounds.Bounds.proved;
  match Verifier.analyse ~strict:true hardened with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "hardened rejected: %s" (Verifier.error_to_string e)

let test_harden_pias_plain_route () =
  let bounds, hardened = Bounds.of_program (Eden_functions.Pias.program ()) in
  check_int "total" 1 bounds.Bounds.total;
  check_int "proved" 1 bounds.Bounds.proved;
  match Verifier.analyse ~strict:true hardened with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "hardened rejected: %s" (Verifier.error_to_string e)

let test_differential_wcmp_random () =
  let p = Eden_functions.Wcmp.program () in
  let _, hardened = Bounds.of_program p in
  let st = Random.State.make [| 42 |] in
  for trial = 1 to 100 do
    (* Interleaved (path, weight) pairs; weights deliberately sometimes
       sum below the rand bound so the checked fallback access can fault
       — the hardened program must fault identically. *)
    let paths =
      Array.init 4 (fun i ->
          if i mod 2 = 0 then Int64.of_int (i / 2)
          else Int64.of_int (1 + Random.State.int st 700))
    in
    let mk p =
      Interp.make_env p
        ~scalars:(Array.make (Array.length p.P.scalar_slots) 0L)
        ~arrays:(Array.map (fun _ -> Array.copy paths) p.P.array_slots)
    in
    let env_c = mk p and env_h = mk hardened in
    let seed = Int64.of_int trial in
    let r_c = run_summary p ~env:env_c ~seed in
    let r_h = run_summary hardened ~env:env_h ~seed in
    if r_c <> r_h then
      Alcotest.failf "trial %d: checked %s vs hardened %s" trial
        (match r_c with None -> "ok" | Some f -> f)
        (match r_h with None -> "ok" | Some f -> f);
    check_bool "same scalars" true (env_c.Interp.scalars = env_h.Interp.scalars)
  done

let test_unsafe_bytecode_rejected () =
  (* Hand-crafted unchecked access with no provable bound: the verifier
     re-discharges the proof obligation and must refuse to install. *)
  let p =
    P.make ~name:"evil"
      ~code:[| Op.Push 5L; Op.Gaload_unsafe 0; Op.Pop; Op.Halt |]
      ~array_slots:
        [|
          { P.a_name = "T"; a_entity = P.Global; a_access = P.Read_only;
            a_min_len = 0 };
        |]
      ()
  in
  match Verifier.verify p with
  | Error (Verifier.Unproved_unsafe { pc = 1; slot = 0 }) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Verifier.error_to_string e)
  | Ok () -> Alcotest.fail "unsafe access verified without a proof"

let test_unsafe_bytecode_accepted_with_min_len () =
  let p =
    P.make ~name:"fine"
      ~code:[| Op.Push 5L; Op.Gaload_unsafe 0; Op.Pop; Op.Halt |]
      ~array_slots:
        [|
          { P.a_name = "T"; a_entity = P.Global; a_access = P.Read_only;
            a_min_len = 6 };
        |]
      ()
  in
  match Verifier.verify p with
  | Ok () -> ()
  | Error e -> Alcotest.failf "rejected: %s" (Verifier.error_to_string e)

(* ------------------------------------------------------------------ *)
(* Cost bounds and admission *)

let test_cost_acyclic_exact () =
  let action =
    let open Eden_lang.Dsl in
    action "straight" (set_pkt "Priority" (pkt "Size" % int 8))
  in
  let p = compile_exn (Schema.with_standard_packet ()) action in
  let c = Cost.of_program p in
  check_bool "acyclic WCET is exact" true (c.Cost.wcet_steps <> None);
  check_bool "charged below the step limit" true
    (c.Cost.admission_steps < c.Cost.step_limit);
  List.iter
    (fun (e : Cost.estimate) ->
      check_bool (e.Cost.placement ^ " fits") true e.Cost.fits)
    c.Cost.estimates

let test_cost_loop_uses_step_limit () =
  let p = compile_exn scan_schema scan_action in
  let c = Cost.of_program p in
  check_bool "looping WCET unknown" true (c.Cost.wcet_steps = None);
  check_int "charged the step limit" c.Cost.step_limit c.Cost.admission_steps

let test_over_budget_install_rejected () =
  let e = Enclave.create ~host:1 () in
  Enclave.set_budget_ns e 10.0;
  let p = Eden_functions.Pias.program () in
  (match
     Enclave.install_action_full e
       { Enclave.i_name = "pias"; i_impl = Enclave.Interpreted p; i_msg_sources = [] }
   with
  | Error (Enclave.Over_budget { est_ns; budget_ns; _ }) ->
    check_bool "estimate exceeds budget" true (est_ns > budget_ns)
  | Error e -> Alcotest.failf "wrong error: %s" (Enclave.install_error_to_string e)
  | Ok () -> Alcotest.fail "over-budget program admitted");
  (* The static cost report predicts the same decision. *)
  let c = Cost.of_program p in
  List.iter
    (fun (est : Cost.estimate) ->
      check_bool (est.Cost.placement ^ " admitted at default budget") true
        est.Cost.fits)
    c.Cost.estimates

(* The analyzer's estimate is the figure admission control computes: on
   each placement, an interpreted install under a budget too tight for it
   reports exactly the analyzer's [est_ns] and steps. *)
let test_estimate_equals_admission () =
  List.iter
    (fun (name, p) ->
      let c = Cost.of_program p in
      List.iter
        (fun (est : Cost.estimate) ->
          let placement =
            List.find
              (fun pl -> Enclave.placement_to_string pl = est.Cost.placement)
              [ Enclave.Os; Enclave.Nic ]
          in
          let e = Enclave.create ~placement ~host:1 () in
          Enclave.set_budget_ns e 1.0;
          match
            Enclave.install_action_full e
              { Enclave.i_name = name; i_impl = Enclave.Interpreted p; i_msg_sources = [] }
          with
          | Error (Enclave.Over_budget { est_ns; steps; _ }) ->
            let what = Printf.sprintf "%s on %s" name est.Cost.placement in
            check_bool (what ^ ": est_ns") true (est_ns = est.Cost.est_ns);
            check_int (what ^ ": steps") c.Cost.admission_steps steps
          | Error e -> Alcotest.failf "wrong error: %s" (Enclave.install_error_to_string e)
          | Ok () -> Alcotest.failf "%s admitted under a 1 ns budget" name)
        c.Cost.estimates)
    [ ("pias", Eden_functions.Pias.program ()); ("scan", compile_exn scan_schema scan_action) ]

(* ------------------------------------------------------------------ *)
(* Optimizer *)

let test_optimizer_shrinks_and_preserves () =
  let wasteful =
    let open Eden_lang.Dsl in
    action "wasteful"
      (if_ tru
         (set_pkt "Priority" ((pkt "Size" + int 0) * int 1 % (int 4 + int 4)))
         (set_pkt "Priority" (int 99)))
  in
  let optimized, stats = Optimize.run wasteful in
  check_bool "fewer nodes" true
    (stats.Optimize.nodes_after < stats.Optimize.nodes_before);
  let schema = Schema.with_standard_packet () in
  let run action =
    let p = compile_exn schema action in
    let scalars = Array.make (Array.length p.P.scalar_slots) 0L in
    Array.iteri
      (fun i (s : P.scalar_slot) -> if s.P.s_name = "Size" then scalars.(i) <- 1058L)
      p.P.scalar_slots;
    let env = Interp.make_env p ~scalars ~arrays:[||] in
    match Interp.run p ~env ~now ~rng:(Eden_base.Rng.create 1L) with
    | Ok _ -> env.Interp.scalars
    | Error (f, _) -> Alcotest.failf "fault: %s" (Interp.fault_to_string f)
  in
  check_bool "same final state" true (run wasteful = run optimized)

let test_optimizer_keeps_effects () =
  (* A discarded-but-effectful sequence head must survive. *)
  let open Eden_lang.Dsl in
  let a =
    action "effectful" (set_msg "Seen" (msg "Seen" + int 1) ^^ unit)
  in
  let optimized, _ = Optimize.run a in
  let fp = Effects.of_action optimized in
  check_bool "write survives" true
    (List.mem (Ast.Message, "Seen", `Write) fp.Effects.fields)

(* ------------------------------------------------------------------ *)
(* Analyze.run over every built-in *)

let test_analyze_all_builtins () =
  List.iter
    (fun (name, action, schema) ->
      match Analyze.run schema action with
      | Error e ->
        Alcotest.failf "%s: %s" name (Analyze.error_to_string e)
      | Ok (report, hardened) ->
        check_bool (name ^ ": bounds accounted") true
          (report.Report.r_bounds.Bounds.proved
           <= report.Report.r_bounds.Bounds.total);
        check_bool (name ^ ": fits both placements") true
          (List.for_all
             (fun (e : Cost.estimate) -> e.Cost.fits)
             report.Report.r_cost.Cost.estimates);
        check_bool (name ^ ": hardened re-verifies") true
          (Verifier.verify ~strict:true hardened = Ok ()))
    [
      ("wcmp", Eden_functions.Wcmp.action, Eden_functions.Wcmp.schema);
      ("message-wcmp", Eden_functions.Wcmp.message_action, Eden_functions.Wcmp.schema);
      ("pias", Eden_functions.Pias.action, Eden_functions.Pias.schema);
      ("sff", Eden_functions.Sff.action, Eden_functions.Sff.schema);
      ("pulsar", Eden_functions.Pulsar.action, Eden_functions.Pulsar.schema);
      ( "port-knocking",
        Eden_functions.Port_knocking.action,
        Eden_functions.Port_knocking.schema );
      ( "replica-select",
        Eden_functions.Replica_select.action,
        Eden_functions.Replica_select.schema );
    ]

(* ------------------------------------------------------------------ *)
(* Verifier: unreachable-code analysis *)

let test_unreachable_reported () =
  let p =
    P.make ~name:"dead"
      ~code:[| Op.Push 1L; Op.Jmp 3; Op.Push 2L; Op.Pop; Op.Halt |]
      ()
  in
  (match Verifier.analyse p with
  | Ok an -> Alcotest.(check (list int)) "pc 2 is dead" [ 2 ]
               an.Verifier.an_unreachable
  | Error e -> Alcotest.failf "analyse: %s" (Verifier.error_to_string e));
  match Verifier.analyse ~strict:true p with
  | Error (Verifier.Unreachable_code { pc = 2 }) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Verifier.error_to_string e)
  | Ok _ -> Alcotest.fail "strict mode accepted dead code"

(* ------------------------------------------------------------------ *)
(* Typechecker: recursive functions return int by convention *)

let test_recursive_returns_int () =
  let open Eden_lang.Dsl in
  let f = fn "f" [ "i" ] (if_ (var "i" >= int 10) (int 0) (call "f" [ var "i" + int 1 ])) in
  let a = action ~funs:[ f ] "ok" (set_pkt "Priority" (call "f" [ int 0 ])) in
  match Typecheck.check (Schema.with_standard_packet ()) a with
  | Ok () -> ()
  | Error e -> Alcotest.failf "rejected: %s" e.Typecheck.message

let test_recursive_bool_branch_rejected () =
  (* One branch returns bool while the recursive occurrence is assumed
     int: the convention makes this a type error, not a loop. *)
  let open Eden_lang.Dsl in
  let f = fn "f" [ "i" ] (if_ (var "i" >= int 10) tru (call "f" [ var "i" + int 1 ])) in
  let a = action ~funs:[ f ] "bad" (set_pkt "Priority" (call "f" [ int 0 ])) in
  check_bool "rejected" true
    (Typecheck.check (Schema.with_standard_packet ()) a |> Result.is_error)

let test_recursive_result_not_a_condition () =
  let open Eden_lang.Dsl in
  let f = fn "f" [ "i" ] (if_ (var "i" >= int 10) (int 1) (call "f" [ var "i" + int 1 ])) in
  let a =
    action ~funs:[ f ] "bad"
      (when_ (call "f" [ int 0 ]) (set_pkt "Priority" (int 1)))
  in
  check_bool "int result rejected as condition" true
    (Typecheck.check (Schema.with_standard_packet ()) a |> Result.is_error)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "eden_analysis"
    [
      ( "effects",
        [
          Alcotest.test_case "wcmp footprint" `Quick test_effects_wcmp;
          Alcotest.test_case "pias footprint" `Quick test_effects_pias;
          Alcotest.test_case "sff parallel" `Quick test_effects_sff;
          Alcotest.test_case "port knocking serial" `Quick
            test_effects_port_knocking_serial;
          Alcotest.test_case "agrees with enclave" `Quick
            test_effects_agree_with_enclave;
          Alcotest.test_case "rejects read-only write" `Quick
            test_reject_readonly_write;
        ] );
      ( "bounds",
        [
          Alcotest.test_case "loop proof survives widening" `Quick
            test_bounds_loop_proved;
          Alcotest.test_case "wcmp offset route" `Quick test_harden_wcmp_offset_route;
          Alcotest.test_case "pias plain route" `Quick test_harden_pias_plain_route;
          Alcotest.test_case "differential wcmp random" `Quick
            test_differential_wcmp_random;
          Alcotest.test_case "unsafe bytecode rejected" `Quick
            test_unsafe_bytecode_rejected;
          Alcotest.test_case "unsafe ok with min_len" `Quick
            test_unsafe_bytecode_accepted_with_min_len;
        ] );
      ( "cost",
        [
          Alcotest.test_case "acyclic exact" `Quick test_cost_acyclic_exact;
          Alcotest.test_case "loop uses step limit" `Quick
            test_cost_loop_uses_step_limit;
          Alcotest.test_case "over budget rejected" `Quick
            test_over_budget_install_rejected;
          Alcotest.test_case "estimate equals admission" `Quick
            test_estimate_equals_admission;
        ] );
      ( "optimizer",
        [
          Alcotest.test_case "shrinks and preserves" `Quick
            test_optimizer_shrinks_and_preserves;
          Alcotest.test_case "keeps effects" `Quick test_optimizer_keeps_effects;
        ] );
      ( "pipeline",
        [ Alcotest.test_case "all built-ins" `Quick test_analyze_all_builtins ] );
      ( "verifier",
        [ Alcotest.test_case "unreachable" `Quick test_unreachable_reported ] );
      ( "typecheck",
        [
          Alcotest.test_case "recursion returns int" `Quick
            test_recursive_returns_int;
          Alcotest.test_case "bool branch rejected" `Quick
            test_recursive_bool_branch_rejected;
          Alcotest.test_case "int result not a condition" `Quick
            test_recursive_result_not_a_condition;
        ] );
    ]
