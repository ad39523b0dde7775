(* Differential tests for the closure-compiled engine: Compiled.run must
   be observationally identical to Interp.run — same published env, same
   faults (constructor, pc, payload), same steps/max_stack/heap_cells —
   on the paper's example functions and on randomized verifier-accepted
   programs that exercise every fault class, loops (bulk step charging +
   the handoff to the interpreter) and the heap. *)

open Eden_bytecode
module Op = Opcode
module G = QCheck.Gen

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Differential runner *)

let copy_env (env : Interp.env) =
  {
    Interp.scalars = Array.copy env.Interp.scalars;
    arrays = Array.map Array.copy env.Interp.arrays;
  }

let fault_str = Interp.fault_to_string

let stats_str (s : Interp.stats) =
  Printf.sprintf "steps=%d max_stack=%d heap_cells=%d" s.Interp.steps s.Interp.max_stack
    s.Interp.heap_cells

(* Runs both engines on private copies of [env] with identically seeded
   rngs; returns an error description on any observable divergence. *)
let differential ?(now = Eden_base.Time.us 100) ?(seed = 42L) (p : Program.t)
    (env : Interp.env) : (unit, string) result =
  match Compiled.compile p with
  | Error e -> Error ("compile refused a verified program: " ^ Verifier.error_to_string e)
  | Ok cp ->
    let env_i = copy_env env and env_c = copy_env env in
    (* [Rng.int] escapes both VMs with [Invalid_argument] when a huge
       bound wraps negative through [Int64.to_int]; the engines must
       agree even on that. *)
    let guard f = match f () with v -> `R v | exception Invalid_argument m -> `Inv m in
    let gi = guard (fun () -> Interp.run p ~env:env_i ~now ~rng:(Eden_base.Rng.create seed)) in
    let gc = guard (fun () -> Compiled.run cp ~env:env_c ~now ~rng:(Eden_base.Rng.create seed)) in
    match (gi, gc) with
    | `Inv a, `Inv b ->
      if String.equal a b then Ok ()
      else Error (Printf.sprintf "Invalid_argument differ: %s vs %s" a b)
    | `Inv a, `R _ -> Error ("interp raised Invalid_argument, compiled returned: " ^ a)
    | `R _, `Inv b -> Error ("compiled raised Invalid_argument, interp returned: " ^ b)
    | `R ri, `R rc ->

    let mismatch what a b = Error (Printf.sprintf "%s differ: interp=%s compiled=%s" what a b) in
    let check_stats (si : Interp.stats) (sc : Interp.stats) =
      if si <> sc then mismatch "stats" (stats_str si) (stats_str sc) else Ok ()
    in
    let check_env () =
      if env_i.Interp.scalars <> env_c.Interp.scalars then
        mismatch "published scalars"
          (String.concat "," (Array.to_list (Array.map Int64.to_string env_i.Interp.scalars)))
          (String.concat "," (Array.to_list (Array.map Int64.to_string env_c.Interp.scalars)))
      else if env_i.Interp.arrays <> env_c.Interp.arrays then
        Error "published arrays differ"
      else Ok ()
    in
    let ( let* ) = Result.bind in
    (match (ri, rc) with
    | Ok si, Ok sc ->
      let* () = check_stats si sc in
      check_env ()
    | Error (fi, si), Error (fc, sc) ->
      if fi <> fc then mismatch "faults" (fault_str fi) (fault_str fc)
      else
        let* () = check_stats si sc in
        check_env ()
    | Ok _, Error (fc, _) -> Error ("interp ok, compiled faulted: " ^ fault_str fc)
    | Error (fi, _), Ok _ -> Error ("interp faulted, compiled ok: " ^ fault_str fi))

(* ------------------------------------------------------------------ *)
(* The paper's example functions over randomized environments *)

let random_env (rand : Random.State.t) (p : Program.t) =
  let scalars =
    Array.map
      (fun _ -> Int64.of_int (Random.State.int rand 2048 - 16))
      (Array.make (Array.length p.Program.scalar_slots) ())
  in
  let arrays =
    Array.map
      (fun (s : Program.array_slot) ->
        let len = s.Program.a_min_len + Random.State.int rand 3 in
        Array.init len (fun _ -> Int64.of_int (Random.State.int rand 4096)))
      p.Program.array_slots
  in
  Interp.make_env p ~scalars ~arrays

let example_programs () =
  [
    ("wcmp", Eden_functions.Wcmp.program ());
    ("wcmp-message", Eden_functions.Wcmp.message_program ());
    ("pias", Eden_functions.Pias.program ());
    ("pulsar", Eden_functions.Pulsar.program ());
  ]

let test_examples_differential () =
  let rand = Random.State.make [| 7 |] in
  List.iter
    (fun (name, p) ->
      for i = 0 to 49 do
        let env = random_env rand p in
        match differential ~seed:(Int64.of_int (i * 31 + 1)) p env with
        | Ok () -> ()
        | Error msg -> Alcotest.failf "%s (env %d): %s" name i msg
      done)
    (example_programs ())

(* ------------------------------------------------------------------ *)
(* Random structured programs, verifier-accepted by construction — the
   generator lives in {!Progen} so the sharded-data-path differential
   (test_parallel) can replay the same program distribution. *)

let gen_structured = Progen.gen_structured

let prop_differential_fuzz =
  QCheck.Test.make ~name:"compiled = interpreted on random structured programs"
    ~count:600
    (QCheck.make gen_structured)
    (fun (p, scalars, arrays) ->
      match Verifier.verify p with
      | Error _ ->
        (* By construction this should not happen; treat as failure so
           generator rot is caught. *)
        false
      | Ok () -> (
        let env = Interp.make_env p ~scalars ~arrays in
        match differential p env with
        | Ok () -> true
        | Error msg ->
          QCheck.Test.fail_reportf "divergence: %s@.program: %a" msg Program.pp p))

(* The engine handoff on random programs: a block whose step budget
   runs out continues in the interpreter at its leader, so every step
   limit from 1 to one past the program's step count moves the handoff
   to another block or instruction.  The step count is taken under the
   program's own limit, capped at 200 so looping programs stay cheap. *)
let prop_handoff_every_step_limit =
  QCheck.Test.make ~name:"compiled = interpreted under every step limit" ~count:300
    (QCheck.make gen_structured)
    (fun (p, scalars, arrays) ->
      let env = Interp.make_env p ~scalars ~arrays in
      let capped = { p with Program.step_limit = min p.Program.step_limit 200 } in
      let steps =
        match
          Interp.run capped ~env:(copy_env env) ~now:(Eden_base.Time.us 100)
            ~rng:(Eden_base.Rng.create 42L)
        with
        | Ok s | Error (_, s) -> s.Interp.steps
        | exception Invalid_argument _ -> 0
      in
      let rec from limit =
        limit > steps + 1
        ||
        match differential { p with Program.step_limit = limit } env with
        | Ok () -> from (limit + 1)
        | Error msg ->
          QCheck.Test.fail_reportf "step_limit=%d: %s@.program: %a" limit msg Program.pp p
      in
      from 1)

(* ------------------------------------------------------------------ *)
(* Deterministic handoff coverage: a loop under every step limit from
   1 to just past its total cost must fault (or finish) identically. *)

let test_step_limit_boundaries () =
  let code =
    [|
      (* sum = 0; for i = 5 downto 1: sum += i *)
      (* 0 *) Op.Push 0L; Op.Store 1; Op.Push 5L; Op.Store 2;
      (* 4 *) Op.Load 2; Op.Jz 14;
      (* 6 *) Op.Load 1; Op.Load 2; Op.Add; Op.Store 1;
      (* 10 *) Op.Load 2; Op.Push 1L; Op.Sub; Op.Store 2;
      (* 14 is exit; 15 = jmp back *)
      Op.Load 1; Op.Store 0;
    |]
  in
  (* insert the back jump *)
  let code = Array.concat [ Array.sub code 0 14; [| Op.Jmp 4 |]; Array.sub code 14 2 ] in
  let scalar_slots =
    [|
      { Program.s_name = "Out"; s_entity = Program.Packet; s_access = Program.Read_write;
        s_local = 0 };
    |]
  in
  for limit = 1 to 45 do
    let p =
      Program.make ~name:"boundary" ~code ~scalar_slots ~n_locals:3 ~stack_limit:8
        ~heap_limit:8 ~step_limit:limit ()
    in
    let env = Interp.make_env p ~scalars:[| 0L |] ~arrays:[||] in
    match differential p env with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "step_limit=%d: %s" limit msg
  done

let test_compile_rejects_like_verifier () =
  let bad = [| Op.Add |] in
  let p =
    Program.make ~name:"bad" ~code:bad ~stack_limit:8 ~heap_limit:8 ~step_limit:100 ()
  in
  check_bool "verifier rejects" true (Result.is_error (Verifier.verify p));
  check_bool "compile rejects" true (Result.is_error (Compiled.compile p))

let test_exec_accessors () =
  let code = [| Op.Push 1L; Op.Push 2L; Op.Add; Op.Store 0 |] in
  let scalar_slots =
    [|
      { Program.s_name = "Out"; s_entity = Program.Packet; s_access = Program.Read_write;
        s_local = 0 };
    |]
  in
  let p =
    Program.make ~name:"acc" ~code ~scalar_slots ~stack_limit:8 ~heap_limit:8
      ~step_limit:100 ()
  in
  let cp = Result.get_ok (Compiled.compile p) in
  let env = Interp.make_env p ~scalars:[| 0L |] ~arrays:[||] in
  (match
     Compiled.exec cp ~env ~now:(Eden_base.Time.us 1) ~rng:(Eden_base.Rng.create 1L)
   with
  | None -> ()
  | Some f -> Alcotest.failf "fault: %s" (fault_str f));
  check_int "steps" 4 (Compiled.last_steps cp);
  check_int "max stack" 2 (Compiled.last_max_stack cp);
  check_int "heap" 0 (Compiled.last_heap_cells cp);
  Alcotest.(check int64) "published" 3L env.Interp.scalars.(0)

(* [Compiled.exec] keeps its machine state between calls and only redoes
   the entry work a call changes.  A run must still start from zeroed
   locals and an empty heap, and must read the env it is given.  The
   program below counts in a local it reads before writing
   ([Out = A[0] + (local 3 + 1)]), allocates when [Mode] is set, and
   otherwise dereferences the heap reference [Ref], which must then be
   stale. *)
let entry_program =
  let slot name access local =
    { Program.s_name = name; s_entity = Program.Packet; s_access = access; s_local = local }
  in
  Program.make ~name:"entry"
    ~code:
      [|
        Op.Load 3; Op.Push 1L; Op.Add; Op.Store 3;
        Op.Push 0L; Op.Gaload 0; Op.Load 3; Op.Add; Op.Store 2;
        Op.Load 0; Op.Jz 17;
        Op.Push 4L; Op.Newarr; Op.Push 0L; Op.Push 9L; Op.Astore; Op.Halt;
        Op.Load 1; Op.Push 0L; Op.Aload; Op.Load 2; Op.Add; Op.Store 2; Op.Halt;
      |]
    ~scalar_slots:
      [| slot "Mode" Program.Read_only 0; slot "Ref" Program.Read_only 1;
         slot "Out" Program.Read_write 2 |]
    ~array_slots:
      [| { Program.a_name = "A"; a_entity = Program.Global; a_access = Program.Read_only;
           a_min_len = 1 } |]
    ~n_locals:4 ~stack_limit:8 ~heap_limit:64 ~step_limit:100 ()

let test_exec_entry_invariants () =
  let p = entry_program in
  let cp = Result.get_ok (Compiled.compile p) in
  let env_a = Interp.make_env p ~scalars:[| 1L; 0L; 0L |] ~arrays:[| [| 10L |] |] in
  let env_c = Interp.make_env p ~scalars:[| 1L; 0L; 0L |] ~arrays:[| [| 20L |] |] in
  let run what env ~mode ~expect =
    env.Interp.scalars.(0) <- mode;
    let env_i = copy_env env in
    let now = Eden_base.Time.us 1 in
    let ri = Interp.run p ~env:env_i ~now ~rng:(Eden_base.Rng.create 1L) in
    let rc = Compiled.run cp ~env ~now ~rng:(Eden_base.Rng.create 1L) in
    let show = function
      | Ok s -> "ok " ^ stats_str s
      | Error (f, s) -> fault_str f ^ " " ^ stats_str s
    in
    Alcotest.(check string) (what ^ ": same result as Interp.run") (show ri) (show rc);
    Alcotest.(check (array int64))
      (what ^ ": same published scalars as Interp.run")
      env_i.Interp.scalars env.Interp.scalars;
    match (expect, rc) with
    | `Out v, Ok _ -> Alcotest.(check int64) (what ^ ": Out") v env.Interp.scalars.(2)
    | `Stale, Error (Interp.Invalid_reference { pc = 19 }, _) -> ()
    | _, _ -> Alcotest.failf "%s: unexpected %s" what (show rc)
  in
  run "allocating run" env_a ~mode:1L ~expect:(`Out 11L);
  run "stale heap reference" env_a ~mode:0L ~expect:`Stale;
  run "another env" env_c ~mode:1L ~expect:(`Out 21L);
  run "the first env again" env_a ~mode:1L ~expect:(`Out 11L)

let qcheck = Qcheck_seed.qcheck

(* ------------------------------------------------------------------ *)
(* Enclave-level engine differential: a whole enclave running Compiled
   actions must be packet-for-packet identical to one running the same
   programs Interpreted — decisions, packet mutations, step counts,
   faults — across the paper's functions and a mixed packet stream. *)

module Enclave = Eden_enclave.Enclave
module Addr = Eden_base.Addr
module Packet = Eden_base.Packet
module Metadata = Eden_base.Metadata
module Class_name = Eden_base.Class_name
module Time = Eden_base.Time

let mk_flow i =
  Addr.five_tuple
    ~src:(Addr.endpoint 1 (1000 + (i mod 5)))
    ~dst:(Addr.endpoint 2 80) ~proto:Addr.Tcp

let mk_metadata i =
  if i mod 3 = 0 then Metadata.empty
  else begin
    let op = if i mod 2 = 0 then "READ" else "WRITE" in
    let md = Metadata.with_msg_id (Int64.of_int (100 + (i mod 4))) Metadata.empty in
    let md =
      Metadata.add_class (Class_name.v ~stage:"storage" ~ruleset:"ops" ~name:op) md
    in
    let md = Metadata.add "operation" (Metadata.str op) md in
    let md = Metadata.add "tenant" (Metadata.int (i mod 3)) md in
    Metadata.add "msg_size" (Metadata.int (512 * (1 + (i mod 7)))) md
  end

let mk_packet i =
  Packet.make ~id:(Int64.of_int i) ~flow:(mk_flow i) ~kind:Packet.Data ~seq:i
    ~payload:(200 + (113 * i mod 1200))
    ~metadata:(mk_metadata i) ()

let decision_str = function
  | Enclave.Forward { queue; charge } ->
    Printf.sprintf "forward queue=%s charge=%d"
      (match queue with Some q -> string_of_int q | None -> "-")
      charge
  | Enclave.Dropped why -> "dropped: " ^ why

let check_stream_parity name ei ec =
  for i = 0 to 199 do
    let now = Time.us (10 * (i + 1)) in
    let pi = mk_packet i and pc = mk_packet i in
    let di = Enclave.process ei ~now pi in
    let dc = Enclave.process ec ~now pc in
    if di <> dc then
      Alcotest.failf "%s pkt %d: decisions differ: %s vs %s" name i (decision_str di)
        (decision_str dc);
    check_int (Printf.sprintf "%s pkt %d priority" name i) pi.Packet.priority
      pc.Packet.priority;
    check_bool
      (Printf.sprintf "%s pkt %d route label" name i)
      true
      (pi.Packet.route_label = pc.Packet.route_label)
  done;
  let ci = Enclave.counters ei and cc = Enclave.counters ec in
  check_int (name ^ " invocations") ci.Enclave.invocations cc.Enclave.invocations;
  check_int (name ^ " steps") ci.Enclave.interp_steps cc.Enclave.interp_steps;
  check_int (name ^ " faults") ci.Enclave.faults cc.Enclave.faults;
  check_int (name ^ " dropped") ci.Enclave.dropped cc.Enclave.dropped;
  check_int (name ^ " compiled ran") 0 ci.Enclave.compiled_invocations;
  check_bool (name ^ " compiled engine exercised") true
    (cc.Enclave.compiled_invocations > 0)

let get_ok = function Ok v -> v | Error m -> Alcotest.failf "unexpected error: %s" m

let test_enclave_differential () =
  let pair install =
    let ei = Enclave.create ~host:1 () and ec = Enclave.create ~host:1 () in
    get_ok (install ei `Interpreted);
    get_ok (install ec `Compiled);
    (ei, ec)
  in
  let thresholds = [| 1500L; 6000L |] in
  let ei, ec =
    pair (fun e v -> Eden_functions.Pias.install ~variant:v e ~thresholds)
  in
  check_stream_parity "pias" ei ec;
  let matrix = Eden_functions.Wcmp.ecmp_matrix ~labels:[ 1; 2; 3 ] in
  let ei, ec =
    pair (fun e v ->
        let v = match v with `Interpreted -> `Packet | `Compiled -> `Compiled in
        Eden_functions.Wcmp.install ~variant:v e ~matrix)
  in
  check_stream_parity "wcmp" ei ec;
  let queue_map = [| 1; 2; 3 |] in
  let ei, ec =
    pair (fun e v -> Eden_functions.Pulsar.install ~variant:v e ~queue_map)
  in
  check_stream_parity "pulsar" ei ec

(* ------------------------------------------------------------------ *)
(* Flow-cache invalidation: rule and action changes must take effect on
   the very next packet even when the class vector's resolution was
   cached. *)

let prio_program name prio =
  Program.make ~name
    ~code:[| Op.Push (Int64.of_int prio); Op.Store 0; Op.Halt |]
    ~scalar_slots:
      [|
        {
          Program.s_name = "Priority";
          s_entity = Program.Packet;
          s_access = Program.Read_write;
          s_local = 0;
        };
      |]
    ~n_locals:1 ()

let install_prio e name prio =
  get_ok
    (Enclave.install_action e
       { Enclave.i_name = name; i_impl = Enclave.Interpreted (prio_program name prio);
         i_msg_sources = [] })

let priority_of e i =
  let pkt =
    Packet.make ~id:(Int64.of_int i) ~flow:(mk_flow 0) ~kind:Packet.Data ~payload:100 ()
  in
  (match Enclave.process e ~now:(Time.us (i + 1)) pkt with
  | Enclave.Forward _ -> ()
  | Enclave.Dropped why -> Alcotest.failf "unexpected drop: %s" why);
  pkt.Packet.priority

let pat s = Option.get (Class_name.Pattern.of_string s)

let test_cache_invalidation () =
  let e = Enclave.create ~host:1 () in
  install_prio e "lo" 2;
  let r_lo = get_ok (Enclave.add_table_rule e ~pattern:(pat "*.*.*") ~action:"lo" ()) in
  check_int "lo fires" 2 (priority_of e 0);
  check_int "cached lo fires" 2 (priority_of e 1);
  (* A more specific rule added after the cache is warm must win
     immediately. *)
  install_prio e "hi" 6;
  let r_hi =
    get_ok (Enclave.add_table_rule e ~pattern:(pat "enclave.flows.ALL") ~action:"hi" ())
  in
  check_int "hi overrides cached entry" 6 (priority_of e 2);
  (* Removing the action drops its rules and the cache with them. *)
  (match Enclave.remove_action e "hi" with
  | Some n -> check_int "hi rules dropped" 1 n
  | None -> Alcotest.fail "hi was installed");
  check_bool "hi rule gone with the action" false
    (Enclave.remove_table_rule e r_hi);
  check_int "falls back to lo" 2 (priority_of e 3);
  (* Removing a rule by id invalidates too. *)
  check_bool "lo rule removed" true (Enclave.remove_table_rule e r_lo);
  check_int "no action left" 0 (priority_of e 4);
  check_bool "remove of unknown action" true (Enclave.remove_action e "nope" = None);
  (* Steady-state cache still charges invocations per packet. *)
  let c = Enclave.counters e in
  check_int "invocations counted through the cache" 4 c.Enclave.invocations

(* ------------------------------------------------------------------ *)
(* Fault handling: the ring keeps the most recent records, and array
   writes of a faulting invocation are not published (scratch binding),
   while a writer that completes publishes through the same binding. *)

let array_slot name ~access ~min_len =
  { Program.a_name = name; a_entity = Program.Global; a_access = access; a_min_len = min_len }

let faulting_writer =
  (* writes A[0] then divides by zero: the write must not escape *)
  Program.make ~name:"faulty"
    ~code:
      [|
        Op.Push 0L; Op.Push 99L; Op.Gastore 0; Op.Push 1L; Op.Push 0L; Op.Div; Op.Pop;
        Op.Halt;
      |]
    ~array_slots:[| array_slot "A" ~access:Program.Read_write ~min_len:1 |]
    ()

let inplace_writer =
  (* constant-index store that completes: its scratch copy is published *)
  Program.make ~name:"inplace"
    ~code:[| Op.Push 0L; Op.Push 77L; Op.Gastore 0; Op.Halt |]
    ~array_slots:[| array_slot "A" ~access:Program.Read_write ~min_len:1 |]
    ()

let install_prog e name p =
  get_ok
    (Enclave.install_action e
       { Enclave.i_name = name; i_impl = Enclave.Interpreted p; i_msg_sources = [] });
  ignore (get_ok (Enclave.add_table_rule e ~pattern:(pat "*.*.*") ~action:name ()));
  get_ok (Enclave.set_global_array e ~action:name "A" [| 5L |])

let test_fault_isolation_and_ring () =
  let e = Enclave.create ~host:1 () in
  ignore (install_prog e "faulty" faulting_writer);
  for i = 0 to 149 do
    ignore (priority_of e i)
  done;
  let c = Enclave.counters e in
  check_int "every invocation faulted" 150 c.Enclave.faults;
  let faults = Enclave.faults e in
  check_int "ring bounded" 100 (List.length faults);
  (match faults with
  | newest :: _ ->
    check_bool "newest first" true (Time.compare newest.Enclave.fr_time (Time.us 150) = 0)
  | [] -> Alcotest.fail "no fault records");
  check_bool "write did not escape the fault" true
    (Enclave.get_global_array e ~action:"faulty" "A" = Some [| 5L |]);
  (* The completing writer's store reaches the live array. *)
  let e2 = Enclave.create ~host:1 () in
  ignore (install_prog e2 "inplace" inplace_writer);
  ignore (priority_of e2 0);
  check_int "no faults" 0 (Enclave.counters e2).Enclave.faults;
  check_bool "in-place write published" true
    (Enclave.get_global_array e2 ~action:"inplace" "A" = Some [| 77L |])

let engine_suites =
  [
    ( "compiled-engine",
      [
        Alcotest.test_case "examples differential" `Quick test_examples_differential;
        Alcotest.test_case "step-limit boundaries" `Quick test_step_limit_boundaries;
        Alcotest.test_case "compile rejects unverifiable" `Quick
          test_compile_rejects_like_verifier;
        Alcotest.test_case "exec accessors" `Quick test_exec_accessors;
        Alcotest.test_case "exec entry invariants" `Quick test_exec_entry_invariants;
        qcheck prop_differential_fuzz;
        qcheck prop_handoff_every_step_limit;
      ] );
    ( "enclave-engines",
      [
        Alcotest.test_case "enclave differential" `Quick test_enclave_differential;
        Alcotest.test_case "flow-cache invalidation" `Quick test_cache_invalidation;
        Alcotest.test_case "fault ring and isolation" `Quick
          test_fault_isolation_and_ring;
      ] );
  ]

let () =
  Qcheck_seed.announce ();
  Alcotest.run "eden_compiled" engine_suites
