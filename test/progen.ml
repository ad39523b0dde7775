(* Shared random-program generator for differential test suites.

   Programs are built through the assembler with fresh labels, so jumps
   are always in-range and stack depths consistent — the verifier
   accepts them by construction.  Operand values are arbitrary, so
   checked array accesses, Div/Rem, Rand, Newarr and heap refs fault
   with realistic frequency, and small step limits force mid-block
   step-limit faults.  Used by the compiled-engine differential
   (test_compiled) and the sharded-data-path differential
   (test_parallel). *)

open Eden_bytecode
module Op = Opcode
module G = QCheck.Gen

(* Generates (program, initial scalars, initial arrays).  Slot layout:
   scalar "In" (Packet, RO, local 0) and "Out" (Packet, RW, local 1);
   arrays "A" (Global, RO, slot 0) and "B" (Global, RW, slot 1). *)
let gen_structured : (Program.t * int64 array * int64 array array) G.t =
 fun rand ->
  let buf = ref [] in
  let emit i = buf := i :: !buf in
  let label_ctr = ref 0 in
  let fresh () =
    incr label_ctr;
    Printf.sprintf "L%d" !label_ctr
  in
  let int_range a b = G.int_range a b rand in
  let pick l = List.nth l (int_range 0 (List.length l - 1)) in
  let const () =
    pick [ -2L; -1L; 0L; 1L; 2L; 3L; 5L; 7L; 100L; 1024L; Int64.max_int ]
  in
  (* Expressions leave exactly one value; depth bounds nesting so the
     static operand stack stays within stack_limit. *)
  let rec expr depth =
    let leaf () =
      match int_range 0 3 with
      | 0 | 1 -> emit (Asm.I (Op.Push (const ())))
      | 2 -> emit (Asm.I (Op.Load (int_range 0 3)))
      | _ -> emit (Asm.I Op.Clock)
    in
    if depth = 0 then leaf ()
    else
      match int_range 0 11 with
      | 0 | 1 -> leaf ()
      | 2 ->
        expr (depth - 1);
        expr (depth - 1);
        emit
          (Asm.I
             (pick
                [ Op.Add; Op.Sub; Op.Mul; Op.Div; Op.Rem; Op.Band; Op.Bor; Op.Bxor;
                  Op.Shl; Op.Shr; Op.Eq; Op.Ne; Op.Lt; Op.Le; Op.Gt; Op.Ge; Op.Hashmix ]))
      | 3 ->
        expr (depth - 1);
        emit (Asm.I (pick [ Op.Neg; Op.Not ]))
      | 4 ->
        expr (depth - 1);
        emit (Asm.I (Op.Gaload (int_range 0 1)))
      | 5 -> emit (Asm.I (Op.Galen (int_range 0 1)))
      | 6 ->
        expr (depth - 1);
        emit (Asm.I Op.Rand)
      | 7 ->
        expr (depth - 1);
        emit (Asm.I Op.Newarr)
      | 8 ->
        expr (depth - 1);
        expr (depth - 1);
        emit (Asm.I Op.Aload)
      | 9 ->
        expr (depth - 1);
        emit (Asm.I Op.Alen)
      | 10 ->
        expr (depth - 1);
        emit (Asm.I Op.Dup);
        emit (Asm.I (pick [ Op.Add; Op.Mul; Op.Pop ]));
        if pick [ true; false ] then () else emit (Asm.I Op.Neg)
      | _ ->
        expr (depth - 1);
        expr (depth - 1);
        emit (Asm.I Op.Swap);
        emit (Asm.I (pick [ Op.Sub; Op.Pop ]))
  in
  (* Statements leave the stack as they found it. *)
  let rec stmt fuel =
    if fuel <= 0 then ()
    else
      match int_range 0 9 with
      | 0 | 1 ->
        expr (int_range 0 3);
        emit (Asm.I (Op.Store (int_range 0 3)))
      | 2 ->
        expr (int_range 0 3);
        emit (Asm.I Op.Pop)
      | 3 ->
        expr (int_range 0 2);
        expr (int_range 0 2);
        emit (Asm.I (Op.Gastore 1)) (* slot 1 is the read-write array *)
      | 4 ->
        expr (int_range 0 1);
        expr (int_range 0 1);
        expr (int_range 0 1);
        emit (Asm.I Op.Astore)
      | 5 | 6 ->
        (* if / else *)
        let l_else = fresh () and l_end = fresh () in
        expr (int_range 0 2);
        emit (pick [ Asm.Jz_l l_else; Asm.Jnz_l l_else ]);
        stmt (fuel / 2);
        emit (Asm.Jmp_l l_end);
        emit (Asm.Label l_else);
        stmt (fuel / 2);
        emit (Asm.Label l_end)
      | 7 ->
        (* bounded counting loop over a dedicated local *)
        let l_top = fresh () and l_done = fresh () in
        emit (Asm.I (Op.Push (Int64.of_int (int_range 0 6))));
        emit (Asm.I (Op.Store 3));
        emit (Asm.Label l_top);
        emit (Asm.I (Op.Load 3));
        emit (Asm.Jz_l l_done);
        stmt (fuel / 3);
        emit (Asm.I (Op.Load 3));
        emit (Asm.I (Op.Push 1L));
        emit (Asm.I Op.Sub);
        emit (Asm.I (Op.Store 3));
        emit (Asm.Jmp_l l_top);
        emit (Asm.Label l_done)
      | 8 ->
        emit (Asm.I (pick [ Op.Halt; Op.Push 0L ]));
        if List.exists (function Asm.I Op.Halt -> true | _ -> false) [ List.hd !buf ]
        then ()
        else emit (Asm.I Op.Pop)
      | _ -> stmt (fuel - 1);
      if int_range 0 2 > 0 then stmt (fuel - 1)
  in
  stmt (int_range 1 12);
  (* Make sure something is always emitted. *)
  emit (Asm.I (Op.Push 1L));
  emit (Asm.I (Op.Store 1));
  let code = Asm.assemble_exn (List.rev !buf) in
  let scalar_slots =
    [|
      { Program.s_name = "In"; s_entity = Program.Packet; s_access = Program.Read_only;
        s_local = 0 };
      { Program.s_name = "Out"; s_entity = Program.Packet; s_access = Program.Read_write;
        s_local = 1 };
    |]
  in
  let array_slots =
    [|
      { Program.a_name = "A"; a_entity = Program.Global; a_access = Program.Read_only;
        a_min_len = 0 };
      { Program.a_name = "B"; a_entity = Program.Global; a_access = Program.Read_write;
        a_min_len = 0 };
    |]
  in
  let step_limit = pick [ 5; 9; 17; 33; 80; 250; 10_000 ] in
  let heap_limit = pick [ 0; 3; 64 ] in
  let p =
    Program.make ~name:"fuzz" ~code ~scalar_slots ~array_slots ~n_locals:4
      ~stack_limit:64 ~heap_limit ~step_limit ()
  in
  let scalars = [| const (); const () |] in
  let arrays =
    Array.init 2 (fun _ ->
        Array.init (int_range 0 4) (fun _ -> const ()))
  in
  (p, scalars, arrays)

(* Declares the read-write array "B" read-only when the code never
   stores to it.  The verifier accepts the result, and the declared
   footprint then classes the program by what it writes: one that
   stores nothing global is [`Parallel] rather than [`Serial], so the
   sharded differentials run it on several replicas. *)
let narrow_unstored (p : Program.t) =
  if Array.exists (function Op.Gastore _ -> true | _ -> false) p.Program.code then p
  else
    let slots = Array.copy p.Program.array_slots in
    slots.(1) <- { (slots.(1)) with Program.a_access = Program.Read_only };
    { p with Program.array_slots = slots }
