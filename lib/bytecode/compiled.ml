(* Install-time closure compilation of verified bytecode (threaded code).

   The interpreter ([Interp.resume]) pays a per-step tax that has
   nothing to do with the action function's logic: an opcode [match]
   dispatch, operand-stack depth checks and a step-limit test on every
   instruction.  Installation is the natural place to spend one-off work
   removing it (the same trade eBPF makes: verify once, then run
   native), so this module translates a verified program into nested
   OCaml closures — one chain per basic block, direct calls between
   blocks — fixing at compile time everything the verifier proved
   static:

   - the verifier guarantees a single consistent operand-stack depth per
     pc, so the stack becomes direct slot addressing: no sp, every
     operand read and written at a byte offset of the machine's unboxed
     slots known at compile time (and below [stack_limit], so accesses
     are unchecked);
   - steps are bulk-charged per basic block (one add + compare instead
     of one per instruction), with the charge corrected at fault sites
     so accounting matches the interpreter exactly;
   - the peak-stack statistic is a per-block constant, folded in at
     block exit;
   - locals indices and array-slot numbers were range-checked by the
     verifier, so those accesses are unchecked too.  Array indices are
     run-time data: [Gaload]/[Gastore] check them, as the interpreter
     does.

   The closures run on the interpreter's machine ([Interp.scratch]),
   entered and published through its [reset]/[publish] (scalars in and
   out through the machine's unboxed I/O slots), allocating
   through [Interp.alloc] and faulting with [Interp.Fault].  When a
   block's remaining step budget cannot cover the whole block, the block
   hands over to [Interp.resume] at its first instruction and entry
   depth, so step-limit faults land on exactly the same instruction with
   exactly the same partial effects.  test/test_compiled.ml checks the
   two engines differentially on every example function and on
   randomized programs. *)

module P = Program
module Rng = Eden_base.Rng

type state = Interp.scratch

external b64get : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external b64set : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* Keep this alias monomorphic: with a polymorphic scheme the
   generic-array primitive can specialise wrongly for unboxable
   elements on OCaml 5.1 and read garbage. *)
let aget : int64 array array -> int -> int64 array = Array.unsafe_get

(* ------------------------------------------------------------------ *)
(* Closure code: one closure per instruction, chained within a basic block;
   blocks linked through patchable refs.  [d] is the statically known
   operand-stack depth before the instruction; [k] the next closure;
   [die] corrects the block's bulk step charge and the deferred stack
   peak before raising a mid-block fault.  Stack-slot and local byte
   offsets are fixed here, at compile time. *)

let comp_instr (p : P.t) ~pc ~d ~(k : state -> unit) ~(die : state -> Interp.fault -> unit) :
    state -> unit =
  let heap_limit = p.P.heap_limit in
  (* Byte offsets of the slot at depth d and the one/two/three below. *)
  let o0 = d lsl 3 in
  let o1 = (d - 1) lsl 3 in
  let o2 = (d - 2) lsl 3 in
  let o3 = (d - 3) lsl 3 in
  match p.P.code.(pc) with
  | Opcode.Push v ->
    fun st ->
      b64set st.stack o0 v;
      k st
  | Opcode.Pop -> k (* the value simply drops below the live depth *)
  | Opcode.Dup ->
    fun st ->
      b64set st.stack o0 (b64get st.stack o1);
      k st
  | Opcode.Swap ->
    fun st ->
      let a = b64get st.stack o2 and b = b64get st.stack o1 in
      b64set st.stack o2 b;
      b64set st.stack o1 a;
      k st
  | Opcode.Load i ->
    let oi = i lsl 3 in
    fun st ->
      b64set st.stack o0 (b64get st.locals oi);
      k st
  | Opcode.Store i ->
    let oi = i lsl 3 in
    fun st ->
      b64set st.locals oi (b64get st.stack o1);
      k st
  | Opcode.Add ->
    fun st ->
      b64set st.stack o2 (Int64.add (b64get st.stack o2) (b64get st.stack o1));
      k st
  | Opcode.Sub ->
    fun st ->
      b64set st.stack o2 (Int64.sub (b64get st.stack o2) (b64get st.stack o1));
      k st
  | Opcode.Mul ->
    fun st ->
      b64set st.stack o2 (Int64.mul (b64get st.stack o2) (b64get st.stack o1));
      k st
  | Opcode.Div ->
    fun st ->
      let b = b64get st.stack o1 in
      if Int64.equal b 0L then die st (Interp.Division_by_zero { pc })
      else begin
        b64set st.stack o2 (Int64.div (b64get st.stack o2) b);
        k st
      end
  | Opcode.Rem ->
    fun st ->
      let b = b64get st.stack o1 in
      if Int64.equal b 0L then die st (Interp.Division_by_zero { pc })
      else begin
        b64set st.stack o2 (Int64.rem (b64get st.stack o2) b);
        k st
      end
  | Opcode.Neg ->
    fun st ->
      b64set st.stack o1 (Int64.neg (b64get st.stack o1));
      k st
  | Opcode.Band ->
    fun st ->
      b64set st.stack o2 (Int64.logand (b64get st.stack o2) (b64get st.stack o1));
      k st
  | Opcode.Bor ->
    fun st ->
      b64set st.stack o2 (Int64.logor (b64get st.stack o2) (b64get st.stack o1));
      k st
  | Opcode.Bxor ->
    fun st ->
      b64set st.stack o2 (Int64.logxor (b64get st.stack o2) (b64get st.stack o1));
      k st
  | Opcode.Shl ->
    fun st ->
      b64set st.stack o2
        (Int64.shift_left (b64get st.stack o2) (Int64.to_int (b64get st.stack o1) land 63));
      k st
  | Opcode.Shr ->
    fun st ->
      b64set st.stack o2
        (Int64.shift_right_logical (b64get st.stack o2)
           (Int64.to_int (b64get st.stack o1) land 63));
      k st
  | Opcode.Not ->
    fun st ->
      b64set st.stack o1 (if Int64.equal (b64get st.stack o1) 0L then 1L else 0L);
      k st
  | Opcode.Eq ->
    fun st ->
      b64set st.stack o2
        (if Int64.equal (b64get st.stack o2) (b64get st.stack o1) then 1L else 0L);
      k st
  | Opcode.Ne ->
    fun st ->
      b64set st.stack o2
        (if Int64.equal (b64get st.stack o2) (b64get st.stack o1) then 0L else 1L);
      k st
  | Opcode.Lt ->
    fun st ->
      b64set st.stack o2
        (if Int64.compare (b64get st.stack o2) (b64get st.stack o1) < 0 then 1L else 0L);
      k st
  | Opcode.Le ->
    fun st ->
      b64set st.stack o2
        (if Int64.compare (b64get st.stack o2) (b64get st.stack o1) <= 0 then 1L else 0L);
      k st
  | Opcode.Gt ->
    fun st ->
      b64set st.stack o2
        (if Int64.compare (b64get st.stack o2) (b64get st.stack o1) > 0 then 1L else 0L);
      k st
  | Opcode.Ge ->
    fun st ->
      b64set st.stack o2
        (if Int64.compare (b64get st.stack o2) (b64get st.stack o1) >= 0 then 1L else 0L);
      k st
  | Opcode.Gaload s ->
    fun st ->
      let arr = aget st.env_arrays s in
      let i = Int64.to_int (b64get st.stack o1) in
      if i < 0 || i >= Array.length arr then
        die st (Interp.Array_bounds { pc; index = i; length = Array.length arr })
      else begin
        b64set st.stack o1 (Array.unsafe_get arr i);
        k st
      end
  | Opcode.Gastore s ->
    fun st ->
      let arr = aget st.env_arrays s in
      let i = Int64.to_int (b64get st.stack o2) in
      if i < 0 || i >= Array.length arr then
        die st (Interp.Array_bounds { pc; index = i; length = Array.length arr })
      else begin
        Array.unsafe_set arr i (b64get st.stack o1);
        k st
      end
  | Opcode.Galen s ->
    fun st ->
      b64set st.stack o0 (Int64.of_int (Array.length (aget st.env_arrays s)));
      k st
  | Opcode.Newarr ->
    fun st -> (
      match Interp.alloc st ~heap_limit ~pc (Int64.to_int (b64get st.stack o1)) with
      | r ->
        b64set st.stack o1 (Int64.of_int r);
        k st
      | exception Interp.Fault f -> die st f)
  | Opcode.Aload ->
    fun st ->
      let r = Int64.to_int (b64get st.stack o2) in
      if r < 0 || r >= st.n_heap then die st (Interp.Invalid_reference { pc })
      else begin
        let arr = aget st.heap r in
        let i = Int64.to_int (b64get st.stack o1) in
        if i < 0 || i >= Array.length arr then
          die st (Interp.Array_bounds { pc; index = i; length = Array.length arr })
        else begin
          b64set st.stack o2 (Array.unsafe_get arr i);
          k st
        end
      end
  | Opcode.Astore ->
    fun st ->
      let r = Int64.to_int (b64get st.stack o3) in
      if r < 0 || r >= st.n_heap then die st (Interp.Invalid_reference { pc })
      else begin
        let arr = aget st.heap r in
        let i = Int64.to_int (b64get st.stack o2) in
        if i < 0 || i >= Array.length arr then
          die st (Interp.Array_bounds { pc; index = i; length = Array.length arr })
        else begin
          Array.unsafe_set arr i (b64get st.stack o1);
          k st
        end
      end
  | Opcode.Alen ->
    fun st ->
      let r = Int64.to_int (b64get st.stack o1) in
      if r < 0 || r >= st.n_heap then die st (Interp.Invalid_reference { pc })
      else begin
        b64set st.stack o1 (Int64.of_int (Array.length (aget st.heap r)));
        k st
      end
  | Opcode.Rand ->
    fun st ->
      let bound = b64get st.stack o1 in
      if Int64.compare bound 0L <= 0 then die st (Interp.Bad_random_bound { pc; bound })
      else begin
        b64set st.stack o1 (Int64.of_int (Rng.int st.rng (Int64.to_int bound)));
        k st
      end
  | Opcode.Clock ->
    fun st ->
      b64set st.stack o0 st.now_ns;
      k st
  | Opcode.Hashmix ->
    fun st ->
      let m =
        Int64.mul
          (Int64.logxor (Int64.mul (b64get st.stack o2) 0x9E3779B97F4A7C15L)
             (b64get st.stack o1))
          0xBF58476D1CE4E5B9L
      in
      b64set st.stack o2 (Int64.logxor m (Int64.shift_right_logical m 31));
      k st
  | Opcode.Jmp _ | Opcode.Jz _ | Opcode.Jnz _ | Opcode.Halt ->
    (* Block terminators are compiled by [build], never here. *)
    assert false

(* ------------------------------------------------------------------ *)
(* Block discovery and threading *)

let build (p : P.t) : state -> unit =
  let code = p.P.code in
  let len = Array.length code in
  (* Static operand-stack depth before each reachable pc (the verifier
     proved it unique); -1 marks unreachable instructions, which get no
     closure because control can never arrive there. *)
  let depth = Array.make len (-1) in
  let q = Queue.create () in
  let sched pc dpt =
    if pc < len && depth.(pc) < 0 then begin
      depth.(pc) <- dpt;
      Queue.add pc q
    end
  in
  sched 0 0;
  while not (Queue.is_empty q) do
    let pc = Queue.pop q in
    let op = code.(pc) in
    let pops, pushes = Opcode.stack_effect op in
    let d' = depth.(pc) - pops + pushes in
    (match Opcode.jump_target op with Some t -> sched t d' | None -> ());
    if not (Opcode.is_terminator op) then sched (pc + 1) d'
  done;
  let dafter pc =
    let pops, pushes = Opcode.stack_effect code.(pc) in
    depth.(pc) - pops + pushes
  in
  let leader = Array.make len false in
  leader.(0) <- true;
  for pc = 0 to len - 1 do
    if depth.(pc) >= 0 then begin
      (match Opcode.jump_target code.(pc) with
      | Some t when t < len -> leader.(t) <- true
      | Some _ | None -> ());
      match code.(pc) with
      | (Opcode.Jz _ | Opcode.Jnz _) when pc + 1 < len -> leader.(pc + 1) <- true
      | _ -> ()
    end
  done;
  let entries =
    Array.init len (fun _ -> ref (fun (_ : state) -> assert false))
  in
  (* Transfer control to pc [t]; [t = len] is normal completion. *)
  let jump_to t : state -> unit =
    if t >= len then fun _ -> ()
    else begin
      let r = entries.(t) in
      fun st -> !r st
    end
  in
  let block_end l =
    let rec go pc =
      match code.(pc) with
      | Opcode.Jmp _ | Opcode.Halt | Opcode.Jz _ | Opcode.Jnz _ -> pc
      | _ -> if pc + 1 >= len || leader.(pc + 1) then pc else go (pc + 1)
    in
    go l
  in
  let compile_block l =
    let e = block_end l in
    let n = e - l + 1 in
    (* Peak depth inside the block and its per-instruction prefixes; the
       peak is folded into [max_sp] once, at block exit (or, corrected,
       at a fault site), never per push. *)
    let pmax = Array.make (n + 1) (-1) in
    for k = 1 to n do
      pmax.(k) <- max pmax.(k - 1) (dafter (l + k - 1))
    done;
    let bmax = pmax.(n) in
    let upd (st : state) = if bmax > st.max_sp then st.max_sp <- bmax in
    let die_for idx =
      let rollback = n - (idx + 1) in
      let mupto = pmax.(idx) in
      fun (st : state) f ->
        st.steps <- st.steps - rollback;
        if mupto > st.max_sp then st.max_sp <- mupto;
        raise (Interp.Fault f)
    in
    let last : state -> unit =
      let d = depth.(e) in
      let o1 = (d - 1) lsl 3 in
      match code.(e) with
      | Opcode.Jmp t ->
        let g = jump_to t in
        fun st ->
          upd st;
          g st
      | Opcode.Halt -> upd
      | Opcode.Jz t ->
        let g = jump_to t and h = jump_to (e + 1) in
        fun st ->
          upd st;
          if Int64.equal (b64get st.stack o1) 0L then g st else h st
      | Opcode.Jnz t ->
        let g = jump_to t and h = jump_to (e + 1) in
        fun st ->
          upd st;
          if Int64.equal (b64get st.stack o1) 0L then h st else g st
      | _ ->
        let k =
          if e + 1 >= len then upd
          else begin
            let g = jump_to (e + 1) in
            fun st ->
              upd st;
              g st
          end
        in
        comp_instr p ~pc:e ~d ~k ~die:(die_for (e - l))
    in
    let body = ref last in
    for pc = e - 1 downto l do
      body := comp_instr p ~pc ~d:depth.(pc) ~k:!body ~die:(die_for (pc - l))
    done;
    let body = !body in
    let entry_depth = depth.(l) in
    let limit = p.P.step_limit in
    entries.(l) :=
      fun st ->
        let s = st.steps + n in
        if s <= limit then begin
          st.steps <- s;
          body st
        end
        else Interp.resume p st ~pc:l ~sp:entry_depth
  in
  for pc = 0 to len - 1 do
    if leader.(pc) && depth.(pc) >= 0 then compile_block pc
  done;
  !(entries.(0))

(* ------------------------------------------------------------------ *)
(* Public interface *)

type t = { cp_program : P.t; cp_entry : state -> unit; cp_machine : state }

let program t = t.cp_program
let machine t = t.cp_machine

let compile ?strict (p : P.t) =
  match Verifier.analyse ?strict p with
  | Error e -> Error e
  | Ok _ -> Ok { cp_program = p; cp_entry = build p; cp_machine = Interp.make_scratch p }

(* The interpreter's entry and publish, unchecked and inlined: a
   verified program and a machine made for it need only the array count
   checked. *)
let invoke t ~arrays ~now ~rng =
  let p = t.cp_program in
  let st = t.cp_machine in
  if Array.length arrays <> Array.length p.P.array_slots then
    invalid_arg "Compiled.invoke: arrays do not match the program's slot table";
  Interp.reset p st ~arrays ~now ~rng;
  match t.cp_entry st with
  | () ->
    Interp.publish p st;
    None
  | exception Interp.Fault f -> Some f

let exec t ~(env : Interp.env) ~now ~rng =
  let p = t.cp_program in
  if
    Array.length env.Interp.scalars <> Array.length p.P.scalar_slots
    || Array.length env.Interp.arrays <> Array.length p.P.array_slots
  then invalid_arg "Compiled.exec: env does not match the program's slot tables";
  Interp.scalars_in p t.cp_machine env;
  match invoke t ~arrays:env.Interp.arrays ~now ~rng with
  | None ->
    Interp.scalars_out p t.cp_machine env;
    None
  | Some _ as fault -> fault

let last_steps t = t.cp_machine.steps
let last_max_stack t = t.cp_machine.max_sp
let last_heap_cells t = t.cp_machine.heap_cells
let stats t = Interp.stats t.cp_machine

let run t ~env ~now ~rng =
  match exec t ~env ~now ~rng with
  | None -> Ok (stats t)
  | Some f -> Error (f, stats t)
