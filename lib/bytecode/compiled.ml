(* Install-time closure compilation of verified bytecode (threaded code).

   [Interp.run] pays a per-step tax that has nothing to do with the
   action function's logic: an opcode [match] dispatch, a heap-allocated
   [next] ref per retired instruction, pc/sp ref-cell bookkeeping and a
   step-limit test on every instruction.  Installation is the natural
   place to spend one-off work removing it (the same trade eBPF makes:
   verify once, then run native), so this module translates a verified
   program into nested OCaml closures — one chain per basic block,
   direct calls between blocks — fixing at compile time everything the
   verifier proved static:

   - the verifier guarantees a single consistent operand-stack depth per
     pc, so the stack becomes direct slot addressing: no sp, no
     push/pop, every operand read and written at a byte offset known at
     compile time (and below [stack_limit], so accesses are unchecked);
   - the operand stack and locals live in a [Bytes.t] of unboxed 8-byte
     slots accessed through the [%caml_bytes_get64u]/[set64u]
     primitives.  An [int64 array] would box every arithmetic result
     and run the write barrier on every store; with raw slots the
     native compiler keeps whole operand chains unboxed, so straight-
     line arithmetic neither allocates nor touches the GC;
   - steps are bulk-charged per basic block (one add + compare instead
     of one per instruction), with the charge corrected at fault sites
     so accounting matches the interpreter exactly;
   - the peak-stack statistic is a per-block constant, folded in at
     block exit;
   - locals indices and array-slot numbers were range-checked by the
     verifier, so those accesses are unchecked too;
   - [Gaload_unsafe]/[Gastore_unsafe] keep the bounds proofs the
     verifier re-derived — no checks on the proved path.

   Faults, stats and published state are bit-identical to [Interp.run]
   on the same env/now/rng: test/test_compiled.ml enforces this
   differentially on every example function and on randomized programs.

   When a block's remaining step budget cannot cover the whole block,
   execution falls back to [slow_run], a per-instruction twin of
   [Interp.run] over the same machine state, so step-limit faults land
   on exactly the same instruction with exactly the same partial
   effects. *)

module P = Program
module Rng = Eden_base.Rng

type state = {
  stack : Bytes.t; (* stack_limit unboxed int64 slots, 8 bytes each *)
  locals : Bytes.t; (* n_locals unboxed int64 slots *)
  mutable env_arrays : int64 array array;
  mutable heap : int64 array array;
  mutable n_heap : int;
  mutable heap_cells : int;
  mutable steps : int;
  mutable max_sp : int;
  mutable now_ns : int64;
  mutable rng : Rng.t;
}

exception F of Interp.fault

external b64get : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external b64set : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* Keep this alias monomorphic: with a polymorphic scheme the
   generic-array primitive can specialise wrongly for unboxable
   elements on OCaml 5.1 and read garbage. *)
let aget : int64 array array -> int -> int64 array = Array.unsafe_get

(* ------------------------------------------------------------------ *)
(* Slow path: per-instruction execution from an arbitrary pc, used when
   the remaining step budget cannot cover a whole block.  Mirrors
   [Interp.run] exactly (fault sites, step accounting, stack peaks). *)

let slow_run (p : P.t) (st : state) pc0 sp0 =
  let code = p.P.code in
  let len = Array.length code in
  let stack = st.stack and locals = st.locals in
  let pc = ref pc0 in
  let sp = ref sp0 in
  let push v =
    b64set stack (!sp lsl 3) v;
    incr sp;
    if !sp > st.max_sp then st.max_sp <- !sp
  in
  let pop () =
    decr sp;
    b64get stack (!sp lsl 3)
  in
  let to_bool v = if Int64.equal v 0L then 0L else 1L in
  let env_array s = st.env_arrays.(s) in
  let check_index arr i =
    let n = Array.length arr in
    if i < 0 || i >= n then raise (F (Interp.Array_bounds { pc = !pc; index = i; length = n }))
  in
  let heap_get r =
    let r = Int64.to_int r in
    if r < 0 || r >= st.n_heap then raise (F (Interp.Invalid_reference { pc = !pc }));
    st.heap.(r)
  in
  let alloc n =
    if n < 0 then raise (F (Interp.Negative_array_length { pc = !pc; length = n }));
    if st.heap_cells + n > p.P.heap_limit then
      raise (F (Interp.Heap_exhausted { pc = !pc; requested = n; limit = p.P.heap_limit }));
    if st.n_heap = Array.length st.heap then begin
      let bigger = Array.make (2 * st.n_heap) [||] in
      Array.blit st.heap 0 bigger 0 st.n_heap;
      st.heap <- bigger
    end;
    st.heap.(st.n_heap) <- Array.make n 0L;
    st.heap_cells <- st.heap_cells + n;
    let r = st.n_heap in
    st.n_heap <- r + 1;
    Int64.of_int r
  in
  while !pc < len do
    if st.steps >= p.P.step_limit then
      raise (F (Interp.Step_limit_exceeded { limit = p.P.step_limit }));
    st.steps <- st.steps + 1;
    let op = code.(!pc) in
    let next = ref (!pc + 1) in
    (match op with
    | Opcode.Push v -> push v
    | Opcode.Pop -> ignore (pop ())
    | Opcode.Dup ->
      let v = pop () in
      push v;
      push v
    | Opcode.Swap ->
      let b = pop () in
      let a = pop () in
      push b;
      push a
    | Opcode.Load i -> push (b64get locals (i lsl 3))
    | Opcode.Store i -> b64set locals (i lsl 3) (pop ())
    | Opcode.Add ->
      let b = pop () and a = pop () in
      push (Int64.add a b)
    | Opcode.Sub ->
      let b = pop () and a = pop () in
      push (Int64.sub a b)
    | Opcode.Mul ->
      let b = pop () and a = pop () in
      push (Int64.mul a b)
    | Opcode.Div ->
      let b = pop () and a = pop () in
      if Int64.equal b 0L then raise (F (Interp.Division_by_zero { pc = !pc }));
      push (Int64.div a b)
    | Opcode.Rem ->
      let b = pop () and a = pop () in
      if Int64.equal b 0L then raise (F (Interp.Division_by_zero { pc = !pc }));
      push (Int64.rem a b)
    | Opcode.Neg -> push (Int64.neg (pop ()))
    | Opcode.Band ->
      let b = pop () and a = pop () in
      push (Int64.logand a b)
    | Opcode.Bor ->
      let b = pop () and a = pop () in
      push (Int64.logor a b)
    | Opcode.Bxor ->
      let b = pop () and a = pop () in
      push (Int64.logxor a b)
    | Opcode.Shl ->
      let b = pop () and a = pop () in
      push (Int64.shift_left a (Int64.to_int b land 63))
    | Opcode.Shr ->
      let b = pop () and a = pop () in
      push (Int64.shift_right_logical a (Int64.to_int b land 63))
    | Opcode.Not -> push (if Int64.equal (pop ()) 0L then 1L else 0L)
    | Opcode.Eq ->
      let b = pop () and a = pop () in
      push (if Int64.equal a b then 1L else 0L)
    | Opcode.Ne ->
      let b = pop () and a = pop () in
      push (if Int64.equal a b then 0L else 1L)
    | Opcode.Lt ->
      let b = pop () and a = pop () in
      push (if Int64.compare a b < 0 then 1L else 0L)
    | Opcode.Le ->
      let b = pop () and a = pop () in
      push (if Int64.compare a b <= 0 then 1L else 0L)
    | Opcode.Gt ->
      let b = pop () and a = pop () in
      push (if Int64.compare a b > 0 then 1L else 0L)
    | Opcode.Ge ->
      let b = pop () and a = pop () in
      push (if Int64.compare a b >= 0 then 1L else 0L)
    | Opcode.Jmp t -> next := t
    | Opcode.Jz t -> if Int64.equal (to_bool (pop ())) 0L then next := t
    | Opcode.Jnz t -> if not (Int64.equal (to_bool (pop ())) 0L) then next := t
    | Opcode.Gaload s ->
      let i = Int64.to_int (pop ()) in
      let arr = env_array s in
      check_index arr i;
      push arr.(i)
    | Opcode.Gastore s ->
      let v = pop () in
      let i = Int64.to_int (pop ()) in
      let arr = env_array s in
      check_index arr i;
      arr.(i) <- v
    | Opcode.Gaload_unsafe s ->
      let i = Int64.to_int (pop ()) in
      push (Array.unsafe_get (env_array s) i)
    | Opcode.Gastore_unsafe s ->
      let v = pop () in
      let i = Int64.to_int (pop ()) in
      Array.unsafe_set (env_array s) i v
    | Opcode.Galen s -> push (Int64.of_int (Array.length (env_array s)))
    | Opcode.Newarr -> push (alloc (Int64.to_int (pop ())))
    | Opcode.Aload ->
      let i = Int64.to_int (pop ()) in
      let arr = heap_get (pop ()) in
      check_index arr i;
      push arr.(i)
    | Opcode.Astore ->
      let v = pop () in
      let i = Int64.to_int (pop ()) in
      let arr = heap_get (pop ()) in
      check_index arr i;
      arr.(i) <- v
    | Opcode.Alen -> push (Int64.of_int (Array.length (heap_get (pop ()))))
    | Opcode.Rand ->
      let bound = pop () in
      if Int64.compare bound 0L <= 0 then
        raise (F (Interp.Bad_random_bound { pc = !pc; bound }));
      push (Int64.of_int (Rng.int st.rng (Int64.to_int bound)))
    | Opcode.Clock -> push st.now_ns
    | Opcode.Hashmix ->
      let b = pop () and a = pop () in
      let m =
        Int64.mul (Int64.logxor (Int64.mul a 0x9E3779B97F4A7C15L) b) 0xBF58476D1CE4E5B9L
      in
      push (Int64.logxor m (Int64.shift_right_logical m 31))
    | Opcode.Halt -> next := len);
    pc := !next
  done

(* ------------------------------------------------------------------ *)
(* Fast path: one closure per instruction, chained within a basic block;
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
  | Opcode.Gaload_unsafe s ->
    fun st ->
      b64set st.stack o1
        (Array.unsafe_get (aget st.env_arrays s) (Int64.to_int (b64get st.stack o1)));
      k st
  | Opcode.Gastore_unsafe s ->
    fun st ->
      Array.unsafe_set (aget st.env_arrays s)
        (Int64.to_int (b64get st.stack o2))
        (b64get st.stack o1);
      k st
  | Opcode.Galen s ->
    fun st ->
      b64set st.stack o0 (Int64.of_int (Array.length (aget st.env_arrays s)));
      k st
  | Opcode.Newarr ->
    fun st ->
      let n = Int64.to_int (b64get st.stack o1) in
      if n < 0 then die st (Interp.Negative_array_length { pc; length = n })
      else if st.heap_cells + n > heap_limit then
        die st (Interp.Heap_exhausted { pc; requested = n; limit = heap_limit })
      else begin
        if st.n_heap = Array.length st.heap then begin
          let bigger = Array.make (2 * st.n_heap) [||] in
          Array.blit st.heap 0 bigger 0 st.n_heap;
          st.heap <- bigger
        end;
        st.heap.(st.n_heap) <- Array.make n 0L;
        st.heap_cells <- st.heap_cells + n;
        b64set st.stack o1 (Int64.of_int st.n_heap);
        st.n_heap <- st.n_heap + 1;
        k st
      end
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
    let upd st = if bmax > st.max_sp then st.max_sp <- bmax in
    let die_for idx =
      let rollback = n - (idx + 1) in
      let mupto = pmax.(idx) in
      fun st f ->
        st.steps <- st.steps - rollback;
        if mupto > st.max_sp then st.max_sp <- mupto;
        raise (F f)
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
        else slow_run p st l entry_depth
  in
  for pc = 0 to len - 1 do
    if leader.(pc) && depth.(pc) >= 0 then compile_block pc
  done;
  !(entries.(0))

(* ------------------------------------------------------------------ *)
(* Public interface *)

type t = { cp_program : P.t; cp_entry : state -> unit; cp_state : state }

let program t = t.cp_program

let compile ?strict (p : P.t) =
  match Verifier.analyse ?strict p with
  | Error e -> Error e
  | Ok _ ->
    let st =
      {
        stack = Bytes.make (8 * max p.P.stack_limit 1) '\000';
        locals = Bytes.make (8 * max p.P.n_locals 1) '\000';
        env_arrays = [||];
        heap = Array.make 16 [||];
        n_heap = 0;
        heap_cells = 0;
        steps = 0;
        max_sp = 0;
        now_ns = 0L;
        rng = Rng.create 0L;
      }
    in
    Ok { cp_program = p; cp_entry = build p; cp_state = st }

(* Entry work is per call, so it is kept to what a call changes: the
   env and rng fields are re-stored (a write barrier each) only when the
   caller passes different objects, the heap is reset only if the last
   run allocated, and the locals are zeroed by an inline loop rather
   than a C call.  Scalars are copied into locals here, so the machine
   state keeps no reference to [env.scalars]. *)
let exec t ~(env : Interp.env) ~now ~rng =
  let p = t.cp_program in
  let st = t.cp_state in
  if
    Array.length env.Interp.scalars <> Array.length p.P.scalar_slots
    || Array.length env.Interp.arrays <> Array.length p.P.array_slots
  then invalid_arg "Compiled.exec: env does not match the program's slot tables";
  if not (st.env_arrays == env.Interp.arrays) then st.env_arrays <- env.Interp.arrays;
  if not (st.rng == rng) then st.rng <- rng;
  let now_ns = Eden_base.Time.to_ns now in
  if not (st.now_ns == now_ns) then st.now_ns <- now_ns;
  if st.n_heap > 0 then begin
    Array.fill st.heap 0 st.n_heap [||];
    st.n_heap <- 0
  end;
  st.heap_cells <- 0;
  st.steps <- 0;
  st.max_sp <- 0;
  let locals = st.locals in
  for i = 0 to (Bytes.length locals lsr 3) - 1 do
    b64set locals (i lsl 3) 0L
  done;
  let scalar_slots = p.P.scalar_slots in
  for i = 0 to Array.length scalar_slots - 1 do
    b64set locals ((Array.unsafe_get scalar_slots i).P.s_local lsl 3)
      (Array.unsafe_get env.Interp.scalars i)
  done;
  match t.cp_entry st with
  | () ->
    (* Successful completion: publish writable scalar slots, as
       [Interp.run] does. *)
    for i = 0 to Array.length scalar_slots - 1 do
      let s = Array.unsafe_get scalar_slots i in
      if s.P.s_access = P.Read_write then
        Array.unsafe_set env.Interp.scalars i (b64get st.locals (s.P.s_local lsl 3))
    done;
    None
  | exception F f -> Some f

let last_steps t = t.cp_state.steps
let last_max_stack t = t.cp_state.max_sp
let last_heap_cells t = t.cp_state.heap_cells

let stats t =
  {
    Interp.steps = t.cp_state.steps;
    max_stack = t.cp_state.max_sp;
    heap_cells = t.cp_state.heap_cells;
  }

let run t ~env ~now ~rng =
  match exec t ~env ~now ~rng with
  | None -> Ok (stats t)
  | Some f -> Error (f, stats t)
