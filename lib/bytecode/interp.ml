type env = { scalars : int64 array; arrays : int64 array array }

let make_env (p : Program.t) ~scalars ~arrays =
  if Array.length scalars <> Array.length p.scalar_slots then
    invalid_arg
      (Printf.sprintf "Interp.make_env: %d scalars supplied, program %S declares %d"
         (Array.length scalars) p.name (Array.length p.scalar_slots));
  if Array.length arrays <> Array.length p.array_slots then
    invalid_arg
      (Printf.sprintf "Interp.make_env: %d arrays supplied, program %S declares %d"
         (Array.length arrays) p.name (Array.length p.array_slots));
  Array.iteri
    (fun i (a : Program.array_slot) ->
      if Array.length arrays.(i) < a.a_min_len then
        invalid_arg
          (Printf.sprintf
             "Interp.make_env: array %S has %d elements, program %S requires >= %d"
             a.a_name (Array.length arrays.(i)) p.name a.a_min_len))
    p.array_slots;
  { scalars; arrays }

type fault =
  | Division_by_zero of { pc : int }
  | Array_bounds of { pc : int; index : int; length : int }
  | Invalid_reference of { pc : int }
  | Negative_array_length of { pc : int; length : int }
  | Heap_exhausted of { pc : int; requested : int; limit : int }
  | Step_limit_exceeded of { limit : int }
  | Operand_stack_overflow of { pc : int }
  | Operand_stack_underflow of { pc : int }
  | Bad_random_bound of { pc : int; bound : int64 }
  | Undersized_env_array of { slot : int; length : int; min_len : int }

let fault_to_string = function
  | Division_by_zero { pc } -> Printf.sprintf "pc %d: division by zero" pc
  | Array_bounds { pc; index; length } ->
    Printf.sprintf "pc %d: index %d out of bounds (length %d)" pc index length
  | Invalid_reference { pc } -> Printf.sprintf "pc %d: invalid heap reference" pc
  | Negative_array_length { pc; length } ->
    Printf.sprintf "pc %d: negative array length %d" pc length
  | Heap_exhausted { pc; requested; limit } ->
    Printf.sprintf "pc %d: heap exhausted (requested %d, limit %d cells)" pc requested limit
  | Step_limit_exceeded { limit } -> Printf.sprintf "step limit %d exceeded" limit
  | Operand_stack_overflow { pc } -> Printf.sprintf "pc %d: operand stack overflow" pc
  | Operand_stack_underflow { pc } -> Printf.sprintf "pc %d: operand stack underflow" pc
  | Bad_random_bound { pc; bound } ->
    Printf.sprintf "pc %d: rand bound %Ld not positive" pc bound
  | Undersized_env_array { slot; length; min_len } ->
    Printf.sprintf "env array slot %d has %d elements, proof requires >= %d" slot
      length min_len

let pp_fault fmt f = Format.pp_print_string fmt (fault_to_string f)

type stats = { steps : int; max_stack : int; heap_cells : int }

(* Reusable per-program buffers: one allocation at install time instead of
   three per invocation, which matters when the simulator runs an action
   on every packet. *)
type scratch = { sc_stack : int64 array; sc_locals : int64 array }

let make_scratch (p : Program.t) =
  { sc_stack = Array.make p.stack_limit 0L; sc_locals = Array.make (max p.n_locals 1) 0L }

exception Fault of fault

let run ?scratch (p : Program.t) ~env ~now ~rng =
  let code = p.code in
  let len = Array.length code in
  let stack, locals =
    match scratch with
    | Some sc ->
      if
        Array.length sc.sc_stack < p.stack_limit
        || Array.length sc.sc_locals < max p.n_locals 1
      then invalid_arg "Interp.run: scratch buffers too small for this program";
      (* Clear locals so hand-written bytecode cannot observe a previous
         invocation's values through an uninitialized local. *)
      Array.fill sc.sc_locals 0 (Array.length sc.sc_locals) 0L;
      (sc.sc_stack, sc.sc_locals)
    | None -> (Array.make p.stack_limit 0L, Array.make (max p.n_locals 1) 0L)
  in
  let sp = ref 0 in
  let max_sp = ref 0 in
  (* Pre-load scalar environment slots into locals. *)
  Array.iteri
    (fun i (s : Program.scalar_slot) -> locals.(s.s_local) <- env.scalars.(i))
    p.scalar_slots;
  let heap : int64 array array = Array.make 16 [||] in
  let heap = ref heap in
  let n_heap = ref 0 in
  let heap_cells = ref 0 in
  let steps = ref 0 in
  let pc = ref 0 in
  let push v =
    if !sp >= p.stack_limit then raise (Fault (Operand_stack_overflow { pc = !pc }));
    stack.(!sp) <- v;
    incr sp;
    if !sp > !max_sp then max_sp := !sp
  in
  let pop () =
    if !sp <= 0 then raise (Fault (Operand_stack_underflow { pc = !pc }));
    decr sp;
    stack.(!sp)
  in
  let to_bool v = if Int64.equal v 0L then 0L else 1L in
  let env_array s = env.arrays.(s) in
  let check_index arr i =
    let n = Array.length arr in
    if i < 0 || i >= n then raise (Fault (Array_bounds { pc = !pc; index = i; length = n }))
  in
  let heap_get r =
    let r = Int64.to_int r in
    if r < 0 || r >= !n_heap then raise (Fault (Invalid_reference { pc = !pc }));
    !heap.(r)
  in
  let alloc n =
    if n < 0 then raise (Fault (Negative_array_length { pc = !pc; length = n }));
    if !heap_cells + n > p.heap_limit then
      raise (Fault (Heap_exhausted { pc = !pc; requested = n; limit = p.heap_limit }));
    if !n_heap = Array.length !heap then begin
      let bigger = Array.make (2 * !n_heap) [||] in
      Array.blit !heap 0 bigger 0 !n_heap;
      heap := bigger
    end;
    !heap.(!n_heap) <- Array.make n 0L;
    heap_cells := !heap_cells + n;
    let r = !n_heap in
    incr n_heap;
    Int64.of_int r
  in
  let stats () = { steps = !steps; max_stack = !max_sp; heap_cells = !heap_cells } in
  try
    while !pc < len do
      if !steps >= p.step_limit then
        raise (Fault (Step_limit_exceeded { limit = p.step_limit }));
      incr steps;
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
      | Opcode.Load i -> push locals.(i)
      | Opcode.Store i -> locals.(i) <- pop ()
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
        if Int64.equal b 0L then raise (Fault (Division_by_zero { pc = !pc }));
        push (Int64.div a b)
      | Opcode.Rem ->
        let b = pop () and a = pop () in
        if Int64.equal b 0L then raise (Fault (Division_by_zero { pc = !pc }));
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
        (* Bounds proved statically (verifier re-checks the proof and the
           runtime enforces [a_min_len]), so skip [check_index]. *)
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
          raise (Fault (Bad_random_bound { pc = !pc; bound }));
        (* Bounds beyond [max_int] do not occur in practice; reject via to_int. *)
        push (Int64.of_int (Eden_base.Rng.int rng (Int64.to_int bound)))
      | Opcode.Clock -> push (Eden_base.Time.to_ns now)
      | Opcode.Hashmix ->
        let b = pop () and a = pop () in
        let m =
          Int64.mul (Int64.logxor (Int64.mul a 0x9E3779B97F4A7C15L) b) 0xBF58476D1CE4E5B9L
        in
        push (Int64.logxor m (Int64.shift_right_logical m 31))
      | Opcode.Halt -> next := len);
      pc := !next
    done;
    (* Successful completion: publish writable scalar slots. *)
    Array.iteri
      (fun i (s : Program.scalar_slot) ->
        if s.s_access = Program.Read_write then env.scalars.(i) <- locals.(s.s_local))
      p.scalar_slots;
    Ok (stats ())
  with Fault f -> Error (f, stats ())
