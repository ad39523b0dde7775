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
    Printf.sprintf "env array slot %d has %d elements, program requires >= %d" slot
      length min_len

let pp_fault fmt f = Format.pp_print_string fmt (fault_to_string f)

type stats = { steps : int; max_stack : int; heap_cells : int }

(* The bytecode machine: one per program, made at install and reset per
   run, shared by both engines ([Compiled] runs its closure code over it
   and hands a block it cannot finish back to [resume]).  The operand
   stack, the locals and the scalar I/O slots are unboxed 8-byte slots in
   a [Bytes.t], so values move between the caller, the slots and the
   code without boxing and without the write barrier. *)
type scratch = {
  stack : Bytes.t;
  locals : Bytes.t;
  io : Bytes.t;
  mutable env_arrays : int64 array array;
  mutable heap : int64 array array;
  mutable n_heap : int;
  mutable heap_cells : int;
  mutable steps : int;
  mutable max_sp : int;
  mutable now_ns : int64;
  mutable rng : Eden_base.Rng.t;
}

let make_scratch (p : Program.t) =
  {
    stack = Bytes.make (8 * max p.stack_limit 1) '\000';
    locals = Bytes.make (8 * max p.n_locals 1) '\000';
    io = Bytes.make (8 * max (Array.length p.scalar_slots) 1) '\000';
    env_arrays = [||];
    heap = Array.make 16 [||];
    n_heap = 0;
    heap_cells = 0;
    steps = 0;
    max_sp = 0;
    now_ns = 0L;
    rng = Eden_base.Rng.create 0L;
  }

exception Fault of fault

external b64get : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external b64set : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let stats m = { steps = m.steps; max_stack = m.max_sp; heap_cells = m.heap_cells }

(* Entry work is per call, so it is kept to what a call changes: the
   arrays and rng fields are re-stored (a write barrier each) only when
   the caller passes different objects, the heap is reset only if the
   last run allocated, and the locals are zeroed by an inline loop rather
   than a C call.  Scalars are copied from the I/O slots into locals
   here, unboxed.  Unchecked: [invoke] validates the machine first;
   [Compiled.invoke] runs verified programs only. *)
let[@inline] reset (p : Program.t) m ~arrays ~now ~rng =
  if not (m.env_arrays == arrays) then m.env_arrays <- arrays;
  if not (m.rng == rng) then m.rng <- rng;
  let now_ns = Eden_base.Time.to_ns now in
  if not (m.now_ns == now_ns) then m.now_ns <- now_ns;
  if m.n_heap > 0 then begin
    Array.fill m.heap 0 m.n_heap [||];
    m.n_heap <- 0
  end;
  m.heap_cells <- 0;
  m.steps <- 0;
  m.max_sp <- 0;
  let locals = m.locals in
  for i = 0 to (Bytes.length locals lsr 3) - 1 do
    b64set locals (i lsl 3) 0L
  done;
  let scalar_slots = p.scalar_slots in
  for i = 0 to Array.length scalar_slots - 1 do
    b64set locals ((Array.unsafe_get scalar_slots i).s_local lsl 3) (b64get m.io (i lsl 3))
  done

(* Successful completion: copy the writable scalar locals to their I/O
   slots.  Read-only slots keep what the caller wrote. *)
let[@inline] publish (p : Program.t) m =
  let scalar_slots = p.scalar_slots in
  for i = 0 to Array.length scalar_slots - 1 do
    let s = Array.unsafe_get scalar_slots i in
    if s.s_access = Program.Read_write then
      b64set m.io (i lsl 3) (b64get m.locals (s.s_local lsl 3))
  done

(* The boxed edge, for [exec ~env]: the env's scalars into the I/O slots,
   and after a successful run the writable slots back. *)
let scalars_in (p : Program.t) m (env : env) =
  for i = 0 to Array.length p.scalar_slots - 1 do
    b64set m.io (i lsl 3) (Array.unsafe_get env.scalars i)
  done

let scalars_out (p : Program.t) m (env : env) =
  let scalar_slots = p.scalar_slots in
  for i = 0 to Array.length scalar_slots - 1 do
    if (Array.unsafe_get scalar_slots i).s_access = Program.Read_write then
      Array.unsafe_set env.scalars i (b64get m.io (i lsl 3))
  done

(* The one heap allocator; returns the new array's reference. *)
let alloc m ~heap_limit ~pc n =
  if n < 0 then raise (Fault (Negative_array_length { pc; length = n }));
  if m.heap_cells + n > heap_limit then
    raise (Fault (Heap_exhausted { pc; requested = n; limit = heap_limit }));
  if m.n_heap = Array.length m.heap then begin
    let bigger = Array.make (2 * m.n_heap) [||] in
    Array.blit m.heap 0 bigger 0 m.n_heap;
    m.heap <- bigger
  end;
  m.heap.(m.n_heap) <- Array.make n 0L;
  m.heap_cells <- m.heap_cells + n;
  let r = m.n_heap in
  m.n_heap <- r + 1;
  r

(* Per-instruction helpers.  [sp] is the operand-stack depth before the
   instruction; [get m sp k] reads the k-th value from the top (k >= 1)
   and [set m i v] writes slot [i].  Callers establish [0 <= i < sp] or
   [sp < stack_limit] with [need]/[room] first, and [exec] checked that
   the machine holds [stack_limit] slots, so the slot accesses are
   unchecked. *)
let[@inline] get m sp k = b64get m.stack ((sp - k) lsl 3)
let[@inline] set m i v = b64set m.stack (i lsl 3) v

let[@inline] need ~pc sp n = if sp < n then raise (Fault (Operand_stack_underflow { pc }))

let[@inline] room (p : Program.t) ~pc sp =
  if sp >= p.stack_limit then raise (Fault (Operand_stack_overflow { pc }))

(* Locals are addressed by the opcode's operand, which only the verifier
   bounds. *)
let[@inline] local m i =
  if i < 0 || i >= Bytes.length m.locals lsr 3 then invalid_arg "index out of bounds";
  i lsl 3

let[@inline] peak m sp = if sp > m.max_sp then m.max_sp <- sp

(* Result writers: [push] one value above [sp], [unary] over the top
   value, [binary] over the top two. *)
let[@inline] push m sp v =
  set m sp v;
  peak m (sp + 1)

let[@inline] unary m sp v = set m (sp - 1) v
let[@inline] binary m sp v = set m (sp - 2) v
let[@inline] bool b = if b then 1L else 0L

let[@inline] check_index ~pc arr i =
  let n = Array.length arr in
  if i < 0 || i >= n then raise (Fault (Array_bounds { pc; index = i; length = n }))

let[@inline] heap_get m ~pc r =
  let r = Int64.to_int r in
  if r < 0 || r >= m.n_heap then raise (Fault (Invalid_reference { pc }));
  Array.unsafe_get m.heap r

(* The interpreter: one instruction per iteration from [pc] with [sp]
   values on the stack, until control leaves the code.  Every access an
   unverified program controls is checked: stack depth against 0 and
   [stack_limit], locals, env slots and array indices. *)
let rec resume (p : Program.t) m ~pc ~sp =
  let code = p.code in
  if pc < Array.length code then begin
    if m.steps >= p.step_limit then
      raise (Fault (Step_limit_exceeded { limit = p.step_limit }));
    m.steps <- m.steps + 1;
    let next = pc + 1 in
    match code.(pc) with
    | Opcode.Push v ->
      room p ~pc sp;
      push m sp v;
      resume p m ~pc:next ~sp:(sp + 1)
    | Opcode.Pop ->
      need ~pc sp 1;
      resume p m ~pc:next ~sp:(sp - 1)
    | Opcode.Dup ->
      need ~pc sp 1;
      room p ~pc sp;
      push m sp (get m sp 1);
      resume p m ~pc:next ~sp:(sp + 1)
    | Opcode.Swap ->
      need ~pc sp 2;
      let b = get m sp 1 in
      set m (sp - 1) (get m sp 2);
      set m (sp - 2) b;
      resume p m ~pc:next ~sp
    | Opcode.Load i ->
      let v = b64get m.locals (local m i) in
      room p ~pc sp;
      push m sp v;
      resume p m ~pc:next ~sp:(sp + 1)
    | Opcode.Store i ->
      need ~pc sp 1;
      b64set m.locals (local m i) (get m sp 1);
      resume p m ~pc:next ~sp:(sp - 1)
    | Opcode.Add ->
      need ~pc sp 2;
      binary m sp (Int64.add (get m sp 2) (get m sp 1));
      resume p m ~pc:next ~sp:(sp - 1)
    | Opcode.Sub ->
      need ~pc sp 2;
      binary m sp (Int64.sub (get m sp 2) (get m sp 1));
      resume p m ~pc:next ~sp:(sp - 1)
    | Opcode.Mul ->
      need ~pc sp 2;
      binary m sp (Int64.mul (get m sp 2) (get m sp 1));
      resume p m ~pc:next ~sp:(sp - 1)
    | Opcode.Div ->
      need ~pc sp 2;
      let b = get m sp 1 in
      if Int64.equal b 0L then raise (Fault (Division_by_zero { pc }));
      binary m sp (Int64.div (get m sp 2) b);
      resume p m ~pc:next ~sp:(sp - 1)
    | Opcode.Rem ->
      need ~pc sp 2;
      let b = get m sp 1 in
      if Int64.equal b 0L then raise (Fault (Division_by_zero { pc }));
      binary m sp (Int64.rem (get m sp 2) b);
      resume p m ~pc:next ~sp:(sp - 1)
    | Opcode.Neg ->
      need ~pc sp 1;
      unary m sp (Int64.neg (get m sp 1));
      resume p m ~pc:next ~sp
    | Opcode.Band ->
      need ~pc sp 2;
      binary m sp (Int64.logand (get m sp 2) (get m sp 1));
      resume p m ~pc:next ~sp:(sp - 1)
    | Opcode.Bor ->
      need ~pc sp 2;
      binary m sp (Int64.logor (get m sp 2) (get m sp 1));
      resume p m ~pc:next ~sp:(sp - 1)
    | Opcode.Bxor ->
      need ~pc sp 2;
      binary m sp (Int64.logxor (get m sp 2) (get m sp 1));
      resume p m ~pc:next ~sp:(sp - 1)
    | Opcode.Shl ->
      need ~pc sp 2;
      binary m sp
        (Int64.shift_left (get m sp 2) (Int64.to_int (get m sp 1) land 63));
      resume p m ~pc:next ~sp:(sp - 1)
    | Opcode.Shr ->
      need ~pc sp 2;
      binary m sp
        (Int64.shift_right_logical (get m sp 2) (Int64.to_int (get m sp 1) land 63));
      resume p m ~pc:next ~sp:(sp - 1)
    | Opcode.Not ->
      need ~pc sp 1;
      unary m sp (bool (Int64.equal (get m sp 1) 0L));
      resume p m ~pc:next ~sp
    | Opcode.Eq ->
      need ~pc sp 2;
      binary m sp (bool (Int64.equal (get m sp 2) (get m sp 1)));
      resume p m ~pc:next ~sp:(sp - 1)
    | Opcode.Ne ->
      need ~pc sp 2;
      binary m sp (bool (not (Int64.equal (get m sp 2) (get m sp 1))));
      resume p m ~pc:next ~sp:(sp - 1)
    | Opcode.Lt ->
      need ~pc sp 2;
      binary m sp (bool (Int64.compare (get m sp 2) (get m sp 1) < 0));
      resume p m ~pc:next ~sp:(sp - 1)
    | Opcode.Le ->
      need ~pc sp 2;
      binary m sp (bool (Int64.compare (get m sp 2) (get m sp 1) <= 0));
      resume p m ~pc:next ~sp:(sp - 1)
    | Opcode.Gt ->
      need ~pc sp 2;
      binary m sp (bool (Int64.compare (get m sp 2) (get m sp 1) > 0));
      resume p m ~pc:next ~sp:(sp - 1)
    | Opcode.Ge ->
      need ~pc sp 2;
      binary m sp (bool (Int64.compare (get m sp 2) (get m sp 1) >= 0));
      resume p m ~pc:next ~sp:(sp - 1)
    | Opcode.Jmp t -> resume p m ~pc:t ~sp
    | Opcode.Jz t ->
      need ~pc sp 1;
      resume p m ~pc:(if Int64.equal (get m sp 1) 0L then t else next) ~sp:(sp - 1)
    | Opcode.Jnz t ->
      need ~pc sp 1;
      resume p m ~pc:(if Int64.equal (get m sp 1) 0L then next else t) ~sp:(sp - 1)
    | Opcode.Gaload s ->
      need ~pc sp 1;
      let i = Int64.to_int (get m sp 1) in
      let arr = m.env_arrays.(s) in
      check_index ~pc arr i;
      unary m sp (Array.unsafe_get arr i);
      resume p m ~pc:next ~sp
    | Opcode.Gastore s ->
      need ~pc sp 2;
      let i = Int64.to_int (get m sp 2) in
      let arr = m.env_arrays.(s) in
      check_index ~pc arr i;
      Array.unsafe_set arr i (get m sp 1);
      resume p m ~pc:next ~sp:(sp - 2)
    | Opcode.Galen s ->
      let n = Array.length m.env_arrays.(s) in
      room p ~pc sp;
      push m sp (Int64.of_int n);
      resume p m ~pc:next ~sp:(sp + 1)
    | Opcode.Newarr ->
      need ~pc sp 1;
      let r = alloc m ~heap_limit:p.heap_limit ~pc (Int64.to_int (get m sp 1)) in
      unary m sp (Int64.of_int r);
      resume p m ~pc:next ~sp
    | Opcode.Aload ->
      need ~pc sp 2;
      let i = Int64.to_int (get m sp 1) in
      let arr = heap_get m ~pc (get m sp 2) in
      check_index ~pc arr i;
      binary m sp (Array.unsafe_get arr i);
      resume p m ~pc:next ~sp:(sp - 1)
    | Opcode.Astore ->
      need ~pc sp 3;
      let i = Int64.to_int (get m sp 2) in
      let arr = heap_get m ~pc (get m sp 3) in
      check_index ~pc arr i;
      Array.unsafe_set arr i (get m sp 1);
      resume p m ~pc:next ~sp:(sp - 3)
    | Opcode.Alen ->
      need ~pc sp 1;
      unary m sp (Int64.of_int (Array.length (heap_get m ~pc (get m sp 1))));
      resume p m ~pc:next ~sp
    | Opcode.Rand ->
      need ~pc sp 1;
      let bound = get m sp 1 in
      if Int64.compare bound 0L <= 0 then raise (Fault (Bad_random_bound { pc; bound }));
      (* Bounds beyond [max_int] do not occur in practice; reject via to_int. *)
      unary m sp
        (Int64.of_int (Eden_base.Rng.int m.rng (Int64.to_int bound)));
      resume p m ~pc:next ~sp
    | Opcode.Clock ->
      room p ~pc sp;
      push m sp m.now_ns;
      resume p m ~pc:next ~sp:(sp + 1)
    | Opcode.Hashmix ->
      need ~pc sp 2;
      let mix =
        Int64.mul
          (Int64.logxor (Int64.mul (get m sp 2) 0x9E3779B97F4A7C15L) (get m sp 1))
          0xBF58476D1CE4E5B9L
      in
      binary m sp (Int64.logxor mix (Int64.shift_right_logical mix 31));
      resume p m ~pc:next ~sp:(sp - 1)
    | Opcode.Halt -> ()
  end

let check_fits (p : Program.t) m =
  if
    Bytes.length m.stack lsr 3 < p.stack_limit
    || Bytes.length m.locals lsr 3 < p.n_locals
    || Bytes.length m.io lsr 3 < Array.length p.scalar_slots
  then invalid_arg "Interp.run: scratch buffers too small for this program";
  for i = 0 to Array.length p.scalar_slots - 1 do
    let l = p.scalar_slots.(i).s_local in
    if l < 0 || l >= Bytes.length m.locals lsr 3 then
      invalid_arg "Interp.run: scalar slot bound to a local outside the machine"
  done

let run_fitted p m ~arrays ~now ~rng =
  reset p m ~arrays ~now ~rng;
  match resume p m ~pc:0 ~sp:0 with
  | () ->
    publish p m;
    None
  | exception Fault f -> Some f

let invoke ~scratch:m p ~arrays ~now ~rng =
  check_fits p m;
  run_fitted p m ~arrays ~now ~rng

let exec ~scratch:m p ~env ~now ~rng =
  check_fits p m;
  if Array.length env.scalars < Array.length p.scalar_slots then
    invalid_arg "Interp.run: env has fewer scalars than the program's slot table";
  scalars_in p m env;
  match run_fitted p m ~arrays:env.arrays ~now ~rng with
  | None ->
    scalars_out p m env;
    None
  | Some _ as fault -> fault

let run ?scratch p ~env ~now ~rng =
  let m = match scratch with Some m -> m | None -> make_scratch p in
  match exec ~scratch:m p ~env ~now ~rng with
  | None -> Ok (stats m)
  | Some f -> Error (f, stats m)
