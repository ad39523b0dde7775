(* Shard classification (see the .mli for the contract).

   The accumulator proof looks for the unique occurrence of

       pc_l: Load l          ; the accumulated global
             <E>             ; computes the delta, never touching l
       pc_s-1: Add
       pc_s: Store l

   and checks three things: E is straight-line whitelisted code, no
   jump anywhere in the program lands inside (pc_l, pc_s], and a static
   stack-depth walk shows the loaded value stays strictly below every
   operand E consumes — so the published value is exactly
   [old + delta] with [old] otherwise unobservable.  Under that shape,
   running per-shard and summing deltas commutes with any interleaving
   of the sequential stream. *)

type klass = Sharded | Sharded_delta of int list | Serialized

let to_string = function
  | Sharded -> "sharded"
  | Sharded_delta slots ->
    Printf.sprintf "sharded-delta(%s)"
      (String.concat "," (List.map string_of_int slots))
  | Serialized -> "serialized"

let pp fmt k = Format.pp_print_string fmt (to_string k)

let uses_rand (p : Program.t) =
  Array.exists (function Opcode.Rand -> true | _ -> false) p.Program.code

(* Opcodes allowed between the accumulator's Load and its Add: pure
   (state-wise), non-branching, and operating only on the operand stack
   above the loaded value.  Div/Rem/Rand may fault, which aborts the
   invocation before anything is published — still sound. *)
let delta_op_ok ~acc_local = function
  | Opcode.Push _ | Opcode.Pop | Opcode.Dup -> true
  | Opcode.Load l -> l <> acc_local
  | Opcode.Add | Opcode.Sub | Opcode.Mul | Opcode.Div | Opcode.Rem | Opcode.Neg
  | Opcode.Band | Opcode.Bor | Opcode.Bxor | Opcode.Shl | Opcode.Shr | Opcode.Not
  | Opcode.Eq | Opcode.Ne | Opcode.Lt | Opcode.Le | Opcode.Gt | Opcode.Ge ->
    true
  | Opcode.Gaload _ | Opcode.Galen _ -> true
  | Opcode.Clock | Opcode.Hashmix | Opcode.Rand -> true
  (* Swap could sink the accumulated value into the delta computation;
     stores, heap ops and control flow are out wholesale. *)
  | Opcode.Swap | Opcode.Store _ | Opcode.Gastore _
  | Opcode.Newarr | Opcode.Aload | Opcode.Astore | Opcode.Alen
  | Opcode.Jmp _ | Opcode.Jz _ | Opcode.Jnz _ | Opcode.Halt ->
    false

let positions code pred =
  let acc = ref [] in
  Array.iteri (fun i op -> if pred op then acc := i :: !acc) code;
  List.rev !acc

(* Is local [l]'s unique Load/Store pair a proved pure accumulator? *)
let accumulator_ok (p : Program.t) l =
  let code = p.Program.code in
  match
    ( positions code (function Opcode.Load x -> x = l | _ -> false),
      positions code (function Opcode.Store x -> x = l | _ -> false) )
  with
  | [ pc_l ], [ pc_s ] when pc_s >= pc_l + 2 && code.(pc_s - 1) = Opcode.Add ->
    (* No jump may land strictly inside the pattern: entry is only by
       falling through the Load, exit only past the Store. *)
    let jump_into =
      Array.exists
        (fun op ->
          match Opcode.jump_target op with
          | Some tgt -> tgt > pc_l && tgt <= pc_s
          | None -> false)
        code
    in
    (not jump_into)
    &&
    (* Walk E = code[pc_l+1 .. pc_s-2]: whitelisted ops only, and the
       loaded value (depth 1 at entry) is never consumed — every op
       must find all its operands strictly above it. *)
    let rec walk pc depth =
      if pc > pc_s - 2 then depth = 2 (* exactly [old; delta] before the Add *)
      else
        let op = code.(pc) in
        if not (delta_op_ok ~acc_local:l op) then false
        else
          let pops, pushes = Opcode.stack_effect op in
          if depth - pops < 1 then false else walk (pc + 1) (depth - pops + pushes)
    in
    walk (pc_l + 1) 1
  | _ -> false

let classify (p : Program.t) =
  let fp = Program.footprint p in
  let array_written = ref false in
  Array.iteri
    (fun i (a : Program.array_slot) ->
      if a.Program.a_entity = Program.Global && a.Program.a_access = Program.Read_write
         && fp.Program.array_stores.(i)
      then array_written := true)
    p.Program.array_slots;
  if !array_written then Serialized
  else begin
    let written_globals = ref [] in
    Array.iteri
      (fun i (s : Program.scalar_slot) ->
        if s.Program.s_entity = Program.Global && s.Program.s_access = Program.Read_write
           && fp.Program.stores.(s.Program.s_local)
        then written_globals := (i, s.Program.s_local) :: !written_globals)
      p.Program.scalar_slots;
    match List.rev !written_globals with
    | [] -> Sharded
    | writes ->
      (* Slots sharing one local make per-slot reasoning ambiguous; bail
         to the serialization fallback if a written global is involved. *)
      if fp.Program.shared_local then Serialized
      else if List.for_all (fun (_, l) -> accumulator_ok p l) writes then
        Sharded_delta (List.map fst writes)
      else Serialized
  end
