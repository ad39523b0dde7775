type error =
  | Bad_jump of { pc : int; target : int }
  | Stack_underflow of { pc : int; depth : int }
  | Stack_overflow of { pc : int; depth : int; limit : int }
  | Inconsistent_stack of { pc : int; expected : int; found : int }
  | Bad_local of { pc : int; index : int; n_locals : int }
  | Bad_array_slot of { pc : int; slot : int }
  | Readonly_write of { pc : int; slot : int; name : string }
  | Unreachable_code of { pc : int }
  | Bad_limits of string
  | Empty_code

let error_to_string = function
  | Bad_jump { pc; target } -> Printf.sprintf "pc %d: jump to invalid target %d" pc target
  | Stack_underflow { pc; depth } ->
    Printf.sprintf "pc %d: stack underflow (depth %d)" pc depth
  | Stack_overflow { pc; depth; limit } ->
    Printf.sprintf "pc %d: stack depth %d exceeds limit %d" pc depth limit
  | Inconsistent_stack { pc; expected; found } ->
    Printf.sprintf "pc %d: inconsistent stack depth (%d vs %d)" pc expected found
  | Bad_local { pc; index; n_locals } ->
    Printf.sprintf "pc %d: local %d out of range (frame has %d)" pc index n_locals
  | Bad_array_slot { pc; slot } -> Printf.sprintf "pc %d: no array slot %d" pc slot
  | Readonly_write { pc; slot; name } ->
    Printf.sprintf "pc %d: write to read-only array slot %d (%s)" pc slot name
  | Unreachable_code { pc } -> Printf.sprintf "pc %d: unreachable instruction" pc
  | Bad_limits msg -> Printf.sprintf "bad limits: %s" msg
  | Empty_code -> "empty code"

let pp_error fmt e = Format.pp_print_string fmt (error_to_string e)

type analysis = { an_max_stack : int; an_unreachable : int list }

(* Dataflow over instruction indices: every pc must be reached with a single,
   consistent operand-stack depth (same discipline as JVM verification).
   [pc = len] represents normal completion by falling off the end. *)
let analyse ?(strict = false) (p : Program.t) =
  let open Program in
  let len = Array.length p.code in
  if len = 0 then Error Empty_code
  else if p.stack_limit <= 0 then Error (Bad_limits "stack_limit must be positive")
  else if p.heap_limit < 0 then Error (Bad_limits "heap_limit must be non-negative")
  else if p.step_limit <= 0 then Error (Bad_limits "step_limit must be positive")
  else begin
    let depth_at = Array.make (len + 1) (-1) in
    let max_depth = ref 0 in
    let exception Verify_error of error in
    let check_local pc i =
      if i < 0 || i >= p.n_locals then
        raise (Verify_error (Bad_local { pc; index = i; n_locals = p.n_locals }))
    in
    let check_slot pc ~write s =
      if s < 0 || s >= Array.length p.array_slots then
        raise (Verify_error (Bad_array_slot { pc; slot = s }))
      else if write && p.array_slots.(s).a_access = Read_only then
        raise
          (Verify_error (Readonly_write { pc; slot = s; name = p.array_slots.(s).a_name }))
    in
    let pending = Queue.create () in
    let schedule pc depth =
      if pc < 0 || pc > len then raise (Verify_error (Bad_jump { pc; target = pc }));
      if depth_at.(pc) = -1 then begin
        depth_at.(pc) <- depth;
        if pc < len then Queue.add pc pending
      end
      else if depth_at.(pc) <> depth then
        raise (Verify_error (Inconsistent_stack { pc; expected = depth_at.(pc); found = depth }))
    in
    try
      schedule 0 0;
      while not (Queue.is_empty pending) do
        let pc = Queue.pop pending in
        let op = p.code.(pc) in
        let depth = depth_at.(pc) in
        let pops, pushes = Opcode.stack_effect op in
        if depth < pops then raise (Verify_error (Stack_underflow { pc; depth }));
        let depth' = depth - pops + pushes in
        if depth' > p.stack_limit then
          raise (Verify_error (Stack_overflow { pc; depth = depth'; limit = p.stack_limit }));
        if depth' > !max_depth then max_depth := depth';
        (match op with
        | Opcode.Load i | Opcode.Store i -> check_local pc i
        | Opcode.Gaload s | Opcode.Galen s -> check_slot pc ~write:false s
        | Opcode.Gastore s -> check_slot pc ~write:true s
        | _ -> ());
        (match Opcode.jump_target op with
        | Some target ->
          if target < 0 || target > len then
            raise (Verify_error (Bad_jump { pc; target }));
          schedule target depth'
        | None -> ());
        match op with
        | Opcode.Jmp _ | Opcode.Halt -> ()
        | _ -> schedule (pc + 1) depth'
      done;
      let unreachable = ref [] in
      for pc = len - 1 downto 0 do
        if depth_at.(pc) = -1 then unreachable := pc :: !unreachable
      done;
      (match (strict, !unreachable) with
      | true, pc :: _ -> raise (Verify_error (Unreachable_code { pc }))
      | _ -> ());
      Ok { an_max_stack = !max_depth; an_unreachable = !unreachable }
    with Verify_error e -> Error e
  end

let verify ?strict p = Result.map (fun _ -> ()) (analyse ?strict p)
let max_stack_depth p = Result.map (fun a -> a.an_max_stack) (analyse p)
