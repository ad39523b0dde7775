type entity = Packet | Message | Global

let entity_to_string = function
  | Packet -> "packet"
  | Message -> "message"
  | Global -> "global"

type access = Read_only | Read_write

let access_to_string = function Read_only -> "ro" | Read_write -> "rw"

type scalar_slot = {
  s_name : string;
  s_entity : entity;
  s_access : access;
  s_local : int;
}

type array_slot = {
  a_name : string;
  a_entity : entity;
  a_access : access;
  a_min_len : int;
}

type t = {
  name : string;
  code : Opcode.t array;
  scalar_slots : scalar_slot array;
  array_slots : array_slot array;
  n_locals : int;
  stack_limit : int;
  heap_limit : int;
  step_limit : int;
}

let default_stack_limit = 64
let default_heap_limit = 256
let default_step_limit = 100_000

let max_local_in_code code =
  Array.fold_left
    (fun acc op ->
      match op with Opcode.Load i | Opcode.Store i -> max acc i | _ -> acc)
    (-1) code

let make ~name ~code ?(scalar_slots = [||]) ?(array_slots = [||]) ?n_locals
    ?(stack_limit = default_stack_limit) ?(heap_limit = default_heap_limit)
    ?(step_limit = default_step_limit) () =
  let slot_max =
    Array.fold_left (fun acc s -> max acc s.s_local) (-1) scalar_slots
  in
  let n_locals =
    match n_locals with
    | Some n -> n
    | None -> 1 + max (max_local_in_code code) slot_max
  in
  { name; code; scalar_slots; array_slots; n_locals; stack_limit; heap_limit; step_limit }

type concurrency = [ `Parallel | `Per_message | `Serial ]

let concurrency_to_string = function
  | `Parallel -> "parallel"
  | `Per_message -> "per-message"
  | `Serial -> "serial"

type footprint = {
  loads : bool array;
  stores : bool array;
  array_stores : bool array;
  shared_local : bool;
  writes : entity list;
  concurrency : concurrency;
}

let footprint t =
  let loads = Array.make t.n_locals false in
  let stores = Array.make t.n_locals false in
  let array_stores = Array.make (Array.length t.array_slots) false in
  Array.iter
    (function
      | Opcode.Load i -> loads.(i) <- true
      | Opcode.Store i -> stores.(i) <- true
      | Opcode.Gastore s -> array_stores.(s) <- true
      | _ -> ())
    t.code;
  let claimed = Array.make t.n_locals false in
  let shared_local =
    Array.exists
      (fun s ->
        let d = claimed.(s.s_local) in
        claimed.(s.s_local) <- true;
        d)
      t.scalar_slots
  in
  let declares_write e =
    Array.exists (fun s -> s.s_entity = e && s.s_access = Read_write) t.scalar_slots
    || Array.exists (fun a -> a.a_entity = e && a.a_access = Read_write) t.array_slots
  in
  let writes = List.filter declares_write [ Packet; Message; Global ] in
  let concurrency =
    if List.mem Global writes then `Serial
    else if List.mem Message writes then `Per_message
    else `Parallel
  in
  { loads; stores; array_stores; shared_local; writes; concurrency }

let find_scalar t name =
  Array.find_opt (fun s -> String.equal s.s_name name) t.scalar_slots

let find_array t name =
  let found = ref None in
  Array.iteri
    (fun i a -> if String.equal a.a_name name && !found = None then found := Some (i, a))
    t.array_slots;
  !found

(* Splice out instructions never scheduled by the reachability walk and
   remap the surviving jump targets.  Any target a *reachable* jump
   names is itself reachable (or is [len], the fall-off-the-end pc), so
   remapping is total over the code that remains. *)
let strip_unreachable t =
  let len = Array.length t.code in
  if len = 0 then t
  else begin
    let reached = Array.make len false in
    let pending = Queue.create () in
    let schedule pc = if pc >= 0 && pc < len && not reached.(pc) then begin
        reached.(pc) <- true;
        Queue.add pc pending
      end
    in
    schedule 0;
    while not (Queue.is_empty pending) do
      let pc = Queue.pop pending in
      let op = t.code.(pc) in
      (match Opcode.jump_target op with Some tgt -> schedule tgt | None -> ());
      if not (Opcode.is_terminator op) then schedule (pc + 1)
    done;
    if Array.for_all Fun.id reached then t
    else begin
      (* new_pc.(pc) = index of pc's instruction after splicing. *)
      let new_pc = Array.make (len + 1) 0 in
      let n = ref 0 in
      for pc = 0 to len do
        new_pc.(pc) <- !n;
        if pc < len && reached.(pc) then incr n
      done;
      let remap op =
        match op with
        | Opcode.Jmp tgt -> Opcode.Jmp new_pc.(tgt)
        | Opcode.Jz tgt -> Opcode.Jz new_pc.(tgt)
        | Opcode.Jnz tgt -> Opcode.Jnz new_pc.(tgt)
        | op -> op
      in
      let code = Array.make !n Opcode.Halt in
      for pc = 0 to len - 1 do
        if reached.(pc) then code.(new_pc.(pc)) <- remap t.code.(pc)
      done;
      { t with code }
    end
  end

let pp fmt t =
  Format.fprintf fmt "@[<v>program %S (locals=%d stack<=%d heap<=%d steps<=%d)@,"
    t.name t.n_locals t.stack_limit t.heap_limit t.step_limit;
  Array.iter
    (fun s ->
      Format.fprintf fmt "  scalar %-28s %s %s -> local %d@," s.s_name
        (entity_to_string s.s_entity) (access_to_string s.s_access) s.s_local)
    t.scalar_slots;
  Array.iteri
    (fun i a ->
      Format.fprintf fmt "  array  %-28s %s %s -> slot %d%s@," a.a_name
        (entity_to_string a.a_entity) (access_to_string a.a_access) i
        (if a.a_min_len > 0 then Printf.sprintf " (len>=%d)" a.a_min_len else ""))
    t.array_slots;
  Array.iteri (fun i op -> Format.fprintf fmt "  %4d: %s@," i (Opcode.to_string op)) t.code;
  Format.fprintf fmt "@]"
