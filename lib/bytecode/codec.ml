let version = 2
let magic = "EDBC"

(* ------------------------------------------------------------------ *)
(* Encoding *)

let put_u8 b v = Buffer.add_uint8 b (v land 0xff)
let put_u16 b v = Buffer.add_uint16_le b (v land 0xffff)
let put_u32 b v = Buffer.add_int32_le b (Int32.of_int v)
let put_i64 b v = Buffer.add_int64_le b v

let put_string b s =
  put_u16 b (String.length s);
  Buffer.add_string b s

let entity_code = function Program.Packet -> 0 | Program.Message -> 1 | Program.Global -> 2
let access_code = function Program.Read_only -> 0 | Program.Read_write -> 1

(* Opcode tags.  Operand-free opcodes and operand-carrying ones share the
   byte space; the tag determines how many operand bytes follow. *)
let opcode_tag : Opcode.t -> int = function
  | Opcode.Push _ -> 0
  | Opcode.Pop -> 1
  | Opcode.Dup -> 2
  | Opcode.Swap -> 3
  | Opcode.Load _ -> 4
  | Opcode.Store _ -> 5
  | Opcode.Add -> 6
  | Opcode.Sub -> 7
  | Opcode.Mul -> 8
  | Opcode.Div -> 9
  | Opcode.Rem -> 10
  | Opcode.Neg -> 11
  | Opcode.Band -> 12
  | Opcode.Bor -> 13
  | Opcode.Bxor -> 14
  | Opcode.Shl -> 15
  | Opcode.Shr -> 16
  | Opcode.Not -> 17
  | Opcode.Eq -> 18
  | Opcode.Ne -> 19
  | Opcode.Lt -> 20
  | Opcode.Le -> 21
  | Opcode.Gt -> 22
  | Opcode.Ge -> 23
  | Opcode.Jmp _ -> 24
  | Opcode.Jz _ -> 25
  | Opcode.Jnz _ -> 26
  | Opcode.Gaload _ -> 27
  | Opcode.Gastore _ -> 28
  | Opcode.Galen _ -> 29
  | Opcode.Newarr -> 30
  | Opcode.Aload -> 31
  | Opcode.Astore -> 32
  | Opcode.Alen -> 33
  | Opcode.Rand -> 34
  | Opcode.Clock -> 35
  | Opcode.Hashmix -> 36
  | Opcode.Halt -> 37

let put_opcode b op =
  put_u8 b (opcode_tag op);
  match op with
  | Opcode.Push v -> put_i64 b v
  | Opcode.Load i | Opcode.Store i | Opcode.Jmp i | Opcode.Jz i | Opcode.Jnz i
  | Opcode.Gaload i | Opcode.Gastore i | Opcode.Galen i ->
    put_u32 b i
  | _ -> ()

let encode (p : Program.t) =
  let b = Buffer.create 256 in
  Buffer.add_string b magic;
  put_u8 b version;
  put_string b p.Program.name;
  put_u32 b p.Program.n_locals;
  put_u32 b p.Program.stack_limit;
  put_u32 b p.Program.heap_limit;
  put_u32 b p.Program.step_limit;
  put_u16 b (Array.length p.Program.scalar_slots);
  Array.iter
    (fun (s : Program.scalar_slot) ->
      put_string b s.Program.s_name;
      put_u8 b (entity_code s.Program.s_entity);
      put_u8 b (access_code s.Program.s_access);
      put_u16 b s.Program.s_local)
    p.Program.scalar_slots;
  put_u16 b (Array.length p.Program.array_slots);
  Array.iter
    (fun (a : Program.array_slot) ->
      put_string b a.Program.a_name;
      put_u8 b (entity_code a.Program.a_entity);
      put_u8 b (access_code a.Program.a_access);
      put_u16 b a.Program.a_min_len)
    p.Program.array_slots;
  put_u32 b (Array.length p.Program.code);
  Array.iter (put_opcode b) p.Program.code;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Decoding *)

type error = { offset : int; message : string }

let error_to_string e = Printf.sprintf "offset %d: %s" e.offset e.message
let pp_error fmt e = Format.pp_print_string fmt (error_to_string e)

exception Decode_error of error

type reader = { data : string; mutable pos : int }

let derr r message = raise (Decode_error { offset = r.pos; message })

let need r n =
  if r.pos + n > String.length r.data then derr r (Printf.sprintf "truncated (need %d bytes)" n)

let get_u8 r =
  need r 1;
  let v = Char.code r.data.[r.pos] in
  r.pos <- r.pos + 1;
  v

let get_u16 r =
  need r 2;
  let v = Char.code r.data.[r.pos] lor (Char.code r.data.[r.pos + 1] lsl 8) in
  r.pos <- r.pos + 2;
  v

let get_u32 r =
  need r 4;
  let v = ref 0 in
  for k = 3 downto 0 do
    v := (!v lsl 8) lor Char.code r.data.[r.pos + k]
  done;
  r.pos <- r.pos + 4;
  !v

let get_i64 r =
  need r 8;
  let v = ref 0L in
  for k = 7 downto 0 do
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (Char.code r.data.[r.pos + k]))
  done;
  r.pos <- r.pos + 8;
  !v

let get_string r =
  let len = get_u16 r in
  need r len;
  let s = String.sub r.data r.pos len in
  r.pos <- r.pos + len;
  s

let entity_of_code r = function
  | 0 -> Program.Packet
  | 1 -> Program.Message
  | 2 -> Program.Global
  | c -> derr r (Printf.sprintf "bad entity code %d" c)

let access_of_code r = function
  | 0 -> Program.Read_only
  | 1 -> Program.Read_write
  | c -> derr r (Printf.sprintf "bad access code %d" c)

let get_opcode r =
  let tag = get_u8 r in
  match tag with
  | 0 -> Opcode.Push (get_i64 r)
  | 1 -> Opcode.Pop
  | 2 -> Opcode.Dup
  | 3 -> Opcode.Swap
  | 4 -> Opcode.Load (get_u32 r)
  | 5 -> Opcode.Store (get_u32 r)
  | 6 -> Opcode.Add
  | 7 -> Opcode.Sub
  | 8 -> Opcode.Mul
  | 9 -> Opcode.Div
  | 10 -> Opcode.Rem
  | 11 -> Opcode.Neg
  | 12 -> Opcode.Band
  | 13 -> Opcode.Bor
  | 14 -> Opcode.Bxor
  | 15 -> Opcode.Shl
  | 16 -> Opcode.Shr
  | 17 -> Opcode.Not
  | 18 -> Opcode.Eq
  | 19 -> Opcode.Ne
  | 20 -> Opcode.Lt
  | 21 -> Opcode.Le
  | 22 -> Opcode.Gt
  | 23 -> Opcode.Ge
  | 24 -> Opcode.Jmp (get_u32 r)
  | 25 -> Opcode.Jz (get_u32 r)
  | 26 -> Opcode.Jnz (get_u32 r)
  | 27 -> Opcode.Gaload (get_u32 r)
  | 28 -> Opcode.Gastore (get_u32 r)
  | 29 -> Opcode.Galen (get_u32 r)
  | 30 -> Opcode.Newarr
  | 31 -> Opcode.Aload
  | 32 -> Opcode.Astore
  | 33 -> Opcode.Alen
  | 34 -> Opcode.Rand
  | 35 -> Opcode.Clock
  | 36 -> Opcode.Hashmix
  | 37 -> Opcode.Halt
  | t -> derr r (Printf.sprintf "bad opcode tag %d" t)

let max_reasonable = 1 lsl 20

let check_count r what n =
  if n < 0 || n > max_reasonable then derr r (Printf.sprintf "unreasonable %s count %d" what n)

let decode data =
  let r = { data; pos = 0 } in
  try
    need r 4;
    if String.sub data 0 4 <> magic then derr r "bad magic";
    r.pos <- 4;
    let v = get_u8 r in
    if v <> version then derr r (Printf.sprintf "unsupported version %d" v);
    let name = get_string r in
    let n_locals = get_u32 r in
    let stack_limit = get_u32 r in
    let heap_limit = get_u32 r in
    let step_limit = get_u32 r in
    check_count r "locals" n_locals;
    check_count r "stack" stack_limit;
    check_count r "heap" heap_limit;
    let n_scalars = get_u16 r in
    let scalar_slots =
      Array.init n_scalars (fun _ ->
          let s_name = get_string r in
          let s_entity = entity_of_code r (get_u8 r) in
          let s_access = access_of_code r (get_u8 r) in
          let s_local = get_u16 r in
          { Program.s_name; s_entity; s_access; s_local })
    in
    let n_arrays = get_u16 r in
    let array_slots =
      Array.init n_arrays (fun _ ->
          let a_name = get_string r in
          let a_entity = entity_of_code r (get_u8 r) in
          let a_access = access_of_code r (get_u8 r) in
          let a_min_len = get_u16 r in
          { Program.a_name; a_entity; a_access; a_min_len })
    in
    let n_code = get_u32 r in
    check_count r "instruction" n_code;
    let code = Array.init n_code (fun _ -> get_opcode r) in
    if r.pos <> String.length data then derr r "trailing bytes";
    Ok
      (Program.make ~name ~code ~scalar_slots ~array_slots ~n_locals ~stack_limit
         ~heap_limit ~step_limit ())
  with Decode_error e -> Error e
