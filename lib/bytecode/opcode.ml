type t =
  | Push of int64
  | Pop
  | Dup
  | Swap
  | Load of int
  | Store of int
  | Add
  | Sub
  | Mul
  | Div
  | Rem
  | Neg
  | Band
  | Bor
  | Bxor
  | Shl
  | Shr
  | Not
  | Eq
  | Ne
  | Lt
  | Le
  | Gt
  | Ge
  | Jmp of int
  | Jz of int
  | Jnz of int
  | Gaload of int
  | Gastore of int
  | Galen of int
  | Newarr
  | Aload
  | Astore
  | Alen
  | Rand
  | Clock
  | Hashmix
  | Halt

let to_string = function
  | Push v -> Printf.sprintf "push %Ld" v
  | Pop -> "pop"
  | Dup -> "dup"
  | Swap -> "swap"
  | Load i -> Printf.sprintf "load %d" i
  | Store i -> Printf.sprintf "store %d" i
  | Add -> "add"
  | Sub -> "sub"
  | Mul -> "mul"
  | Div -> "div"
  | Rem -> "rem"
  | Neg -> "neg"
  | Band -> "band"
  | Bor -> "bor"
  | Bxor -> "bxor"
  | Shl -> "shl"
  | Shr -> "shr"
  | Not -> "not"
  | Eq -> "eq"
  | Ne -> "ne"
  | Lt -> "lt"
  | Le -> "le"
  | Gt -> "gt"
  | Ge -> "ge"
  | Jmp a -> Printf.sprintf "jmp %d" a
  | Jz a -> Printf.sprintf "jz %d" a
  | Jnz a -> Printf.sprintf "jnz %d" a
  | Gaload s -> Printf.sprintf "gaload %d" s
  | Gastore s -> Printf.sprintf "gastore %d" s
  | Galen s -> Printf.sprintf "galen %d" s
  | Newarr -> "newarr"
  | Aload -> "aload"
  | Astore -> "astore"
  | Alen -> "alen"
  | Rand -> "rand"
  | Clock -> "clock"
  | Hashmix -> "hashmix"
  | Halt -> "halt"

let pp fmt op = Format.pp_print_string fmt (to_string op)

let stack_effect = function
  | Push _ -> (0, 1)
  | Pop -> (1, 0)
  | Dup -> (1, 2)
  | Swap -> (2, 2)
  | Load _ -> (0, 1)
  | Store _ -> (1, 0)
  | Add | Sub | Mul | Div | Rem | Band | Bor | Bxor | Shl | Shr -> (2, 1)
  | Neg | Not -> (1, 1)
  | Eq | Ne | Lt | Le | Gt | Ge -> (2, 1)
  | Jmp _ -> (0, 0)
  | Jz _ | Jnz _ -> (1, 0)
  | Gaload _ -> (1, 1)
  | Gastore _ -> (2, 0)
  | Galen _ -> (0, 1)
  | Newarr -> (1, 1)
  | Aload -> (2, 1)
  | Astore -> (3, 0)
  | Alen -> (1, 1)
  | Rand -> (1, 1)
  | Clock -> (0, 1)
  | Hashmix -> (2, 1)
  | Halt -> (0, 0)

let is_terminator = function Jmp _ | Halt -> true | _ -> false
let jump_target = function Jmp a | Jz a | Jnz a -> Some a | _ -> None
