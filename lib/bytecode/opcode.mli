(** The enclave's bytecode instruction set.

    A stack machine in the spirit of the JVM (paper §4.1): loads and
    stores, 64-bit integer arithmetic, branches and conditionals, plus a
    small set of intrinsic op-codes (random numbers, a high-frequency
    clock, hashing).  There are deliberately no call/return op-codes: the
    compiler inlines non-recursive calls and turns tail recursion into
    loops, which keeps interpreter frames — and hence the per-packet cycle
    budget — predictable.

    All values are [int64]; booleans are 0/1.  State shared with the
    enclave lives in statically numbered environment slots: scalars are
    pre-loaded into low-numbered locals, arrays are accessed through the
    [Ga*] op-codes, so read-only enforcement is a static (verifier) check
    rather than a run-time one. *)

type t =
  (* Stack *)
  | Push of int64
  | Pop
  | Dup
  | Swap
  (* Locals *)
  | Load of int  (** push local[i] *)
  | Store of int  (** pop into local[i] *)
  (* Arithmetic: pop b, pop a, push a OP b *)
  | Add
  | Sub
  | Mul
  | Div  (** faults on division by zero *)
  | Rem  (** faults on division by zero *)
  | Neg
  (* Bitwise *)
  | Band
  | Bor
  | Bxor
  | Shl
  | Shr  (** logical shift right *)
  (* Logic and comparisons (results are 0/1) *)
  | Not
  | Eq
  | Ne
  | Lt
  | Le
  | Gt
  | Ge
  (* Control flow: absolute instruction indices *)
  | Jmp of int
  | Jz of int  (** pop; jump when zero *)
  | Jnz of int  (** pop; jump when non-zero *)
  (* Environment arrays (static slot ids) *)
  | Gaload of int  (** pop index; push env_array[slot][index] *)
  | Gastore of int  (** pop value, pop index; env_array[slot][index] := value *)
  | Galen of int  (** push length of env_array[slot] *)
  (* Program-local heap arrays *)
  | Newarr  (** pop length; allocate zeroed array; push reference *)
  | Aload  (** pop index, pop ref; push element *)
  | Astore  (** pop value, pop index, pop ref *)
  | Alen  (** pop ref; push length *)
  (* Intrinsics *)
  | Rand  (** pop bound; push uniform in [0, bound); faults if bound <= 0 *)
  | Clock  (** push current time in nanoseconds *)
  | Hashmix  (** pop b, pop a; push a 64-bit mix of both *)
  | Halt

val to_string : t -> string
val pp : Format.formatter -> t -> unit

val stack_effect : t -> int * int
(** [(pops, pushes)] of an instruction, for static stack-depth analysis. *)

val is_terminator : t -> bool
(** [Halt] and unconditional [Jmp] end a basic block with no fall-through. *)

val jump_target : t -> int option
