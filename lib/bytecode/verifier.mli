(** Static bytecode verification.

    Run by the enclave before installing a program (the controller may push
    programs at run time, so installation is the trust boundary).  The
    verifier guarantees that a verified program cannot: jump outside the
    code, underflow or overflow the operand stack, touch locals outside its
    frame, address a non-existent environment array slot, or write to a
    read-only slot.  Dynamic properties (division by zero, heap and step
    budgets, array indices) remain interpreter checks. *)

type error =
  | Bad_jump of { pc : int; target : int }
  | Stack_underflow of { pc : int; depth : int }
  | Stack_overflow of { pc : int; depth : int; limit : int }
  | Inconsistent_stack of { pc : int; expected : int; found : int }
      (** Two control-flow paths reach [pc] with different stack depths. *)
  | Bad_local of { pc : int; index : int; n_locals : int }
  | Bad_array_slot of { pc : int; slot : int }
  | Readonly_write of { pc : int; slot : int; name : string }
  | Unreachable_code of { pc : int }
      (** Strict mode only: no control-flow path reaches [pc]. *)
  | Bad_limits of string
  | Empty_code

val error_to_string : error -> string
val pp_error : Format.formatter -> error -> unit

type analysis = {
  an_max_stack : int;  (** Statically computed peak operand-stack depth. *)
  an_unreachable : int list;
      (** Instructions no control-flow path reaches, ascending.  Empty in
          strict mode (their presence is an error there). *)
}

val analyse : ?strict:bool -> Program.t -> (analysis, error) result
(** One dataflow pass computing everything the verifier knows; [verify]
    and [max_stack_depth] are thin projections of it, so call [analyse]
    directly when more than one result is needed.  [strict] (default
    false) additionally rejects unreachable instructions — compiler
    output is expected to be fully live ({!Program.strip_unreachable}). *)

val verify : ?strict:bool -> Program.t -> (unit, error) result
val max_stack_depth : Program.t -> (int, error) result
