(** Type checking for action functions.

    The language has three value types — integers, booleans, unit — and no
    implicit conversions.  Entity fields and array elements are integers.
    The checker also enforces the annotation discipline of §3.4.4: writes
    only to [Read_write] fields and arrays, assignments only to
    [let mutable] locals, and an overall [unit] body (an action's effects
    are its writes, not a return value). *)

type ty = T_int | T_bool | T_unit

val ty_to_string : ty -> string

type error = { message : string }

val pp_error : Format.formatter -> error -> unit

val check : Schema.t -> Ast.t -> (unit, error) result

