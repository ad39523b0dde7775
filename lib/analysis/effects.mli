(** Effect analysis: the state footprint of an action function, by name.

    Computed from the AST before compilation, the footprint serves the
    human-facing half of the paper's type annotations (§3.4.4): writes
    to state the schema declares [Read_only], or touches on undeclared
    state, are reported by name as install-time errors rather than
    runtime faults, and [eden analyze] prints the footprint.

    It decides nothing about execution.  The concurrency class (which
    also sets the sharded front-end's replica count) and the marshal
    plan come from one pass over the compiled program, {!Eden_bytecode.Program.footprint}, which sees the code the
    enclave will actually run. *)

type access = [ `Read | `Write ]

type footprint = {
  fields : (Eden_lang.Ast.entity * string * access) list;
  arrays : (Eden_lang.Ast.entity * string * access) list;
  uses_rand : bool;
  uses_clock : bool;
  uses_hash : bool;
}

val of_action : Eden_lang.Ast.t -> footprint

val diagnostics : Eden_lang.Schema.t -> Eden_lang.Ast.t -> string list
(** Human-readable install blockers: writes to read-only state and uses
    of undeclared state.  Empty for a well-typed action (the type checker
    enforces the same rules); non-empty output pinpoints the offending
    state by name for controller diagnostics. *)

val pp_footprint : Format.formatter -> footprint -> unit
