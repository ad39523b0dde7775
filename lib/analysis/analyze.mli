(** The install-time analysis pipeline (effects → optimize → compile →
    strict verify → bounds → cost).

    [run schema action] returns the full {!Report.t} for the optimized
    program, which has survived a strict verifier pass. *)

type error =
  | Rejected of string list
      (** Writes to read-only state or undeclared state, by name. *)
  | Type_error of Eden_lang.Typecheck.error
  | Compile_error of Eden_lang.Compile.error
  | Verifier_error of Eden_bytecode.Verifier.error

val error_to_string : error -> string
val pp_error : Format.formatter -> error -> unit

val run :
  Eden_lang.Schema.t ->
  Eden_lang.Ast.t ->
  (Report.t, error) result
