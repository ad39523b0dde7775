(** Bounds analysis: which array accesses are provably in bounds.

    A thin reporting layer over {!Eden_bytecode.Absint.in_bounds}: the
    interval abstract interpreter proves [Gaload]/[Gastore] indices in
    bounds (from schema [min_length] contracts and dominating length
    guards); this module records the per-access outcome for the analysis
    report.  The report changes nothing at run time: both engines check
    every access. *)

type access = {
  b_pc : int;
  b_slot : int;
  b_array : string;
  b_store : bool;
  b_proved : bool;
}

type t = { accesses : access list; proved : int; total : int }

val of_program : Eden_bytecode.Program.t -> t
val pp : Format.formatter -> t -> unit
