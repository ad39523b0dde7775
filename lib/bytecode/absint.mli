(** Interval abstract interpretation over bytecode.

    Derives, from the code alone, which [Gaload]/[Gastore] indices are
    provably in bounds.  The result is a report: the interpreter and the
    compiled engine check every array access at run time whatever it
    says.  Two proof routes exist for an access to slot [s] with index
    operand [x]:

    - {b min-length}: [0 <= x] and [x < a_min_len s].  The runtime
      refuses to invoke the program with an array shorter than
      [a_min_len], so the access is in bounds for any conforming
      environment.
    - {b guard}: [0 <= x], [x] is the current value of local [i], and a
      dominating comparison established [local i < length(slot s)]
      (e.g. the loop guard [if i >= arr.Length then ... else body]).
      Environment arrays cannot be resized during a run, so the fact
      survives until local [i] is written. *)

val in_bounds : Program.t -> bool array
(** One entry per instruction: [true] iff it is a [Gaload]/[Gastore]
    whose index one of the routes proves in bounds.  Unreachable
    accesses, and every access of a program that breaks the stack
    discipline {!Verifier.analyse} enforces, are unproved. *)
