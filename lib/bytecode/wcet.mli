(** Static worst-case execution cost of a program, in interpreter steps.

    Every retired instruction costs one step (matching
    {!Interp.stats.steps}), so on an acyclic control-flow graph the
    worst case is the longest instruction path from entry to exit.
    Programs with reachable cycles have no static bound here — the
    interpreter's [step_limit] is then the only bound, and admission
    control falls back to it. *)

val worst_case_steps : Program.t -> int option
(** [Some n]: no execution of the program retires more than [n]
    instructions.  [None]: the reachable control-flow graph has a cycle.
    Unreachable code never contributes. *)
