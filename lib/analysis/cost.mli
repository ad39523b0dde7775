(** Static cost bounds and admission estimates.

    The worst-case step count comes from {!Eden_bytecode.Wcet}: the
    longest path through an acyclic control-flow graph, or the program's
    [step_limit] when it has loops (the interpreter enforces that limit,
    so it is always a sound bound).  The estimate is
    {!Eden_enclave.Cost.admission_ns} of {!Eden_enclave.Cost.admission_steps}
    at each placement's interpreter step cost, the formula
    [Enclave.install_action] applies to an interpreted action, so
    "REJECTED" here predicts an [Over_budget] install error. *)

type estimate = { placement : string; est_ns : float; budget_ns : float; fits : bool }

type t = {
  wcet_steps : int option;  (** [None]: the CFG has a cycle. *)
  admission_steps : int;  (** The step count admission control charges. *)
  step_limit : int;
  estimates : estimate list;
}

val of_program : Eden_bytecode.Program.t -> t
val pp : Format.formatter -> t -> unit
