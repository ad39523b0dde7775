(** The CPU cost model (paper §5.4, Fig. 12).

    The paper breaks Eden's overhead over a vanilla stack into three
    parts: the API (passing metadata into the enclave), the enclave
    itself (classification, table lookup, state marshalling), and the
    interpreter.  Each part is a count ({!counts}) times a constant of a
    {!model}, computed when read.  The bench harness also measures the
    real interpreter's wall-clock cost on this machine to calibrate
    [per_step_ns]. *)

type model = {
  vanilla_ns : float;  (** Base per-packet cost of the plain stack. *)
  api_ns : float;  (** Metadata handoff (only charged when metadata is present). *)
  classify_ns : float;  (** Enclave classification + table lookup. *)
  marshal_ns : float;  (** Environment copy-in / copy-out, per invocation. *)
  per_step_ns : float;  (** Interpreter cost per bytecode step. *)
  compiled_step_ns : float;
      (** Cost per retired step under the closure-compiled engine —
          dispatch is gone, so only the operation itself remains. *)
  native_ns : float;  (** Hard-coded (native) action function, per invocation. *)
  budget_ns : float;
      (** Admission-control ceiling: worst-case Eden-added nanoseconds a
          single invocation may cost on this enclave.  Sized so a program
          running to the default [step_limit] still fits; tighter budgets
          come from {!Enclave.set_budget_ns}. *)
}

val os_model : model
(** Calibrated for the software (OS driver) enclave. *)

val nic_model : model
(** The programmable-NIC enclave: slower single-thread cores, but the
    model only matters relatively. *)

val admission_steps : Eden_bytecode.Program.t -> int
(** The steps admission control charges: the static worst case
    ({!Eden_bytecode.Wcet}) capped by [step_limit], or [step_limit]
    when the control-flow graph has a cycle. *)

val admission_ns : model -> per_step_ns:float -> steps:int -> float
(** Worst-case Eden-added cost of one invocation of [steps] steps at
    [per_step_ns] (the engine's step cost): classification + marshalling
    + execution.  Both install-time admission and the static analyzer
    use it. *)

(** What the model charges for, counted.  The enclave keeps these in
    integer registry cells; every figure below is computed from them. *)
type counts = {
  packets : int;
  api_handoffs : int;  (** Stage metadata handoffs (one per batch run). *)
  classifications : int;  (** One per packet, or per batch run. *)
  marshals : int;  (** Environment copy-ins, one per bytecode invocation run. *)
  interp_steps : int;  (** Retired by the interpreter. *)
  compiled_steps : int;  (** Retired by the closure-compiled engine. *)
  native_calls : int;
}

val sub : counts -> counts -> counts
(** Field-wise difference: [sub later earlier] counts one window. *)

val vanilla_ns : model -> counts -> float
val api_ns : model -> counts -> float

val enclave_ns : model -> counts -> float
(** Classification + marshalling. *)

val interp_ns : model -> counts -> float
(** Both engines, each at its own step cost. *)

val overhead_ns : model -> counts -> float
(** Eden-added busy time: API + enclave + engines + native calls.  Exact
    for the built-in models: their constants are multiples of 0.5, so
    every product and partial sum below 2{^52} ns is exactly
    representable, in any order of addition. *)

val overhead_pct : model -> counts -> float
(** API + enclave + interpreter as a percentage of the vanilla base
    (Fig. 12's total); 0 before any packet. *)
