(** The enclave interpreter.

    Executes a verified program against an environment snapshot.  The
    environment is whatever copy of packet / message / global state the
    enclave state store prepared (copy-in / copy-out is the store's job;
    the interpreter mutates the [env] it is handed and writes scalar
    locals back on successful completion only, so a faulting program
    never publishes partial scalar updates).

    Faults terminate the offending invocation without affecting the rest
    of the system (paper §3.4.3); the caller receives the fault and the
    execution statistics accumulated so far. *)

type env = {
  scalars : int64 array;  (** One per [Program.scalar_slots] entry. *)
  arrays : int64 array array;  (** One per [Program.array_slots] entry. *)
}

val make_env : Program.t -> scalars:int64 array -> arrays:int64 array array -> env
(** Validates counts against the program's slot tables and each array's
    length against its slot's [a_min_len].
    @raise Invalid_argument on a mismatch. *)

type fault =
  | Division_by_zero of { pc : int }
  | Array_bounds of { pc : int; index : int; length : int }
  | Invalid_reference of { pc : int }
  | Negative_array_length of { pc : int; length : int }
  | Heap_exhausted of { pc : int; requested : int; limit : int }
  | Step_limit_exceeded of { limit : int }
  | Operand_stack_overflow of { pc : int }
  | Operand_stack_underflow of { pc : int }
  | Bad_random_bound of { pc : int; bound : int64 }
  | Undersized_env_array of { slot : int; length : int; min_len : int }
      (** Raised by the enclave before a run, not by the interpreter: the
          environment broke an [a_min_len] promise a bounds proof relies
          on, so the invocation is refused (fail-open). *)

val fault_to_string : fault -> string
val pp_fault : Format.formatter -> fault -> unit

type stats = {
  steps : int;  (** Instructions retired. *)
  max_stack : int;  (** Peak operand-stack depth (values). *)
  heap_cells : int;  (** Heap cells allocated by the run. *)
}

type scratch
(** Reusable operand-stack and locals buffers for one program, avoiding
    per-invocation allocation on the data path. *)

val make_scratch : Program.t -> scratch

val run :
  ?scratch:scratch ->
  Program.t -> env:env -> now:Eden_base.Time.t -> rng:Eden_base.Rng.t ->
  (stats, fault * stats) result
(** Assumes the program passed {!Verifier.verify}; behaviour on unverified
    programs is safe (all accesses are still bounds-checked) but faults may
    differ from what the verifier would have reported.  A [scratch] made
    for this program (or a larger one) removes the per-run allocations;
    locals are zeroed between runs so no state leaks across invocations. *)
