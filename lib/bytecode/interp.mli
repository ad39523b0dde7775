(** The enclave's bytecode machine and its interpreter.

    Executes a program against the scalar and array state the enclave
    copied in for it (copy-in / copy-out is the enclave's job).  The
    boundary is unboxed: the caller writes each scalar input into the
    machine's I/O slots ({!scratch}[.io], one 8-byte slot per
    [Program.scalar_slots] entry), {!invoke} runs the program, and on
    successful completion only the writable scalars are published back
    into those slots, so a faulting program never publishes partial
    scalar updates and a warm invocation boxes no [int64].  {!exec} and
    {!run} keep the boxed [env] interface as thin wrappers over the same
    entry: they copy [env.scalars] into the I/O slots and, on success,
    the writable slots back.

    One machine ({!scratch}) serves both engines: the interpreter here
    and {!Compiled}, which runs closure code over the same machine state
    and, when a block's step budget runs out, continues in {!resume} at
    the block's first instruction.  The interpreter is the reference
    semantics and checks everything an unverified program controls.

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
          environment broke the [a_min_len] input contract, so the
          invocation is refused (fail-open).  Every access is still
          checked at run time; the contract is what the analysis
          report's min-length proofs assume. *)

val fault_to_string : fault -> string
val pp_fault : Format.formatter -> fault -> unit

type stats = {
  steps : int;  (** Instructions retired. *)
  max_stack : int;  (** Peak operand-stack depth (values). *)
  heap_cells : int;  (** Heap cells allocated by the run. *)
}

type scratch = {
  stack : Bytes.t;  (** Operand stack: unboxed 8-byte slots. *)
  locals : Bytes.t;  (** Locals: unboxed 8-byte slots. *)
  io : Bytes.t;
      (** Scalar I/O: slot [i] (bytes [8i .. 8i+7], native-endian
          [int64]) holds [Program.scalar_slots.(i)]'s value.  Read at
          entry; its writable slots are overwritten on success. *)
  mutable env_arrays : int64 array array;  (** The running invocation's arrays. *)
  mutable heap : int64 array array;  (** Program-local arrays, [n_heap] live. *)
  mutable n_heap : int;
  mutable heap_cells : int;
  mutable steps : int;
  mutable max_sp : int;
  mutable now_ns : int64;  (** What [Clock] pushes. *)
  mutable rng : Eden_base.Rng.t;  (** What [Rand] draws from. *)
}
(** The machine: made once per program and reset by every run, so the
    data path allocates nothing per invocation.  Its fields are exposed
    for {!Compiled} and for callers that marshal into [io]; other callers
    only make and pass it. *)

val make_scratch : Program.t -> scratch

val invoke :
  scratch:scratch ->
  Program.t ->
  arrays:int64 array array ->
  now:Eden_base.Time.t ->
  rng:Eden_base.Rng.t ->
  fault option
(** The unboxed entry: run the program on the scalars in [scratch.io]
    and the given arrays (one per [Program.array_slots] entry).  On
    success ([None]) the writable scalars are in [scratch.io]; on a fault
    [io] is as the caller left it.  Allocation-free on success; read the
    statistics off the machine.  Checked as {!run} is. *)

val run :
  ?scratch:scratch ->
  Program.t -> env:env -> now:Eden_base.Time.t -> rng:Eden_base.Rng.t ->
  (stats, fault * stats) result
(** Checked on any program, every array access included: an unverified
    one faults (operand-stack overflow or underflow, array bounds, ...)
    or raises [Invalid_argument] (a local, env slot or jump target out of
    range), though its faults may differ from what the verifier would
    have reported.  A [scratch] made for this program (or one with at
    least as many operand, local and scalar slots) removes the per-run
    allocations; locals are zeroed between runs so no
    state leaks across invocations.  On success the env's writable
    scalars hold the published values. *)

val exec :
  scratch:scratch ->
  Program.t -> env:env -> now:Eden_base.Time.t -> rng:Eden_base.Rng.t ->
  fault option
(** [run] without the result: {!invoke} between copying [env.scalars]
    into the I/O slots and, on success ([None]), the writable slots back
    (which boxes them); read the statistics off the machine. *)

val stats : scratch -> stats
(** The statistics of the machine's last run. *)

(** {2 The machine's parts, shared with {!Compiled}}

    [reset] and [publish] are unchecked: they trust that the machine was
    made for the program.  {!invoke} checks that first. *)

exception Fault of fault

val reset :
  Program.t ->
  scratch ->
  arrays:int64 array array ->
  now:Eden_base.Time.t ->
  rng:Eden_base.Rng.t ->
  unit
(** Start a run: bind the arrays, the clock and the rng, empty the heap,
    zero the counters and locals, copy the I/O slots into their locals. *)

val publish : Program.t -> scratch -> unit
(** Finish a successful run: copy the writable scalar locals to their
    I/O slots. *)

val scalars_in : Program.t -> scratch -> env -> unit
(** Copy [env.scalars] into the I/O slots (the boxed edge of {!exec}).
    Unchecked: the env holds at least one scalar per slot. *)

val scalars_out : Program.t -> scratch -> env -> unit
(** Copy the writable I/O slots into [env.scalars], boxing each. *)

val alloc : scratch -> heap_limit:int -> pc:int -> int -> int
(** [alloc m ~heap_limit ~pc n] allocates a zeroed [n]-cell heap array
    and returns its reference.
    @raise Fault on a negative length or past [heap_limit] cells. *)

val resume : Program.t -> scratch -> pc:int -> sp:int -> unit
(** Interpret from [pc] with [sp] values on the operand stack until
    control leaves the code, charging steps and stack peaks to the
    machine.  The machine must hold [stack_limit] operand slots, as
    {!invoke} checks.  [invoke] starts it at 0 and 0; {!Compiled} enters it
    at a block leader and that block's entry depth.
    @raise Fault on a fault. *)
