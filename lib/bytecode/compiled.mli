(** Install-time closure compilation of verified bytecode.

    A second execution engine alongside the interpreter ({!Interp.run}):
    [compile] translates a verifier-accepted program into threaded code
    — one OCaml closure chain per basic block, blocks linked by direct
    calls — paying the translation cost once at install so the
    per-packet path carries none of the interpreter's per-step overhead
    (opcode [match] dispatch, operand-stack depth checks,
    per-instruction step-limit checks).

    It is not a second machine: the closures run on an {!Interp.scratch}
    through the interpreter's own reset, publish, heap allocator and
    fault exception, and a block whose step budget runs out continues in
    {!Interp.resume} at that block's first instruction.  So the engine
    is observationally identical to {!Interp.run}: same published state,
    same faults at the same pc with the same partial effects, same
    [steps]/[max_stack]/[heap_cells] statistics.  [test/test_compiled.ml]
    checks this differentially on randomized programs under every step
    limit.

    A [t] owns its machine, so a given [t] must not be run concurrently
    from multiple domains; wrap it in the enclave's concurrency control
    as for interpreted actions. *)

type t

val compile : ?strict:bool -> Program.t -> (t, Verifier.error) result
(** Verify (via {!Verifier.analyse}) and translate. The closure code
    relies on the verifier's invariants — single consistent stack depth
    per pc, in-range locals and slots — hence compilation of an
    unverifiable program is refused rather than attempted. *)

val program : t -> Program.t

val machine : t -> Interp.scratch
(** The machine the compiled code runs on; after {!exec} it holds the
    run's statistics, as {!Interp.exec}'s machine does. *)

val invoke :
  t ->
  arrays:int64 array array ->
  now:Eden_base.Time.t ->
  rng:Eden_base.Rng.t ->
  Interp.fault option
(** The unboxed entry, as {!Interp.invoke}: scalars in and out through
    [(machine t).io], one array per [Program.array_slots] entry.
    Allocation-free on success ([None]); the returned fault (if any) is
    freshly allocated only on the fault path.
    @raise Invalid_argument on an array count mismatch. *)

val run :
  t ->
  env:Interp.env ->
  now:Eden_base.Time.t ->
  rng:Eden_base.Rng.t ->
  (Interp.stats, Interp.fault * Interp.stats) result
(** Drop-in for {!Interp.run} (same env mutation and publication
    contract). *)

val exec :
  t ->
  env:Interp.env ->
  now:Eden_base.Time.t ->
  rng:Eden_base.Rng.t ->
  Interp.fault option
(** {!invoke} wrapped as {!Interp.exec} wraps {!Interp.invoke}: the
    env's scalars are copied into the I/O slots first and, on success,
    the writable ones back (boxing each).  Read the statistics of the
    completed run from the accessors below. *)

val last_steps : t -> int
val last_max_stack : t -> int
val last_heap_cells : t -> int
(** Statistics of the most recent {!invoke}/{!run}/{!exec} on this [t]. *)

val stats : t -> Interp.stats
(** Allocates a fresh record from the three accessors above. *)
