(** The combined result of the install-time analysis pipeline. *)

type t = {
  r_name : string;
  r_footprint : Effects.footprint;
  r_concurrency : Eden_bytecode.Program.concurrency;
      (** From the compiled program's declared slot accesses: the class
          the enclave will run it under. *)
  r_diagnostics : string list;  (** Empty unless the action is rejectable. *)
  r_nodes_before : int;
  r_nodes_after : int;
  r_code_len : int;
  r_max_stack : int;
  r_bounds : Bounds.t;
  r_cost : Cost.t;
}

val pp : Format.formatter -> t -> unit
val to_string : t -> string
