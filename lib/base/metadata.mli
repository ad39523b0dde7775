(** Message metadata.

    Stages associate application messages with a set of classes plus
    free-form metadata fields (paper Table 2): a unique message identifier,
    message type, key/url being accessed, message size, tenant, …  The
    metadata travels with every packet of the message down the host stack
    and is the input to enclave classification and to action functions. *)

type value = Int of int64 | Str of string

val int : int -> value
val int64 : int64 -> value
val str : string -> value

val value_to_string : value -> string
val equal_value : value -> value -> bool
val pp_value : Format.formatter -> value -> unit

type t
(** An immutable field map plus class bindings. *)

val empty : t

val with_msg_id : int64 -> t -> t
val msg_id : t -> int64 option

val add : string -> value -> t -> t
(** [add field v t] binds [field]; replaces any previous binding. *)

val find : string -> t -> value option
val find_int : string -> t -> int64 option
val find_str : string -> t -> string option

val int_field : string -> default:int64 -> t -> int64
(** [find_int] without the option allocation, for per-packet paths.
    Returns [default] when the field is absent or not an integer.  An
    absent field costs a [Not_found] raise inside (~30 ns on OCaml 5.1,
    where a non-raising miss would cost ~5 ns), so callers that read the
    same metadata repeatedly should remember the result. *)

val str_field_is : string -> expected:string -> t -> bool
(** True when the (string) field is present and equals [expected];
    allocation-free, with the same raise on an absent field as
    {!int_field}. *)

val mem : string -> t -> bool
val fields : t -> (string * value) list
(** Bindings in field-name order. *)

val add_class : Class_name.t -> t -> t
val classes : t -> Class_name.t list
(** Oldest first. *)

val classes_rev : t -> Class_name.t list
(** Newest first: [List.rev (classes t)] without building it. *)

val has_class : Class_name.t -> t -> bool

val union : t -> t -> t
(** [union a b] merges classes and fields; on field conflict [b] wins. *)

val merge_order : Class_name.t list -> Class_name.t list
(** [merge_order cs] is [cs] (oldest first) newest first with each class
    once, at its oldest occurrence:
    [classes_rev (List.fold_left (fun m c -> add_class c m) empty cs)].
    It is the form {!merge_flow} takes a flow's classes in. *)

val merge_flow : flow_id:int -> Class_name.t list -> t -> t
(** [merge_flow ~flow_id (merge_order cs) md] equals
    [union (List.fold_left (fun m c -> add_class c m)
    (with_msg_id (Int64.of_int flow_id) empty) cs) md] without building
    the left operand: [md]'s message id wins, else [flow_id], boxed only
    then; [md]'s fields are kept as they are; [md]'s classes not already
    among the flow's are consed onto the given list, which is shared,
    not copied.  The enclave merges a flow's memoised flow-stage classes
    into stage metadata this way, with [merge_order] computed once per
    distinct flow-class list. *)

val classified :
  msg_id:int64 ->
  Class_name.t list ->
  string list list ->
  (string -> 'd -> value option) ->
  'd ->
  t
(** A stage's classification of one message, built as one record.
    [classes] holds the class of each matching rule and [names] the
    fields each of those rules attaches, both newest first (one entry
    per rule); [find f d] is field [f]'s value in descriptor [d].
    [classified ~msg_id classes names find d] equals
    {[
      List.fold_left2
        (fun md c fs ->
          List.fold_left
            (fun md f -> match find f d with Some v -> add f v md | None -> md)
            (add_class c md) fs)
        (with_msg_id msg_id empty) (List.rev classes) (List.rev names)
    ]}
    for a pure [find], without building the intermediate records: the
    message id is [msg_id], each class is kept once in that order, and
    each named field present in [d] is bound to its value. *)

val pp : Format.formatter -> t -> unit

(** Conventional field names used by the built-in stages. *)
module Field : sig
  val msg_type : string
  val key : string
  val url : string
  val msg_size : string
  val tenant : string
  val flow_size : string
  val operation : string
end
