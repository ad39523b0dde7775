module Packet = Eden_base.Packet
module Metadata = Eden_base.Metadata
module Class_name = Eden_base.Class_name
module Time = Eden_base.Time
module Rng = Eden_base.Rng
module P = Eden_bytecode.Program

(* Mutable per-invocation outputs; applied to the packet after a
   successful run (and only then). *)
type outputs = {
  mutable o_priority : int;
  mutable o_path : int;
  mutable o_drop : bool;
  mutable o_queue : int;
  mutable o_charge : int;
  mutable o_goto : int;
}

module Native_ctx = struct
  type t = {
    nc_packet : Packet.t;
    nc_metadata : Metadata.t;
    nc_msg_id : int64;
    nc_now : Time.t;
    nc_rng : Rng.t;
    nc_state : State.t;
    nc_out : outputs;
  }
end

(* The action and configuration types [Enclave] re-exports. *)
module Types = struct
  type impl =
    | Interpreted of P.t
    | Compiled of P.t
    | Native of (Native_ctx.t -> unit)

  type msg_field_source =
    | Stateful of int64
    | Metadata_int of string
    | Metadata_flag of string * string

  type install_spec = {
    i_name : string;
    i_impl : impl;
    i_msg_sources : (string * msg_field_source) list;
  }

  type snapshot = {
    sn_actions : install_spec list;  (* install order *)
    sn_globals : (string * (string * int64) list) list;
    sn_arrays : (string * (string * int64 array) list) list;
    sn_rules : (int * Table.rule list) list;  (* per table, match order *)
  }
end

include Types

type op =
  | Install_action of install_spec
  | Remove_action of string
  | Add_table
  | Add_rule of { table : int; pattern : Class_name.Pattern.t; action : string }
  | Remove_rule of { table : int; rule_id : int }
  | Set_global of { action : string; name : string; value : int64 }
  | Set_global_array of { action : string; name : string; value : int64 array }
  | Commit_generation

let op_to_string = function
  | Install_action s -> "install_action " ^ s.i_name
  | Remove_action n -> "remove_action " ^ n
  | Add_table -> "add_table"
  | Add_rule r ->
    let pattern = Class_name.Pattern.to_string r.pattern in
    Printf.sprintf "add_rule %s -> %s @%d" pattern r.action r.table
  | Remove_rule r -> Printf.sprintf "remove_rule #%d @%d" r.rule_id r.table
  | Set_global g -> Printf.sprintf "set_global %s.%s" g.action g.name
  | Set_global_array g -> Printf.sprintf "set_global_array %s.%s" g.action g.name
  | Commit_generation -> "commit_generation"

let empty = { sn_actions = []; sn_globals = []; sn_arrays = []; sn_rules = [ (0, []) ] }

let has_action (sn : snapshot) name =
  List.exists (fun s -> String.equal s.i_name name) sn.sn_actions

(* [action]'s bindings with [name] bound to [v], kept sorted by name as
   in [snapshot]. *)
let bind per_action action name v =
  let rec put = function
    | (n, _) :: rest when String.equal n name -> (name, v) :: rest
    | ((n, _) as b) :: rest when String.compare n name < 0 -> b :: put rest
    | bs -> (name, v) :: bs
  in
  List.map (fun (a, bs) -> if String.equal a action then (a, put bs) else (a, bs)) per_action

let rule_count rules = List.fold_left (fun n (_, rs) -> n + List.length rs) 0 rules

(* [sn] without the rules [drop] picks, and how many it picked. *)
let drop_rules (sn : snapshot) drop =
  let keep id (r : Table.rule) = not (drop id r) in
  let sn_rules = List.map (fun (id, rs) -> (id, List.filter (keep id) rs)) sn.sn_rules in
  ({ sn with sn_rules }, Int64.of_int (rule_count sn.sn_rules - rule_count sn_rules))

let refusal (sn : snapshot) (op : op) =
  let absent action =
    if has_action sn action then None
    else Some (Printf.sprintf "action %S is not installed" action)
  in
  match op with
  | Install_action { i_name; _ } ->
    if not (has_action sn i_name) then None
    else Some (Printf.sprintf "action %S is already installed" i_name)
  | Add_rule { table; action; _ } -> (
    match absent action with
    | Some _ as refused -> refused
    | None ->
      if List.mem_assoc table sn.sn_rules then None
      else Some (Printf.sprintf "no table %d" table))
  | Set_global { action; _ } | Set_global_array { action; _ } -> absent action
  | Remove_action _ | Add_table | Remove_rule _ | Commit_generation -> None

(* [op] applied to [sn], which does not refuse it. *)
let change (sn : snapshot) (op : op) =
  match op with
  | Install_action spec ->
    let name = spec.i_name in
    ( {
        sn with
        sn_actions = sn.sn_actions @ [ spec ];
        sn_globals = sn.sn_globals @ [ (name, []) ];
        sn_arrays = sn.sn_arrays @ [ (name, []) ];
      },
      0L )
  | Remove_action name ->
    (* Dropping an action drops its rules and state too.  Removing an
       absent one succeeds: removes stay idempotent, so rollback and
       reconciliation can repeat them safely. *)
    let sn, dropped = drop_rules sn (fun _ r -> String.equal r.Table.action name) in
    ( {
        sn with
        sn_actions = List.filter (fun s -> not (String.equal s.i_name name)) sn.sn_actions;
        sn_globals = List.remove_assoc name sn.sn_globals;
        sn_arrays = List.remove_assoc name sn.sn_arrays;
      },
      dropped )
  | Add_table ->
    let id = List.length sn.sn_rules in
    ({ sn with sn_rules = sn.sn_rules @ [ (id, []) ] }, Int64.of_int id)
  | Add_rule { table; pattern; action } ->
    (* Ids count up across all tables, so id order is creation order. *)
    let above acc (r : Table.rule) = max acc (r.Table.rule_id + 1) in
    let rule_id =
      List.fold_left (fun acc (_, rs) -> List.fold_left above acc rs) 0 sn.sn_rules
    in
    let rule = { Table.rule_id; pattern; action } in
    let add (id, rs) = (id, if id = table then Table.insert_sorted rs rule else rs) in
    ({ sn with sn_rules = List.map add sn.sn_rules }, Int64.of_int rule_id)
  | Remove_rule { table; rule_id } ->
    drop_rules sn (fun id r -> id = table && r.Table.rule_id = rule_id)
  | Set_global { action; name; value } ->
    ({ sn with sn_globals = bind sn.sn_globals action name value }, 0L)
  | Set_global_array { action; name; value } ->
    ({ sn with sn_arrays = bind sn.sn_arrays action name (Array.copy value) }, 0L)
  | Commit_generation -> (sn, 0L)

let next sn op = match refusal sn op with Some msg -> Error msg | None -> Ok (change sn op)

(* ------------------------------------------------------------------ *)
(* Diff: the controller's reconciliation repair and an enclave's
   [restore] replay. *)

(* What identifies an action: native closures cannot be compared, so an
   action is its name, engine kind and program name, and message
   sources. *)
let action_key s =
  let impl =
    match s.i_impl with
    | Interpreted p -> "interpreted:" ^ p.P.name
    | Compiled p -> "compiled:" ^ p.P.name
    | Native _ -> "native"
  in
  (s.i_name, impl, List.sort compare s.i_msg_sources)

(* What identifies a rule: its pattern and action.  Rule ids are
   allocation artifacts, not configuration. *)
let same_rule (a : Table.rule) (b : Table.rule) =
  String.equal a.Table.action b.Table.action
  && String.equal
       (Class_name.Pattern.to_string a.Table.pattern)
       (Class_name.Pattern.to_string b.Table.pattern)

(* The two rule lists past their longest common prefix. *)
let rec past_common_prefix xs ys =
  match (xs, ys) with
  | x :: xs', y :: ys' when same_rule x y -> past_common_prefix xs' ys'
  | _ -> (xs, ys)

(* The repair order matters: extra rules go before extra actions
   (removing an action drops its rules), tables and missing actions
   before their state and rules (the enclave refuses rules and state for
   unknown actions, so a rule can never route to a half-installed
   action).  Missing rules go table by table, each in match order. *)
let diff ~desired ~actual =
  let keys sn = List.map action_key sn.sn_actions in
  let desired_keys = keys desired and actual_keys = keys actual in
  let missing_actions =
    List.filter (fun s -> not (List.mem (action_key s) actual_keys)) desired.sn_actions
  in
  let extra_actions =
    List.filter (fun s -> not (List.mem (action_key s) desired_keys)) actual.sn_actions
  in
  (* A same-named action held under another key is replaced: removing it
     drops its rules and state, so those do not count as present. *)
  let kept name = not (List.exists (fun s -> String.equal s.i_name name) extra_actions) in
  (* A table's rules are compared as a sequence in match order:
     equal-specificity rules match in insertion order, so the same rules
     in another order route packets differently.  From the first
     position where the sequences differ, the actual rules are removed
     and the desired ones re-added in order, which [Table.insert_sorted]
     puts back in exactly that order. *)
  let table_rules sn table = Option.value ~default:[] (List.assoc_opt table sn.sn_rules) in
  let tables = List.sort_uniq Int.compare (List.map fst (actual.sn_rules @ desired.sn_rules)) in
  let extra_rules, missing_rules =
    List.split
      (List.map
         (fun table ->
           let extra, missing =
             past_common_prefix
               (List.filter (fun r -> kept r.Table.action) (table_rules actual table))
               (table_rules desired table)
           in
           (List.map (fun r -> (table, r)) extra, List.map (fun r -> (table, r)) missing))
         tables)
  in
  let extra_rules = List.concat extra_rules and missing_rules = List.concat missing_rules in
  (* Only the bindings [desired] holds are compared: state an action
     writes at run time is not configuration. *)
  let stale bindings =
    List.concat_map
      (fun (action, bs) ->
        let have =
          if kept action then Option.value ~default:[] (List.assoc_opt action (bindings actual))
          else []
        in
        List.filter_map
          (fun (name, v) ->
            if List.assoc_opt name have = Some v then None else Some (action, name, v))
          bs)
      (bindings desired)
  in
  List.concat
    [
      List.map (fun (table, r) -> Remove_rule { table; rule_id = r.Table.rule_id }) extra_rules;
      List.map (fun s -> Remove_action s.i_name) extra_actions;
      List.init (max 0 (List.length desired.sn_rules - List.length actual.sn_rules)) (fun _ ->
          Add_table);
      List.map (fun s -> Install_action s) missing_actions;
      List.map
        (fun (action, name, value) -> Set_global { action; name; value })
        (stale (fun sn -> sn.sn_globals));
      List.map
        (fun (action, name, value) -> Set_global_array { action; name; value })
        (stale (fun sn -> sn.sn_arrays));
      List.map
        (fun (table, (r : Table.rule)) ->
          Add_rule { table; pattern = r.Table.pattern; action = r.Table.action })
        missing_rules;
    ]

let config_equal a b = diff ~desired:a ~actual:b = [] && diff ~desired:b ~actual:a = []
