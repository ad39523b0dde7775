module Enclave = Eden_enclave.Enclave
module Table = Eden_enclave.Table

type t = { mutable d_config : Enclave.snapshot; mutable d_generation : int }

let empty = { Enclave.sn_actions = []; sn_globals = []; sn_arrays = []; sn_rules = [ (0, []) ] }
let create () = { d_config = empty; d_generation = 0 }

let generation t = t.d_generation
let bump t = t.d_generation <- t.d_generation + 1
let snapshot t = t.d_config

let has (sn : Enclave.snapshot) name =
  List.exists (fun s -> String.equal s.Enclave.i_name name) sn.Enclave.sn_actions

let has_action t name = has t.d_config name

let binding per_action ~action name =
  Option.bind (List.assoc_opt action per_action) (List.assoc_opt name)

let global t ~action name = binding t.d_config.Enclave.sn_globals ~action name
let global_array t ~action name = binding t.d_config.Enclave.sn_arrays ~action name

(* [action]'s bindings with [name] bound to [v], kept sorted by name as
   in an enclave's snapshot. *)
let bind per_action action name v =
  let rec put = function
    | (n, _) :: rest when String.equal n name -> (name, v) :: rest
    | ((n, _) as b) :: rest when String.compare n name < 0 -> b :: put rest
    | bs -> (name, v) :: bs
  in
  List.map (fun (a, bs) -> if String.equal a action then (a, put bs) else (a, bs)) per_action

let rule_count (sn : Enclave.snapshot) =
  List.fold_left (fun n (_, rs) -> n + List.length rs) 0 sn.Enclave.sn_rules

(* Why an enclave holding [sn] would refuse [op], if it would: exactly
   what [Enclave.apply] refuses, install-time verification aside. *)
let refusal (sn : Enclave.snapshot) (op : Enclave.op) =
  let absent action =
    if has sn action then None
    else Some (Printf.sprintf "action %S is not in the desired state" action)
  in
  match op with
  | Install_action { i_name; _ } ->
    if not (has sn i_name) then None
    else Some (Printf.sprintf "action %S is already in the desired state" i_name)
  | Add_rule { table; action; _ } -> (
    match absent action with
    | Some _ as refused -> refused
    | None ->
      if List.mem_assoc table sn.sn_rules then None
      else Some (Printf.sprintf "table %d is not in the desired state" table))
  | Set_global { action; _ } | Set_global_array { action; _ } -> absent action
  | Remove_action _ | Add_table | Remove_rule _ | Commit_generation -> None

(* [op] applied to [sn], which does not refuse it: the new snapshot and
   the payload an enclave would ack. *)
let change (sn : Enclave.snapshot) (op : Enclave.op) =
  match op with
  | Install_action spec ->
    let name = spec.Enclave.i_name in
    ( {
        sn with
        sn_actions = sn.sn_actions @ [ spec ];
        sn_globals = sn.sn_globals @ [ (name, []) ];
        sn_arrays = sn.sn_arrays @ [ (name, []) ];
      },
      0L )
  | Remove_action name ->
    (* Dropping an action drops its rules and state too, and removing an
       absent one succeeds, as at the enclave. *)
    let other (r : Table.rule) = not (String.equal r.Table.action name) in
    let sn_rules = List.map (fun (id, rs) -> (id, List.filter other rs)) sn.sn_rules in
    ( {
        Enclave.sn_actions =
          List.filter (fun s -> not (String.equal s.Enclave.i_name name)) sn.sn_actions;
        sn_globals = List.remove_assoc name sn.sn_globals;
        sn_arrays = List.remove_assoc name sn.sn_arrays;
        sn_rules;
      },
      Int64.of_int (rule_count sn - rule_count { sn with sn_rules }) )
  | Add_table ->
    let id = List.length sn.sn_rules in
    ({ sn with sn_rules = sn.sn_rules @ [ (id, []) ] }, Int64.of_int id)
  | Add_rule { table; pattern; action } ->
    (* Ids count up across all tables, so id order is creation order. *)
    let next acc (r : Table.rule) = max acc (r.Table.rule_id + 1) in
    let rule_id =
      List.fold_left (fun acc (_, rs) -> List.fold_left next acc rs) 0 sn.sn_rules
    in
    let rule = { Table.rule_id; pattern; action } in
    let add (id, rs) = (id, if id = table then Table.insert_sorted rs rule else rs) in
    ({ sn with sn_rules = List.map add sn.sn_rules }, Int64.of_int rule_id)
  | Remove_rule { table; rule_id } ->
    let keep (id, rs) =
      (id, if id = table then List.filter (fun r -> r.Table.rule_id <> rule_id) rs else rs)
    in
    ({ sn with sn_rules = List.map keep sn.sn_rules }, 0L)
  | Set_global { action; name; value } ->
    ({ sn with sn_globals = bind sn.sn_globals action name value }, 0L)
  | Set_global_array { action; name; value } ->
    ({ sn with sn_arrays = bind sn.sn_arrays action name (Array.copy value) }, 0L)
  | Commit_generation -> (sn, 0L)

let check t op = match refusal t.d_config op with Some msg -> Error msg | None -> Ok ()

let apply t op =
  match refusal t.d_config op with
  | Some msg -> Error msg
  | None ->
    let sn, payload = change t.d_config op in
    t.d_config <- sn;
    Ok payload
