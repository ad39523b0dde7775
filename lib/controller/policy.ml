module Stage = Eden_stage.Stage
module Classifier = Eden_stage.Classifier
open Eden_functions

type engine = Interpreted | Compiled | Native

let variant = function
  | Interpreted -> `Interpreted
  | Compiled -> `Compiled
  | Native -> `Native

let ( let* ) = Result.bind

(* Deploy one function through the controller's desired-state broadcasts
   (install, bind state, add the matching rule).  If a later step fails
   the action is withdrawn from the desired state so a failed deployment
   does not leave a half-policy behind; enclaves the withdrawal could not
   reach are converged by reconciliation. *)
let deploy ctl ~spec ~pattern ~arrays =
  let name = spec.Eden_enclave.Config.i_name in
  let* () = Controller.install_action_everywhere ctl spec in
  let cleanup_on e =
    match e with
    | Ok _ as ok -> ok
    | Error _ as err ->
      ignore (Controller.remove_action_everywhere ctl name);
      err
  in
  let* () =
    cleanup_on
      (List.fold_left
         (fun acc (key, value) ->
           let* () = acc in
           Controller.set_global_array_everywhere ctl ~action:name key value)
         (Ok ()) arrays)
  in
  cleanup_on (Controller.add_rule_everywhere ctl ~pattern ~action:name ())

let flow_scheduling ctl ~scheme ?(engine = Interpreted) ?(levels = 3) ~cdf () =
  let thresholds = Controller.pias_thresholds ~cdf ~levels in
  if Array.length thresholds > 7 then Error "flow_scheduling: at most 7 thresholds"
  else
    match scheme with
    | `Pias ->
      deploy ctl
        ~spec:(Pias.spec ~variant:(variant engine) ())
        ~pattern:Pias.rule_pattern
        ~arrays:[ ("Thresholds", thresholds) ]
    | `Sff ->
      deploy ctl
        ~spec:(Sff.spec ~variant:(variant engine) ())
        ~pattern:Sff.rule_pattern
        ~arrays:[ ("Thresholds", thresholds) ]

let update_flow_scheduling_thresholds ctl ~scheme ?(levels = 3) ~cdf () =
  let thresholds = Controller.pias_thresholds ~cdf ~levels in
  let action = match scheme with `Pias -> "pias" | `Sff -> "sff" in
  Controller.set_global_array_everywhere ctl ~action "Thresholds" thresholds

let weighted_load_balancing ctl ?(engine = Interpreted) ?(message_level = false) ~src ~dst
    ~labels () =
  let matrix = Controller.wcmp_path_matrix ctl ~src ~dst ~labels in
  if Array.length matrix < 2 then
    Error "weighted_load_balancing: no labelled paths between src and dst"
  else begin
    let v =
      match (engine, message_level) with
      | Native, _ -> `Native
      | Interpreted, false -> `Packet
      | Interpreted, true -> `Message
      | Compiled, false -> `Compiled
      | Compiled, true -> `Compiled_message
    in
    deploy ctl ~spec:(Wcmp.spec ~variant:v ()) ~pattern:Wcmp.rule_pattern
      ~arrays:[ ("Paths", matrix) ]
  end

let tenant_qos ctl ?(engine = Interpreted) ~queue_map () =
  let rec program_storage_stages = function
    | [] -> Ok ()
    | stage :: rest ->
      if String.equal (Stage.name stage) "storage" then begin
        let metadata_fields = [ "operation"; "msg_size"; "tenant" ] in
        let add op =
          Stage.Api.create_stage_rule stage ~ruleset:"ops"
            ~classifier:[ ("operation", Classifier.eq_str op) ]
            ~class_name:op ~metadata_fields
        in
        match (add "READ", add "WRITE") with
        | Ok _, Ok _ -> program_storage_stages rest
        | Error msg, _ | _, Error msg -> Error msg
      end
      else program_storage_stages rest
  in
  let* () =
    deploy ctl
      ~spec:(Pulsar.spec ~variant:(variant engine) ())
      ~pattern:Pulsar.rule_pattern
      ~arrays:[ ("QueueMap", Array.map Int64.of_int queue_map) ]
  in
  program_storage_stages (Controller.stages ctl)
