module Metadata = Eden_base.Metadata
module Class_name = Eden_base.Class_name

type info = {
  stage_name : string;
  classifier_fields : string list;
  metadata_fields : string list;
}

type t = {
  name : string;
  classifier_fields : string list;
  fields : string array;  (* [classifier_fields]: the order of a {!Classifier.row} *)
  row : Classifier.row;  (* scratch, refilled by every [classify] and [classes] *)
  metadata_fields : string list;
  mutable rulesets : Ruleset.t list;  (* in creation order *)
  mutable next_msg_id : int64;
  generation : int ref;  (* shared with every rule-set; bumped on each rule change *)
}

let create ~name ~classifier_fields ~metadata_fields =
  {
    name;
    classifier_fields;
    fields = Array.of_list classifier_fields;
    row = Classifier.make_row (List.length classifier_fields);
    metadata_fields;
    rulesets = [];
    next_msg_id = 0L;
    generation = ref 0;
  }

let name t = t.name

let info t =
  {
    stage_name = t.name;
    classifier_fields = t.classifier_fields;
    metadata_fields = t.metadata_fields;
  }

let rulesets t = t.rulesets
let generation t = !(t.generation)
let find_ruleset t id = List.find_opt (fun rs -> String.equal (Ruleset.id rs) id) t.rulesets

let new_msg_id t =
  let id = t.next_msg_id in
  t.next_msg_id <- Int64.add id 1L;
  id

let qualified_class t ~ruleset cls = Class_name.v ~stage:t.name ~ruleset ~name:cls

(* Both entry points look each classifier field up once, into the
   stage's scratch row, then run every rule-set's compiled tests over
   it.  [classify] collects the
   matching rules' classes and field names and builds the metadata once
   ({!Metadata.classified}), rather than one record per class and per
   field. *)
let rec classify_in ~msg_id descriptor row classes names = function
  | [] -> Metadata.classified ~msg_id classes names Classifier.Descriptor.find descriptor
  | rs :: rest -> (
    match Ruleset.classify_row rs row with
    | None -> classify_in ~msg_id descriptor row classes names rest
    | Some r ->
      classify_in ~msg_id descriptor row (r.Ruleset.qualified :: classes)
        (r.Ruleset.metadata_fields :: names) rest)

let classify ?msg_id t descriptor =
  let msg_id = match msg_id with Some id -> id | None -> new_msg_id t in
  Classifier.fill_row t.row t.fields descriptor;
  classify_in ~msg_id descriptor t.row [] [] t.rulesets

let rec classes_in rulesets row =
  match rulesets with
  | [] -> []
  | rs :: rest -> (
    match Ruleset.classify_row rs row with
    | Some r -> r.Ruleset.qualified :: classes_in rest row
    | None -> classes_in rest row)

let classes_of_row t row =
  if Classifier.row_length row <> Array.length t.fields then
    invalid_arg "Stage.classes_of_row: row does not match the classifier fields";
  classes_in t.rulesets row

let classes t descriptor =
  Classifier.fill_row t.row t.fields descriptor;
  classes_in t.rulesets t.row

module Api = struct
  let get_stage_info = info

  let create_stage_rule t ~ruleset ~classifier ~class_name ~metadata_fields =
    let unknown_classifier =
      List.filter
        (fun f -> not (List.mem f t.classifier_fields))
        (Classifier.fields_referenced classifier)
    in
    let unknown_metadata =
      List.filter (fun f -> not (List.mem f t.metadata_fields)) metadata_fields
    in
    if unknown_classifier <> [] then
      Error
        (Printf.sprintf "stage %s cannot classify on: %s" t.name
           (String.concat ", " unknown_classifier))
    else if unknown_metadata <> [] then
      Error
        (Printf.sprintf "stage %s cannot generate metadata: %s" t.name
           (String.concat ", " unknown_metadata))
    else
      match qualified_class t ~ruleset class_name with
      | exception Invalid_argument _ ->
        Error (Printf.sprintf "invalid class name %s.%s.%s" t.name ruleset class_name)
      | _ ->
        let rs =
          match find_ruleset t ruleset with
          | Some rs -> rs
          | None ->
            let rs =
              Ruleset.create ~stage:t.name ~classifier_fields:t.classifier_fields
                ~metadata_fields:t.metadata_fields ~generation:t.generation ruleset
            in
            t.rulesets <- t.rulesets @ [ rs ];
            rs
        in
        let rule = Ruleset.add_rule rs ~classifier ~class_name ~metadata_fields in
        Ok rule.Ruleset.rule_id

  let remove_stage_rule t ~ruleset ~rule_id =
    match find_ruleset t ruleset with
    | None -> false
    | Some rs -> Ruleset.remove_rule rs rule_id
end

let pp fmt t =
  Format.fprintf fmt "@[<v>stage %s@,  classifiers: %s@,  metadata: %s@," t.name
    (String.concat ", " t.classifier_fields)
    (String.concat ", " t.metadata_fields);
  List.iter (fun rs -> Format.fprintf fmt "  %a@," Ruleset.pp rs) t.rulesets;
  Format.fprintf fmt "@]"
