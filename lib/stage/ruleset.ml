module Class_name = Eden_base.Class_name

type rule = {
  rule_id : int;
  classifier : Classifier.t;
  class_name : string;
  metadata_fields : string list;
  qualified : Class_name.t;
}

(* A rule with its classifier compiled over the stage's classifier
   fields.  [hit] is [Some rule], allocated once so that a match
   allocates nothing. *)
type entry = { rule : rule; tests : Classifier.compiled; hit : rule option }

type t = {
  stage : string;
  fields : string array;  (* the stage's classifier fields; tests index them *)
  declared : string list;  (* metadata fields the stage can attach *)
  id : string;
  mutable entries : entry array;  (* in match order *)
  mutable next_rule_id : int;
  generation : int ref;
}

let create ~stage ~classifier_fields ~metadata_fields ~generation id =
  {
    stage;
    fields = Array.of_list classifier_fields;
    declared = metadata_fields;
    id;
    entries = [||];
    next_rule_id = 0;
    generation;
  }

let id t = t.id

let add_rule t ~classifier ~class_name ~metadata_fields =
  (match List.find_opt (fun f -> not (List.mem f t.declared)) metadata_fields with
  | Some f -> invalid_arg (Printf.sprintf "stage %s cannot generate metadata: %s" t.stage f)
  | None -> ());
  let tests = Classifier.compile ~fields:t.fields classifier in
  let qualified = Class_name.v ~stage:t.stage ~ruleset:t.id ~name:class_name in
  let rule = { rule_id = t.next_rule_id; classifier; class_name; metadata_fields; qualified } in
  t.next_rule_id <- t.next_rule_id + 1;
  t.entries <- Array.append t.entries [| { rule; tests; hit = Some rule } |];
  incr t.generation;
  rule

let remove_rule t rule_id =
  let before = Array.length t.entries in
  t.entries <-
    Array.of_list (List.filter (fun e -> e.rule.rule_id <> rule_id) (Array.to_list t.entries));
  let removed = Array.length t.entries < before in
  if removed then incr t.generation;
  removed

let rules t = Array.fold_right (fun e acc -> e.rule :: acc) t.entries []

let rec first_match entries row i =
  if i = Array.length entries then None
  else if Classifier.matches_row entries.(i).tests row then entries.(i).hit
  else first_match entries row (i + 1)

let classify_row t row = first_match t.entries row 0
let classify t descriptor = classify_row t (Classifier.row t.fields descriptor)

let pp fmt t =
  Format.fprintf fmt "@[<v>rule-set %s:@," t.id;
  List.iter
    (fun r ->
      Format.fprintf fmt "  %s -> [%s, {msg_id%s}]@,"
        (Classifier.to_string r.classifier)
        r.class_name
        (match r.metadata_fields with
        | [] -> ""
        | fs -> ", " ^ String.concat ", " fs))
    (rules t);
  Format.fprintf fmt "@]"
