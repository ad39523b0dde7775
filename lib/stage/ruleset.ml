module Class_name = Eden_base.Class_name

type rule = {
  rule_id : int;
  classifier : Classifier.t;
  class_name : string;
  metadata_fields : string list;
  qualified : Class_name.t;
}

type t = {
  stage : string;
  declared : string list;  (* metadata fields the stage can attach *)
  id : string;
  mutable rules : rule list;
  mutable next_rule_id : int;
  generation : int ref;
}

let create ~stage ~metadata_fields ~generation id =
  { stage; declared = metadata_fields; id; rules = []; next_rule_id = 0; generation }

let id t = t.id

let add_rule t ~classifier ~class_name ~metadata_fields =
  (match List.find_opt (fun f -> not (List.mem f t.declared)) metadata_fields with
  | Some f -> invalid_arg (Printf.sprintf "stage %s cannot generate metadata: %s" t.stage f)
  | None -> ());
  let qualified = Class_name.v ~stage:t.stage ~ruleset:t.id ~name:class_name in
  let rule = { rule_id = t.next_rule_id; classifier; class_name; metadata_fields; qualified } in
  t.next_rule_id <- t.next_rule_id + 1;
  t.rules <- t.rules @ [ rule ];
  incr t.generation;
  rule

let remove_rule t rule_id =
  let before = List.length t.rules in
  t.rules <- List.filter (fun r -> r.rule_id <> rule_id) t.rules;
  let removed = List.length t.rules < before in
  if removed then incr t.generation;
  removed

let rules t = t.rules
let classify t descriptor = List.find_opt (fun r -> Classifier.matches r.classifier descriptor) t.rules

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
    t.rules;
  Format.fprintf fmt "@]"
