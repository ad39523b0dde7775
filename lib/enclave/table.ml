module Class_name = Eden_base.Class_name

type rule = { rule_id : int; pattern : Class_name.Pattern.t; action : string }

type t = { id : int; rules : rule list }

let make ~id rules = { id; rules }
let id t = t.id
let rules t = t.rules

(* Keep rules sorted: higher specificity first; ties by insertion order. *)
let insert_sorted rules rule =
  let spec r = Class_name.Pattern.specificity r.pattern in
  let rec go = function
    | [] -> [ rule ]
    | r :: rest ->
      if spec rule > spec r then rule :: r :: rest else r :: go rest
  in
  go rules

let lookup t classes =
  List.find_opt
    (fun r -> List.exists (Class_name.Pattern.matches r.pattern) classes)
    t.rules

let pp fmt t =
  Format.fprintf fmt "@[<v>table %d:@," t.id;
  List.iter
    (fun r ->
      Format.fprintf fmt "  %s -> %s@," (Class_name.Pattern.to_string r.pattern) r.action)
    t.rules;
  Format.fprintf fmt "@]"
