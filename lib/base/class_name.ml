(* [hash] is computed once, when the name is made, so the enclave's
   class memos and the metadata's class sets hash and compare names
   with integer and string operations only.  It is the last field:
   structural comparison of two names still orders by the components. *)
type t = { stage : string; ruleset : string; name : string; hash : int }

let valid_component s = s <> "" && not (String.contains s '.')
let make stage ruleset name =
  { stage; ruleset; name; hash = Hashtbl.hash (stage, ruleset, name) }

let v ~stage ~ruleset ~name =
  if not (valid_component stage && valid_component ruleset && valid_component name)
  then invalid_arg "Class_name.v: components must be non-empty and dot-free";
  make stage ruleset name

let to_string c = Printf.sprintf "%s.%s.%s" c.stage c.ruleset c.name

let of_string s =
  match String.split_on_char '.' s with
  | [ stage; ruleset; name ]
    when valid_component stage && valid_component ruleset && valid_component name ->
    Some (make stage ruleset name)
  | _ -> None

let hash c = c.hash

let compare a b =
  if a == b then 0
  else
    let c = String.compare a.stage b.stage in
    if c <> 0 then c
    else
      let c = String.compare a.ruleset b.ruleset in
      if c <> 0 then c else String.compare a.name b.name

let equal a b =
  a == b
  || a.hash = b.hash
     && String.equal a.name b.name
     && String.equal a.ruleset b.ruleset
     && String.equal a.stage b.stage

let pp fmt c = Format.pp_print_string fmt (to_string c)

module Pattern = struct
  type class_name = t
  type component = Exact of string | Any
  type t = { stage : component; ruleset : component; name : component }

  let exact (c : class_name) =
    { stage = Exact c.stage; ruleset = Exact c.ruleset; name = Exact c.name }

  let any = { stage = Any; ruleset = Any; name = Any }

  let component_of_string = function
    | "*" -> Some Any
    | s when valid_component s -> Some (Exact s)
    | _ -> None

  let of_string s =
    match String.split_on_char '.' s with
    | [ a; b; c ] -> (
      match (component_of_string a, component_of_string b, component_of_string c) with
      | Some stage, Some ruleset, Some name -> Some { stage; ruleset; name }
      | _ -> None)
    | _ -> None

  let component_to_string = function Exact s -> s | Any -> "*"

  let to_string p =
    Printf.sprintf "%s.%s.%s"
      (component_to_string p.stage)
      (component_to_string p.ruleset)
      (component_to_string p.name)

  let component_matches c s =
    match c with Any -> true | Exact e -> String.equal e s

  let matches p (c : class_name) =
    component_matches p.stage c.stage
    && component_matches p.ruleset c.ruleset
    && component_matches p.name c.name

  let specificity p =
    let one = function Exact _ -> 1 | Any -> 0 in
    one p.stage + one p.ruleset + one p.name
end

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Set = Set.Make (Ord)
module Map = Map.Make (Ord)
