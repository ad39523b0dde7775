module Metadata = Eden_base.Metadata

module Descriptor = struct
  module Smap = Map.Make (String)

  type t = Metadata.value Smap.t

  let empty = Smap.empty
  let add k v t = Smap.add k v t
  let of_list l = List.fold_left (fun acc (k, v) -> add k v acc) empty l
  let find k t = Smap.find_opt k t
  let fields t = Smap.bindings t

  let pp fmt t =
    let pp_field fmt (k, v) = Format.fprintf fmt "%s=%a" k Metadata.pp_value v in
    Format.fprintf fmt "{%a}"
      (Format.pp_print_list ~pp_sep:(fun f () -> Format.fprintf f ";@ ") pp_field)
      (fields t)
end

type pattern =
  | Any
  | Present
  | Eq of Metadata.value
  | Ne of Metadata.value
  | In_set of Metadata.value list
  | Range of int64 * int64
  | Prefix of string

let pattern_to_string = function
  | Any -> "*"
  | Present -> "present"
  | Eq v -> Metadata.value_to_string v
  | Ne v -> "!" ^ Metadata.value_to_string v
  | In_set vs -> "{" ^ String.concat "," (List.map Metadata.value_to_string vs) ^ "}"
  | Range (lo, hi) -> Printf.sprintf "[%Ld..%Ld]" lo hi
  | Prefix p -> p ^ "*"

type t = (string * pattern) list

let eq_str s = Eq (Metadata.str s)
let eq_int i = Eq (Metadata.int i)

let pattern_matches pattern value =
  match (pattern, value) with
  | Any, _ -> true
  | Present, Some _ -> true
  | Present, None -> false
  | _, None -> false
  | Eq expected, Some v -> Metadata.equal_value expected v
  | Ne expected, Some v -> not (Metadata.equal_value expected v)
  | In_set vs, Some v -> List.exists (Metadata.equal_value v) vs
  | Range (lo, hi), Some (Metadata.Int i) ->
    Int64.compare lo i <= 0 && Int64.compare i hi <= 0
  | Range _, Some (Metadata.Str _) -> false
  | Prefix p, Some (Metadata.Str s) ->
    String.length s >= String.length p && String.equal (String.sub s 0 (String.length p)) p
  | Prefix _, Some (Metadata.Int _) -> false

let matches t descriptor =
  List.for_all (fun (field, pattern) -> pattern_matches pattern (Descriptor.find field descriptor)) t

let to_string t =
  "<"
  ^ String.concat ", "
      (List.map (fun (f, p) -> Printf.sprintf "%s:%s" f (pattern_to_string p)) t)
  ^ ">"

let pp fmt t = Format.pp_print_string fmt (to_string t)

let fields_referenced t =
  List.fold_left
    (fun acc (f, _) -> if List.mem f acc then acc else f :: acc)
    [] t
  |> List.rev

(* Compiled form.  A stage compiles each rule once, at install, into
   tests over the indices of its classifier fields; classifying a message
   then looks each field up once ({!row}) and runs integer-indexed tests
   that allocate nothing.  [matches] above stays the reference
   semantics. *)

type row = Metadata.value option array

let row fields descriptor =
  let r = Array.make (Array.length fields) None in
  for i = 0 to Array.length fields - 1 do
    r.(i) <- Descriptor.find fields.(i) descriptor
  done;
  r

type test =
  | T_present of int
  | T_eq of int * Metadata.value
  | T_ne of int * Metadata.value
  | T_in_set of int * Metadata.value array
  | T_range of int * int64 * int64
  | T_prefix of int * string

type compiled = test array

let rec index_of fields field i =
  if i = Array.length fields then
    invalid_arg (Printf.sprintf "Classifier.compile: no classifier field %s" field)
  else if String.equal fields.(i) field then i
  else index_of fields field (i + 1)

let compile ~fields t =
  List.filter_map
    (fun (field, pattern) ->
      let i = index_of fields field 0 in
      match pattern with
      | Any -> None
      | Present -> Some (T_present i)
      | Eq v -> Some (T_eq (i, v))
      | Ne v -> Some (T_ne (i, v))
      | In_set vs -> Some (T_in_set (i, Array.of_list vs))
      | Range (lo, hi) -> Some (T_range (i, lo, hi))
      | Prefix p -> Some (T_prefix (i, p)))
    t
  |> Array.of_list

let rec mem_value v vs i =
  i < Array.length vs && (Metadata.equal_value v vs.(i) || mem_value v vs (i + 1))

let rec has_prefix s p i =
  i = String.length p || (Char.equal s.[i] p.[i] && has_prefix s p (i + 1))

let test_row row = function
  | T_present i -> ( match row.(i) with Some _ -> true | None -> false)
  | T_eq (i, expected) -> (
    match row.(i) with Some v -> Metadata.equal_value expected v | None -> false)
  | T_ne (i, expected) -> (
    match row.(i) with Some v -> not (Metadata.equal_value expected v) | None -> false)
  | T_in_set (i, vs) -> ( match row.(i) with Some v -> mem_value v vs 0 | None -> false)
  | T_range (i, lo, hi) -> (
    match row.(i) with
    | Some (Metadata.Int v) -> Int64.compare lo v <= 0 && Int64.compare v hi <= 0
    | Some (Metadata.Str _) | None -> false)
  | T_prefix (i, p) -> (
    match row.(i) with
    | Some (Metadata.Str s) -> String.length s >= String.length p && has_prefix s p 0
    | Some (Metadata.Int _) | None -> false)

let rec all_from tests row i =
  i = Array.length tests || (test_row row tests.(i) && all_from tests row (i + 1))

let matches_row tests row = all_from tests row 0
