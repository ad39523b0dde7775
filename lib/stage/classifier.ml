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
   then fills a row with each field's value once and runs integer-indexed
   tests.  A row holds per field a kind byte, eight bytes for an integer
   and a string slot, so filling and testing it allocate nothing.  Each
   test is compiled for the kind of value it compares with: an integer
   test reads the row's unboxed [int64].  [matches] above stays the
   reference semantics. *)

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let absent = '\000'
let int_kind = '\001'
let str_kind = '\002'

(* Field [i]'s kind is [kinds.[i]]; its integer is at [ints.[8i]] when
   the kind is [int_kind], its string [strs.(i)] when [str_kind].  The
   cells of another kind are stale and never read. *)
type row = { kinds : Bytes.t; ints : Bytes.t; strs : string array }

let make_row n =
  { kinds = Bytes.make n absent; ints = Bytes.make (8 * n) '\000'; strs = Array.make n "" }

let row_length r = Bytes.length r.kinds

(* [kinds] is written, or read, first: its bounds check keeps the
   unchecked eight-byte accesses inside [ints]. *)
let set_int r i v =
  Bytes.set r.kinds i int_kind;
  set64 r.ints (8 * i) (Int64.of_int v)

let set_str r i s =
  Bytes.set r.kinds i str_kind;
  r.strs.(i) <- s

(* [Smap.find] allocates nothing on a hit, where [find_opt] allocates an
   option per present field; an absent field pays a raise instead. *)
let fill_row r fields descriptor =
  if Array.length fields <> row_length r then
    invalid_arg "Classifier.fill_row: row does not match the fields";
  for i = 0 to Array.length fields - 1 do
    match Descriptor.Smap.find fields.(i) descriptor with
    | Metadata.Int v ->
      Bytes.set r.kinds i int_kind;
      set64 r.ints (8 * i) v
    | Metadata.Str s -> set_str r i s
    | exception Not_found -> Bytes.set r.kinds i absent
  done

let row fields descriptor =
  let r = make_row (Array.length fields) in
  fill_row r fields descriptor;
  r

type test =
  | T_present of int
  | T_eq_int of int * int64
  | T_ne_int of int * int64
  | T_eq_str of int * string
  | T_ne_str of int * string
  | T_in_set of int * int64 array * string array
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
      | Eq (Metadata.Int v) -> Some (T_eq_int (i, v))
      | Eq (Metadata.Str s) -> Some (T_eq_str (i, s))
      | Ne (Metadata.Int v) -> Some (T_ne_int (i, v))
      | Ne (Metadata.Str s) -> Some (T_ne_str (i, s))
      | In_set vs ->
        let ints =
          List.filter_map (function Metadata.Int v -> Some v | Metadata.Str _ -> None) vs
        and strs =
          List.filter_map (function Metadata.Str s -> Some s | Metadata.Int _ -> None) vs
        in
        Some (T_in_set (i, Array.of_list ints, Array.of_list strs))
      | Range (lo, hi) -> Some (T_range (i, lo, hi))
      | Prefix p -> Some (T_prefix (i, p)))
    t
  |> Array.of_list

(* The row's integer is read at each comparison: passing it to a call
   would box it. *)
let rec mem_int ints at vs j =
  j < Array.length vs && (get64 ints at = vs.(j) || mem_int ints at vs (j + 1))

let rec mem_str s vs j =
  j < Array.length vs && (String.equal s vs.(j) || mem_str s vs (j + 1))

let rec has_prefix s p i =
  i = String.length p || (Char.equal s.[i] p.[i] && has_prefix s p (i + 1))

let test_row r = function
  | T_present i -> Bytes.get r.kinds i <> absent
  | T_eq_int (i, x) -> Bytes.get r.kinds i = int_kind && get64 r.ints (8 * i) = x
  | T_ne_int (i, x) ->
    let k = Bytes.get r.kinds i in
    k = str_kind || (k = int_kind && get64 r.ints (8 * i) <> x)
  | T_eq_str (i, x) -> Bytes.get r.kinds i = str_kind && String.equal r.strs.(i) x
  | T_ne_str (i, x) ->
    let k = Bytes.get r.kinds i in
    k = int_kind || (k = str_kind && not (String.equal r.strs.(i) x))
  | T_in_set (i, ints, strs) ->
    let k = Bytes.get r.kinds i in
    if k = int_kind then mem_int r.ints (8 * i) ints 0
    else k = str_kind && mem_str r.strs.(i) strs 0
  | T_range (i, lo, hi) ->
    Bytes.get r.kinds i = int_kind
    &&
    let v = get64 r.ints (8 * i) in
    lo <= v && v <= hi
  | T_prefix (i, p) ->
    Bytes.get r.kinds i = str_kind
    &&
    let s = r.strs.(i) in
    String.length s >= String.length p && has_prefix s p 0

let rec all_from tests r i =
  i = Array.length tests || (test_row r tests.(i) && all_from tests r (i + 1))

let matches_row tests r = all_from tests r 0
