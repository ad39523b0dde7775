type value = Int of int64 | Str of string

let int i = Int (Int64.of_int i)
let int64 i = Int i
let str s = Str s
let value_to_string = function Int i -> Int64.to_string i | Str s -> s

let equal_value a b =
  match (a, b) with
  | Int x, Int y -> Int64.equal x y
  | Str x, Str y -> String.equal x y
  | Int _, Str _ | Str _, Int _ -> false

let pp_value fmt = function
  | Int i -> Format.fprintf fmt "%Ld" i
  | Str s -> Format.fprintf fmt "%S" s

module Smap = Map.Make (String)

type t = {
  msg_id : int64 option;
  fields : value Smap.t;
  classes : Class_name.t list; (* newest first *)
}

let empty = { msg_id = None; fields = Smap.empty; classes = [] }
let with_msg_id id t = { t with msg_id = Some id }
let msg_id t = t.msg_id
let add field v t = { t with fields = Smap.add field v t.fields }
let find field t = Smap.find_opt field t.fields

let find_int field t =
  match find field t with Some (Int i) -> Some i | Some (Str _) | None -> None

let find_str field t =
  match find field t with Some (Str s) -> Some s | Some (Int _) | None -> None

(* Allocation-free variants for the enclave data path: [Smap.find] plus
   [Not_found] allocates no option on a hit.  A miss raises, and a raise
   is not cheap: ~30 ns on OCaml 5.1, against ~5 ns for a non-raising
   miss.  The enclave's marshal plans copy metadata fields only when the
   merged metadata object changes, so an absent field pays the raise
   once per message run, not once per packet. *)
let int_field field ~default t =
  match Smap.find field t.fields with
  | Int i -> i
  | Str _ -> default
  | exception Not_found -> default

let str_field_is field ~expected t =
  match Smap.find field t.fields with
  | Str s -> String.equal s expected
  | Int _ -> false
  | exception Not_found -> false

let mem field t = Smap.mem field t.fields
let fields t = Smap.bindings t.fields

(* The one membership test of the class-set functions below: a
   top-level recursion, so no test builds a closure. *)
let rec mem_class c = function
  | [] -> false
  | c' :: rest -> Class_name.equal c c' || mem_class c rest

let add_class c t = if mem_class c t.classes then t else { t with classes = c :: t.classes }
let classes t = List.rev t.classes
let classes_rev t = t.classes
let has_class c t = mem_class c t.classes

(* Push [cs] (oldest first) onto the newest-first [acc], skipping
   classes already present. *)
let rec push_classes acc = function
  | [] -> acc
  | c :: cs -> push_classes (if mem_class c acc then acc else c :: acc) cs

(* [push_classes acc (List.rev cs)] without the reversed copy: [cs] is
   newest first, as a [t] holds it.  [acc] itself when [cs] adds
   nothing. *)
let rec push_rev acc = function
  | [] -> acc
  | c :: older ->
    let acc = push_rev acc older in
    if mem_class c acc then acc else c :: acc

let union a b =
  let msg_id = match b.msg_id with Some _ as id -> id | None -> a.msg_id in
  let fields = Smap.union (fun _ _ vb -> Some vb) a.fields b.fields in
  { msg_id; fields; classes = push_rev a.classes b.classes }

let merge_order cs = push_classes [] cs

let merge_flow ~flow_id flow_classes b =
  let msg_id = match b.msg_id with Some _ as id -> id | None -> Some (Int64.of_int flow_id) in
  { msg_id; fields = b.fields; classes = push_rev flow_classes b.classes }

(* [cs] newest first, each class kept at its oldest occurrence, as
   [add_class] keeps it; the list itself when no class repeats. *)
let rec distinct = function
  | [] -> true
  | c :: older -> (not (mem_class c older)) && distinct older

let rec oldest_once = function
  | [] -> []
  | c :: older -> if mem_class c older then oldest_once older else c :: oldest_once older

(* Each name bound at most once: [find] is a function of the name, so
   the order the names come in does not change a binding. *)
let rec bind_names find d fields = function
  | [] -> fields
  | f :: rest ->
    let fields = match find f d with Some v -> Smap.add f v fields | None -> fields in
    bind_names find d fields rest

let rec bind_rules find d fields = function
  | [] -> fields
  | names :: rest -> bind_rules find d (bind_names find d fields names) rest

let classified ~msg_id classes names find d =
  {
    msg_id = Some msg_id;
    fields = bind_rules find d Smap.empty names;
    classes = (if distinct classes then classes else oldest_once classes);
  }

let pp fmt t =
  let pp_field fmt (k, v) = Format.fprintf fmt "%s=%a" k pp_value v in
  Format.fprintf fmt "@[<h>{id=%s; classes=[%a]; %a}@]"
    (match t.msg_id with Some i -> Int64.to_string i | None -> "-")
    (Format.pp_print_list ~pp_sep:(fun f () -> Format.fprintf f ",") Class_name.pp)
    (classes t)
    (Format.pp_print_list ~pp_sep:(fun f () -> Format.fprintf f ";@ ") pp_field)
    (fields t)

module Field = struct
  let msg_type = "msg_type"
  let key = "key"
  let url = "url"
  let msg_size = "msg_size"
  let tenant = "tenant"
  let flow_size = "flow_size"
  let operation = "operation"
end
