module Time = Eden_base.Time

(* A field or global that was never written holds [unset], compared with
   [==].  It is a box of its own, made at run time, so no value a caller
   passes in can be it, and no read returns it. *)
let unset : int64 = Int64.of_string "-1"

type entry = {
  e_id : int64;
  mutable e_vals : int64 array;  (* per field slot; [unset] if never written *)
  mutable e_touch : Time.t;
  mutable e_next : entry;  (* bucket chain, ended by [no_entry] *)
}

let rec no_entry = { e_id = 0L; e_vals = [||]; e_touch = Time.zero; e_next = no_entry }

type t = {
  g_slots : (string, int) Hashtbl.t;
  mutable g_names : string array;  (* per global slot *)
  mutable g_vals : int64 array;  (* per global slot; [unset] if never written *)
  global_arrays : (string, int64 array) Hashtbl.t;
  f_slots : (string, int) Hashtbl.t;
  mutable n_fields : int;
  mutable buckets : entry array;
  mutable n_msgs : int;
  mutable array_version : int;
}

let create () =
  {
    g_slots = Hashtbl.create 16;
    g_names = [||];
    g_vals = [||];
    global_arrays = Hashtbl.create 8;
    f_slots = Hashtbl.create 8;
    n_fields = 0;
    buckets = Array.make 256 no_entry;
    n_msgs = 0;
    array_version = 0;
  }

(* Name-to-slot lookups use [Hashtbl.find] + [Not_found]: a hit
   allocates no option.  A miss raises, which costs ~30 ns on OCaml 5.1
   against ~5 ns for a non-raising miss; a name misses only until it is
   registered, and marshal plans resolve their names when they bind, so
   no packet comes here. *)
let slot_of tbl name = match Hashtbl.find tbl name with s -> s | exception Not_found -> -1

(* {2 Global scalars} *)

let global_slot t name =
  match slot_of t.g_slots name with
  | -1 ->
    let s = Hashtbl.length t.g_slots in
    if s = Array.length t.g_vals then begin
      let cap = max 8 (2 * s) in
      let vals = Array.make cap unset and names = Array.make cap "" in
      Array.blit t.g_vals 0 vals 0 s;
      Array.blit t.g_names 0 names 0 s;
      t.g_vals <- vals;
      t.g_names <- names
    end;
    t.g_names.(s) <- name;
    Hashtbl.replace t.g_slots name s;
    s
  | s -> s

let global_get_slot t s =
  let v = t.g_vals.(s) in
  if v == unset then 0L else v

let global_set_slot t s v = t.g_vals.(s) <- v

let global_get t name =
  match slot_of t.g_slots name with -1 -> 0L | s -> global_get_slot t s

let global_set t name v = global_set_slot t (global_slot t name) v

let global_array t name =
  match Hashtbl.find t.global_arrays name with a -> a | exception Not_found -> [||]

let global_array_set t name a =
  t.array_version <- t.array_version + 1;
  Hashtbl.replace t.global_arrays name a

let array_version t = t.array_version

let global_bindings t =
  let acc = ref [] in
  for s = Hashtbl.length t.g_slots - 1 downto 0 do
    let v = t.g_vals.(s) in
    if not (v == unset) then acc := (t.g_names.(s), v) :: !acc
  done;
  List.sort (fun (a, _) (b, _) -> String.compare a b) !acc

let global_array_bindings t =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.global_arrays []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* {2 Per-message state} *)

let field_slot t name =
  match slot_of t.f_slots name with
  | -1 ->
    let s = t.n_fields in
    Hashtbl.replace t.f_slots name s;
    t.n_fields <- s + 1;
    s
  | s -> s

(* Message ids are keyed with a multiplicative hash and [Int64.equal]:
   no [caml_hash], no polymorphic compare. *)
let bucket t msg =
  let h = Int64.to_int msg * 0x2545F4914F6CDD1D in
  (h lxor (h lsr 29)) land (Array.length t.buckets - 1)

let rec chain_find msg e =
  if e == no_entry || Int64.equal e.e_id msg then e else chain_find msg e.e_next

let msg_find t ~msg = chain_find msg (Array.unsafe_get t.buckets (bucket t msg))

let grow t =
  let old = t.buckets in
  t.buckets <- Array.make (2 * Array.length old) no_entry;
  Array.iter
    (fun e ->
      let e = ref e in
      while not (!e == no_entry) do
        let next = !e.e_next in
        let b = bucket t !e.e_id in
        !e.e_next <- t.buckets.(b);
        t.buckets.(b) <- !e;
        e := next
      done)
    old

let msg_entry t ~msg ~now =
  let e = msg_find t ~msg in
  if e == no_entry then begin
    if t.n_msgs >= 2 * Array.length t.buckets then grow t;
    let b = bucket t msg in
    let e =
      {
        e_id = msg;
        e_vals = Array.make t.n_fields unset;
        e_touch = now;
        e_next = t.buckets.(b);
      }
    in
    t.buckets.(b) <- e;
    t.n_msgs <- t.n_msgs + 1;
    e
  end
  else begin
    e.e_touch <- now;
    e
  end

let ensure_slot e s =
  let n = Array.length e.e_vals in
  if s >= n then begin
    if e == no_entry then invalid_arg "State: field access through no_entry";
    let vals = Array.make (max (s + 1) (2 * n)) unset in
    Array.blit e.e_vals 0 vals 0 n;
    e.e_vals <- vals
  end

let entry_get e s ~default =
  let v = if s < Array.length e.e_vals then e.e_vals.(s) else unset in
  if v == unset then begin
    ensure_slot e s;
    e.e_vals.(s) <- default;
    default
  end
  else v

let entry_set e s v =
  ensure_slot e s;
  e.e_vals.(s) <- v

let msg_get t ~msg ~field ~default ~now =
  entry_get (msg_entry t ~msg ~now) (field_slot t field) ~default

let msg_set t ~msg ~field v ~now = entry_set (msg_entry t ~msg ~now) (field_slot t field) v
let msg_known t ~msg = not (msg_find t ~msg == no_entry)
let msg_count t = t.n_msgs

(* Unlink the entries of bucket [b] for which [drop k] holds; returns
   how many.  [drop] is a top-level function and [k] its argument, so
   nothing here allocates. *)
let prune t b (drop : int64 -> entry -> bool) k =
  let before = t.n_msgs in
  let head = ref t.buckets.(b) in
  while (not (!head == no_entry)) && drop k !head do
    head := !head.e_next;
    t.n_msgs <- t.n_msgs - 1
  done;
  if not (!head == t.buckets.(b)) then t.buckets.(b) <- !head;
  let prev = ref !head in
  while not (!prev == no_entry) do
    let e = !prev.e_next in
    if (not (e == no_entry)) && drop k e then begin
      !prev.e_next <- e.e_next;
      t.n_msgs <- t.n_msgs - 1
    end
    else prev := e
  done;
  before - t.n_msgs

let is_msg msg e = Int64.equal e.e_id msg
let is_stale cutoff e = Time.( < ) e.e_touch cutoff
let msg_end t ~msg = ignore (prune t (bucket t msg) is_msg msg)

let expire t ~now ~idle =
  let cutoff = Time.sub now idle in
  let n = ref 0 in
  for b = 0 to Array.length t.buckets - 1 do
    n := !n + prune t b is_stale cutoff
  done;
  !n
