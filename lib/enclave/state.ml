module Time = Eden_base.Time

(* Bounds-checked: a slot or buffer offset out of range raises rather
   than reaching past the bytes. *)
external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64"

(* Scalar values are stored unboxed.  A slot vector of capacity [cap] is
   one [Bytes.t]: [cap] native-endian 8-byte values, then [cap] flag
   bytes, nonzero once the slot is written.  The flag, not the value,
   says whether a slot was written, so every [int64] is an ordinary
   value.  Writes store the value's bits, so neither a write nor a copy
   to or from the enclave's I/O slots allocates. *)
module Slots = struct
  let make cap = Bytes.make (9 * cap) '\000'
  let[@inline] cap b = Bytes.length b / 9
  let[@inline] written b s = s < cap b && Bytes.get b ((8 * cap b) + s) <> '\000'
  let[@inline] get b s = get64 b (s lsl 3)

  let[@inline] set b s v =
    set64 b (s lsl 3) v;
    Bytes.set b ((8 * cap b) + s) '\001'

  (* [b] with capacity at least [n], written flags kept. *)
  let grow b n =
    let c = cap b in
    let b' = make (max n (2 * c)) in
    Bytes.blit b 0 b' 0 (8 * c);
    Bytes.blit b (8 * c) b' (8 * cap b') c;
    b'
end

type entry = {
  e_id : int64;
  mutable e_vals : Bytes.t;  (* slot vector, per field slot *)
  mutable e_touch : Time.t;
  mutable e_next : entry;  (* bucket chain, ended by [no_entry] *)
}

let rec no_entry = { e_id = 0L; e_vals = Bytes.empty; e_touch = Time.zero; e_next = no_entry }

type t = {
  g_slots : (string, int) Hashtbl.t;
  mutable g_names : string array;  (* per global slot *)
  mutable g_vals : Bytes.t;  (* slot vector, per global slot *)
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
    g_vals = Slots.make 0;
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
    if s = Slots.cap t.g_vals then begin
      let cap = max 8 (2 * s) in
      let names = Array.make cap "" in
      Array.blit t.g_names 0 names 0 s;
      t.g_vals <- Slots.grow t.g_vals cap;
      t.g_names <- names
    end;
    t.g_names.(s) <- name;
    Hashtbl.replace t.g_slots name s;
    s
  | s -> s

let[@inline] global_value t s = if Slots.written t.g_vals s then Slots.get t.g_vals s else 0L
let global_load t s dst off = set64 dst off (global_value t s)

let global_store t s src off =
  if s < 0 || s >= Hashtbl.length t.g_slots then invalid_arg "State: no such global slot";
  Slots.set t.g_vals s (get64 src off)

let global_get t name = match slot_of t.g_slots name with -1 -> 0L | s -> global_value t s
let global_set t name v = Slots.set t.g_vals (global_slot t name) v

let global_array t name =
  match Hashtbl.find t.global_arrays name with a -> a | exception Not_found -> [||]

let global_array_set t name a =
  t.array_version <- t.array_version + 1;
  Hashtbl.replace t.global_arrays name a

let array_version t = t.array_version

let global_bindings t =
  let acc = ref [] in
  for s = Hashtbl.length t.g_slots - 1 downto 0 do
    if Slots.written t.g_vals s then acc := (t.g_names.(s), Slots.get t.g_vals s) :: !acc
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
        e_vals = Slots.make t.n_fields;
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
  if s >= Slots.cap e.e_vals then begin
    if e == no_entry then invalid_arg "State: field access through no_entry";
    e.e_vals <- Slots.grow e.e_vals (s + 1)
  end

(* A field never written reads [default] and stores it. *)
let[@inline] entry_fill e s ~default =
  if not (Slots.written e.e_vals s) then begin
    ensure_slot e s;
    Slots.set e.e_vals s default
  end

let entry_load e s ~default dst off =
  entry_fill e s ~default;
  set64 dst off (Slots.get e.e_vals s)

let entry_store e s src off =
  ensure_slot e s;
  Slots.set e.e_vals s (get64 src off)

let msg_get t ~msg ~field ~default ~now =
  let s = field_slot t field in
  let e = msg_entry t ~msg ~now in
  entry_fill e s ~default;
  Slots.get e.e_vals s

let msg_set t ~msg ~field v ~now =
  let s = field_slot t field in
  let e = msg_entry t ~msg ~now in
  ensure_slot e s;
  Slots.set e.e_vals s v

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
