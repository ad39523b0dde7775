module Addr = Eden_base.Addr
module Packet = Eden_base.Packet
module Metadata = Eden_base.Metadata
module P = Eden_bytecode.Program
module Interp = Eden_bytecode.Interp

(* Packet-field marshalling.

   Field names are resolved to small integer codes once at install time
   so the per-packet copy-in / copy-out is an integer dispatch with no
   string comparison or hashing. *)

external b64get : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external b64set : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let proto_code = function Addr.Tcp -> 6 | Addr.Udp -> 17

let packet_field_code = function
  | "Size" -> 0
  | "PayloadSize" -> 1
  | "Priority" -> 2
  | "Path" -> 3
  | "SrcHost" -> 4
  | "SrcPort" -> 5
  | "DstHost" -> 6
  | "DstPort" -> 7
  | "Proto" -> 8
  | "IsData" -> 9
  | "Drop" -> 10
  | "Queue" -> 11
  | "Charge" -> 12
  | "GotoTable" -> 13
  | _ -> -1

(* Every readable packet field is an [int]: returning it unconverted
   keeps the copy-in from boxing an [int64] on the way to the I/O slot. *)
let packet_field_by_code (pkt : Packet.t) = function
  | 0 -> Packet.wire_size pkt
  | 1 -> pkt.Packet.payload
  | 2 -> pkt.Packet.priority
  | 3 -> (match pkt.Packet.route_label with Some l -> l | None -> -1)
  | 4 -> pkt.Packet.flow.Addr.src.Addr.host
  | 5 -> pkt.Packet.flow.Addr.src.Addr.port
  | 6 -> pkt.Packet.flow.Addr.dst.Addr.host
  | 7 -> pkt.Packet.flow.Addr.dst.Addr.port
  | 8 -> proto_code pkt.Packet.flow.Addr.proto
  | 9 -> if Packet.is_data pkt then 1 else 0
  | 10 -> 0
  | 11 | 12 | 13 -> -1
  | _ -> 0

let packet_field_writable = function
  | "Priority" | "Path" | "Drop" | "Queue" | "Charge" | "GotoTable" -> true
  | _ -> false

let reset_outputs (out : Config.outputs) (pkt : Packet.t) =
  out.o_priority <- pkt.Packet.priority;
  out.o_path <- (match pkt.Packet.route_label with Some l -> l | None -> -1);
  out.o_drop <- false;
  out.o_queue <- -1;
  out.o_charge <- -1;
  out.o_goto <- -1

(* Reads the value from the I/O slot at byte offset [off] itself, so no
   [int64] is passed boxed. *)
let apply_packet_field_code (out : Config.outputs) code io off =
  let v = b64get io off in
  match code with
  | 2 -> out.o_priority <- max 0 (min 7 (Int64.to_int v))
  | 3 -> out.o_path <- Int64.to_int v
  | 10 -> if not (Int64.equal v 0L) then out.o_drop <- true
  | 11 -> out.o_queue <- Int64.to_int v
  | 12 -> out.o_charge <- Int64.to_int v
  | 13 -> out.o_goto <- Int64.to_int v
  | _ -> ()

let contract_problems (p : P.t) sources =
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  Array.iter
    (fun (s : P.scalar_slot) ->
      match s.P.s_entity with
      | P.Packet ->
        if packet_field_code s.P.s_name < 0 then problem "unknown packet field %S" s.P.s_name
        else if s.P.s_access = P.Read_write && not (packet_field_writable s.P.s_name) then
          problem "packet field %S is not writable" s.P.s_name
      | P.Message -> (
        match Hashtbl.find_opt sources s.P.s_name with
        | Some (Config.Metadata_int _ | Metadata_flag _) when s.P.s_access = P.Read_write ->
          problem "metadata-sourced message field %S cannot be writable" s.P.s_name
        | Some _ | None -> ())
      | P.Global -> ())
    p.P.scalar_slots;
  Array.iter
    (fun (a : P.array_slot) ->
      match a.P.a_entity with
      | P.Global -> ()
      | P.Packet | P.Message -> problem "array %S: only global arrays are supported" a.P.a_name)
    p.P.array_slots;
  !problems

(* ------------------------------------------------------------------ *)
(* Marshal plans.  Doing the paper's copy-in / copy-out naively, one
   [Array.map] over the slot tables per packet, allocates fresh
   environment buffers and copies every array on every packet.  Plans
   cache aliases into the action's live arrays, so they watch
   {!State.array_version} and rebind when the controller swaps an array
   binding. *)

type scalar_in =
  | In_zero  (** Never read by the program: skip the copy-in. *)
  | In_pkt of int
  | In_msg_state of { field : string; default : int64; mutable fslot : int }
  | In_msg_meta_int of string
  | In_msg_meta_flag of string * string
  | In_global of { name : string; mutable gslot : int }

type scalar_out =
  | Out_none
  | Out_pkt of int
  | Out_msg of { field : string; mutable fslot : int }
  | Out_global of { name : string; mutable gslot : int }

type array_kind =
  | A_alias  (** Read-only (or never written): share the live array. *)
  | A_scratch  (** Written: copy via a persistent scratch buffer. *)

type plan = {
  pl_prog : P.t;
  pl_in : scalar_in array;  (* per scalar slot *)
  pl_out : scalar_out array;  (* per scalar slot *)
  pl_abind : array_kind array;  (* per array slot *)
  pl_arrays : int64 array array;  (* preallocated invocation arrays *)
  pl_live : int64 array array;  (* live aliases for scratch blits *)
  pl_msg_in : bool;  (* some [In_msg_state] slot *)
  pl_msg_out : bool;  (* some [Out_msg] slot *)
  mutable pl_entry : State.entry;  (* the invocation's message, if [pl_msg_in] *)
  mutable pl_md : Metadata.t;  (* metadata the [In_msg_meta_*] slots hold *)
  mutable pl_version : int;  (* State.array_version at last rebind *)
  mutable pl_undersized : Interp.fault option;  (* checked at rebind *)
}

(* Made here, so no packet carries it: the first copy-in always misses. *)
let no_metadata = Metadata.with_msg_id 0L Metadata.empty

let make (p : P.t) sources =
  (* Two slots sharing one local would make per-slot elision ambiguous;
     [shared_local] falls back to copying everything (the verifier does
     not forbid it, but no compiler emits it). *)
  let fp = P.footprint p in
  let n_arrays = Array.length p.P.array_slots in
  let pl_in =
    Array.map
      (fun (s : P.scalar_slot) ->
        let needed =
          fp.P.shared_local || fp.P.loads.(s.P.s_local)
          || (s.P.s_access = P.Read_write && fp.P.stores.(s.P.s_local))
        in
        if not needed then In_zero
        else
          match s.P.s_entity with
          | P.Packet -> In_pkt (packet_field_code s.P.s_name)
          | P.Global -> In_global { name = s.P.s_name; gslot = -1 }
          | P.Message -> (
            match Hashtbl.find_opt sources s.P.s_name with
            | None -> In_msg_state { field = s.P.s_name; default = 0L; fslot = -1 }
            | Some (Config.Stateful default) -> In_msg_state { field = s.P.s_name; default; fslot = -1 }
            | Some (Metadata_int field) -> In_msg_meta_int field
            | Some (Metadata_flag (field, expected)) -> In_msg_meta_flag (field, expected)))
      p.P.scalar_slots
  in
  let pl_out =
    Array.map
      (fun (s : P.scalar_slot) ->
        if s.P.s_access <> P.Read_write || not (fp.P.shared_local || fp.P.stores.(s.P.s_local))
        then
          Out_none
        else
          match s.P.s_entity with
          | P.Packet -> Out_pkt (packet_field_code s.P.s_name)
          | P.Message -> Out_msg { field = s.P.s_name; fslot = -1 }
          | P.Global -> Out_global { name = s.P.s_name; gslot = -1 })
      p.P.scalar_slots
  in
  let pl_abind =
    Array.mapi
      (fun i (a : P.array_slot) ->
        if a.P.a_access = P.Read_only || not fp.P.array_stores.(i) then A_alias
        else A_scratch)
      p.P.array_slots
  in
  {
    pl_prog = p;
    pl_in;
    pl_out;
    pl_abind;
    pl_arrays = Array.make n_arrays [||];
    pl_live = Array.make n_arrays [||];
    pl_msg_in = Array.exists (function In_msg_state _ -> true | _ -> false) pl_in;
    pl_msg_out = Array.exists (function Out_msg _ -> true | _ -> false) pl_out;
    pl_entry = State.no_entry;
    pl_md = no_metadata;
    pl_version = -1;  (* force a rebind before the first invocation *)
    pl_undersized = None;
  }

let program plan = plan.pl_prog
let arrays plan = plan.pl_arrays

(* Resolve every state name the plan touches to its slot in [state];
   re-alias live arrays (and resize scratch buffers) after the
   controller rebinds one via [set_global_array]; also re-check the
   program's [a_min_len] input contract. *)
let rebind plan state =
  let v = State.array_version state in
  if plan.pl_version <> v then begin
    plan.pl_version <- v;
    plan.pl_undersized <- None;
    Array.iter
      (function
        | In_msg_state r -> r.fslot <- State.field_slot state r.field
        | In_global r -> r.gslot <- State.global_slot state r.name
        | In_zero | In_pkt _ | In_msg_meta_int _ | In_msg_meta_flag _ -> ())
      plan.pl_in;
    Array.iter
      (function
        | Out_msg r -> r.fslot <- State.field_slot state r.field
        | Out_global r -> r.gslot <- State.global_slot state r.name
        | Out_none | Out_pkt _ -> ())
      plan.pl_out;
    Array.iteri
      (fun i (a : P.array_slot) ->
        let live = State.global_array state a.P.a_name in
        plan.pl_live.(i) <- live;
        (match plan.pl_abind.(i) with
        | A_alias -> plan.pl_arrays.(i) <- live
        | A_scratch ->
          if Array.length plan.pl_arrays.(i) <> Array.length live then
            plan.pl_arrays.(i) <- Array.make (Array.length live) 0L);
        if plan.pl_undersized = None && Array.length live < a.P.a_min_len then
          plan.pl_undersized <-
            Some
              (Interp.Undersized_env_array
                 { slot = i; length = Array.length live; min_len = a.P.a_min_len }))
      plan.pl_prog.P.array_slots
  end;
  plan.pl_undersized

(* Copy-in per the plan, into the machine's unboxed I/O slots ([io],
   slot [i] at byte offset [8i]); elided slots keep whatever the slot
   holds (the program provably never reads them, and the plan never
   publishes them).  The message entry is looked up once and kept for
   copy-out.  Metadata-sourced slots are copied only when [md] is not
   the object they were copied from: [Metadata.t] is immutable, those
   slots are read-only (install rejects writable ones), and neither
   engine publishes a read-only slot, so [io] still holds their
   values. *)
let copy_in plan st io pkt md msg_id ~now =
  if plan.pl_msg_in then plan.pl_entry <- State.msg_entry st ~msg:msg_id ~now;
  let e = plan.pl_entry in
  let md_fresh = not (md == plan.pl_md) in
  if md_fresh then plan.pl_md <- md;
  for i = 0 to Array.length plan.pl_in - 1 do
    let off = i lsl 3 in
    match Array.unsafe_get plan.pl_in i with
    | In_zero -> ()
    | In_pkt code -> b64set io off (Int64.of_int (packet_field_by_code pkt code))
    | In_msg_state r -> State.entry_load e r.fslot ~default:r.default io off
    | In_msg_meta_int field ->
      if md_fresh then b64set io off (Metadata.int_field field ~default:0L md)
    | In_msg_meta_flag (field, expected) ->
      if md_fresh then
        b64set io off (if Metadata.str_field_is field ~expected md then 1L else 0L)
    | In_global r -> State.global_load st r.gslot io off
  done;
  for i = 0 to Array.length plan.pl_abind - 1 do
    match plan.pl_abind.(i) with
    | A_scratch ->
      let live = plan.pl_live.(i) in
      Array.blit live 0 plan.pl_arrays.(i) 0 (Array.length live)
    | A_alias -> ()
  done

(* Publish on success only: writable scalars the program stored, copied
   unboxed from [io] into the outputs and the store, plus scratch arrays
   blitted back over the live binding (the binding itself is unchanged,
   so dependent plans need not rebind). *)
let copy_out plan st io out msg_id ~now =
  let e =
    if not plan.pl_msg_out then State.no_entry
    else if plan.pl_msg_in then plan.pl_entry
    else State.msg_entry st ~msg:msg_id ~now
  in
  for i = 0 to Array.length plan.pl_out - 1 do
    let off = i lsl 3 in
    match Array.unsafe_get plan.pl_out i with
    | Out_none -> ()
    | Out_pkt code -> apply_packet_field_code out code io off
    | Out_msg r -> State.entry_store e r.fslot io off
    | Out_global r -> State.global_store st r.gslot io off
  done;
  for i = 0 to Array.length plan.pl_abind - 1 do
    match plan.pl_abind.(i) with
    | A_scratch ->
      let live = plan.pl_live.(i) in
      Array.blit plan.pl_arrays.(i) 0 live 0 (Array.length live)
    | A_alias -> ()
  done
