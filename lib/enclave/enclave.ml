module Addr = Eden_base.Addr
module Packet = Eden_base.Packet
module Metadata = Eden_base.Metadata
module Class_name = Eden_base.Class_name
module Time = Eden_base.Time
module Rng = Eden_base.Rng
module P = Eden_bytecode.Program
module Interp = Eden_bytecode.Interp
module Compiled = Eden_bytecode.Compiled
module Verifier = Eden_bytecode.Verifier
module Opcode = Eden_bytecode.Opcode
module Stage = Eden_stage.Stage
module Builtin = Eden_stage.Builtin
module Tel = Eden_telemetry

type placement = Os | Nic

let placement_to_string = function Os -> "os" | Nic -> "nic"

type decision = Forward of { queue : int option; charge : int } | Dropped of string

(* Mutable per-invocation outputs; applied to the packet after a
   successful run (and only then). *)
type outputs = {
  mutable o_priority : int;
  mutable o_path : int;
  mutable o_drop : bool;
  mutable o_queue : int;
  mutable o_charge : int;
  mutable o_goto : int;
}

let reset_outputs out (pkt : Packet.t) =
  out.o_priority <- pkt.Packet.priority;
  out.o_path <- (match pkt.Packet.route_label with Some l -> l | None -> -1);
  out.o_drop <- false;
  out.o_queue <- -1;
  out.o_charge <- -1;
  out.o_goto <- -1

module Native_ctx = struct
  type t = {
    nc_packet : Packet.t;
    nc_metadata : Metadata.t;
    nc_msg_id : int64;
    nc_now : Time.t;
    nc_rng : Rng.t;
    nc_state : State.t;
    nc_out : outputs;
  }

  let packet t = t.nc_packet
  let metadata t = t.nc_metadata
  let msg_id t = t.nc_msg_id
  let now t = t.nc_now
  let rng t = t.nc_rng
  let msg_get t field ~default =
    State.msg_get t.nc_state ~msg:t.nc_msg_id ~field ~default ~now:t.nc_now
  let msg_set t field v = State.msg_set t.nc_state ~msg:t.nc_msg_id ~field v ~now:t.nc_now
  let global_get t name = State.global_get t.nc_state name
  let global_set t name v = State.global_set t.nc_state name v
  let global_array t name = State.global_array t.nc_state name
  let set_priority t p = t.nc_out.o_priority <- p
  let set_path t p = t.nc_out.o_path <- p
  let set_drop t = t.nc_out.o_drop <- true
  let set_queue t q = t.nc_out.o_queue <- q
  let set_charge t c = t.nc_out.o_charge <- c
end

type impl =
  | Interpreted of P.t
  | Compiled of P.t
  | Native of (Native_ctx.t -> unit)

type msg_field_source =
  | Stateful of int64
  | Metadata_int of string
  | Metadata_flag of string * string

type install_spec = {
  i_name : string;
  i_impl : impl;
  i_msg_sources : (string * msg_field_source) list;
}

(* ------------------------------------------------------------------ *)
(* Configuration.

   An op is the one change to a programmed configuration, and [next] the
   one statement of what it does.  The control channel delivers ops,
   [restore] replays them, and the controller moves its desired
   configuration with [next] as each enclave moves its own. *)

type op =
  | Install_action of install_spec
  | Remove_action of string
  | Add_table
  | Add_rule of { table : int; pattern : Class_name.Pattern.t; action : string }
  | Remove_rule of { table : int; rule_id : int }
  | Set_global of { action : string; name : string; value : int64 }
  | Set_global_array of { action : string; name : string; value : int64 array }
  | Commit_generation

let op_to_string = function
  | Install_action s -> "install_action " ^ s.i_name
  | Remove_action n -> "remove_action " ^ n
  | Add_table -> "add_table"
  | Add_rule r ->
    let pattern = Class_name.Pattern.to_string r.pattern in
    Printf.sprintf "add_rule %s -> %s @%d" pattern r.action r.table
  | Remove_rule r -> Printf.sprintf "remove_rule #%d @%d" r.rule_id r.table
  | Set_global g -> Printf.sprintf "set_global %s.%s" g.action g.name
  | Set_global_array g -> Printf.sprintf "set_global_array %s.%s" g.action g.name
  | Commit_generation -> "commit_generation"

type snapshot = {
  sn_actions : install_spec list;  (* install order *)
  sn_globals : (string * (string * int64) list) list;
  sn_arrays : (string * (string * int64 array) list) list;
  sn_rules : (int * Table.rule list) list;  (* per table, match order *)
}

let empty = { sn_actions = []; sn_globals = []; sn_arrays = []; sn_rules = [ (0, []) ] }

let has_action (sn : snapshot) name =
  List.exists (fun s -> String.equal s.i_name name) sn.sn_actions

(* [action]'s bindings with [name] bound to [v], kept sorted by name as
   in [snapshot]. *)
let bind per_action action name v =
  let rec put = function
    | (n, _) :: rest when String.equal n name -> (name, v) :: rest
    | ((n, _) as b) :: rest when String.compare n name < 0 -> b :: put rest
    | bs -> (name, v) :: bs
  in
  List.map (fun (a, bs) -> if String.equal a action then (a, put bs) else (a, bs)) per_action

let rule_count rules = List.fold_left (fun n (_, rs) -> n + List.length rs) 0 rules

(* [sn] without the rules [drop] picks, and how many it picked. *)
let drop_rules (sn : snapshot) drop =
  let keep id (r : Table.rule) = not (drop id r) in
  let sn_rules = List.map (fun (id, rs) -> (id, List.filter (keep id) rs)) sn.sn_rules in
  ({ sn with sn_rules }, Int64.of_int (rule_count sn.sn_rules - rule_count sn_rules))

(* Why a configuration [sn] refuses [op], if it does. *)
let refusal (sn : snapshot) (op : op) =
  let absent action =
    if has_action sn action then None
    else Some (Printf.sprintf "action %S is not installed" action)
  in
  match op with
  | Install_action { i_name; _ } ->
    if not (has_action sn i_name) then None
    else Some (Printf.sprintf "action %S is already installed" i_name)
  | Add_rule { table; action; _ } -> (
    match absent action with
    | Some _ as refused -> refused
    | None ->
      if List.mem_assoc table sn.sn_rules then None
      else Some (Printf.sprintf "no table %d" table))
  | Set_global { action; _ } | Set_global_array { action; _ } -> absent action
  | Remove_action _ | Add_table | Remove_rule _ | Commit_generation -> None

(* [op] applied to [sn], which does not refuse it. *)
let change (sn : snapshot) (op : op) =
  match op with
  | Install_action spec ->
    let name = spec.i_name in
    ( {
        sn with
        sn_actions = sn.sn_actions @ [ spec ];
        sn_globals = sn.sn_globals @ [ (name, []) ];
        sn_arrays = sn.sn_arrays @ [ (name, []) ];
      },
      0L )
  | Remove_action name ->
    (* Dropping an action drops its rules and state too.  Removing an
       absent one succeeds: removes stay idempotent, so rollback and
       reconciliation can repeat them safely. *)
    let sn, dropped = drop_rules sn (fun _ r -> String.equal r.Table.action name) in
    ( {
        sn with
        sn_actions = List.filter (fun s -> not (String.equal s.i_name name)) sn.sn_actions;
        sn_globals = List.remove_assoc name sn.sn_globals;
        sn_arrays = List.remove_assoc name sn.sn_arrays;
      },
      dropped )
  | Add_table ->
    let id = List.length sn.sn_rules in
    ({ sn with sn_rules = sn.sn_rules @ [ (id, []) ] }, Int64.of_int id)
  | Add_rule { table; pattern; action } ->
    (* Ids count up across all tables, so id order is creation order. *)
    let above acc (r : Table.rule) = max acc (r.Table.rule_id + 1) in
    let rule_id =
      List.fold_left (fun acc (_, rs) -> List.fold_left above acc rs) 0 sn.sn_rules
    in
    let rule = { Table.rule_id; pattern; action } in
    let add (id, rs) = (id, if id = table then Table.insert_sorted rs rule else rs) in
    ({ sn with sn_rules = List.map add sn.sn_rules }, Int64.of_int rule_id)
  | Remove_rule { table; rule_id } ->
    drop_rules sn (fun id r -> id = table && r.Table.rule_id = rule_id)
  | Set_global { action; name; value } ->
    ({ sn with sn_globals = bind sn.sn_globals action name value }, 0L)
  | Set_global_array { action; name; value } ->
    ({ sn with sn_arrays = bind sn.sn_arrays action name (Array.copy value) }, 0L)
  | Commit_generation -> (sn, 0L)

let next sn op = match refusal sn op with Some msg -> Error msg | None -> Ok (change sn op)

type counters = {
  mutable packets : int;
  mutable dropped : int;
  mutable invocations : int;
  mutable native_invocations : int;
  mutable compiled_invocations : int;
  mutable faults : int;
  mutable interp_steps : int;
  mutable quarantined : int;
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable cache_evictions : int;
}

type fault_record = {
  fr_action : string;
  fr_fault : Interp.fault;
  fr_time : Time.t;
}

(* ------------------------------------------------------------------ *)
(* Per-action circuit breaker.

   Fail-open covers a single faulting invocation; a breaker covers a
   faulting *action*: when the fault rate over a sliding window of
   invocations crosses the threshold the action is quarantined — matching
   packets fall through to default forwarding without invoking it — and
   after a cooldown one probe invocation decides between recovery and
   another quarantine period.  Disabled unless {!set_breaker} is called,
   so the default data path is exactly the paper's. *)

type breaker_config = {
  br_window : int;
  br_min_samples : int;
  br_threshold : float;
  br_cooldown : Time.t;
}

let default_breaker =
  { br_window = 32; br_min_samples = 8; br_threshold = 0.5; br_cooldown = Time.us 100 }

type brk_state = Brk_closed | Brk_open of Time.t  (* half-open probe time *) | Brk_half_open

(* Outcome window as a bit queue in an int: newest at the LSB, oldest at
   bit [window - 1]; O(1) per invocation, no allocation. *)
type brk = {
  mutable k_state : brk_state;
  mutable k_hist : int;
  mutable k_count : int;
  mutable k_faults : int;
  mutable k_trips : int;
}

let make_brk () = { k_state = Brk_closed; k_hist = 0; k_count = 0; k_faults = 0; k_trips = 0 }

let brk_reset_window k =
  k.k_hist <- 0;
  k.k_count <- 0;
  k.k_faults <- 0

(* May the action run right now?  Flips Open -> Half_open when the
   cooldown has elapsed, admitting exactly the probe invocation. *)
let brk_admit k ~now =
  match k.k_state with
  | Brk_closed | Brk_half_open -> true
  | Brk_open probe_at ->
    if Time.( >= ) now probe_at then begin
      k.k_state <- Brk_half_open;
      true
    end
    else false

let brk_record k cfg ~now ~faulted =
  match k.k_state with
  | Brk_half_open ->
    if faulted then begin
      k.k_state <- Brk_open (Time.add now cfg.br_cooldown);
      k.k_trips <- k.k_trips + 1
    end
    else k.k_state <- Brk_closed
  | Brk_open _ -> ()
  | Brk_closed ->
    if k.k_count = cfg.br_window then begin
      let oldest = (k.k_hist lsr (cfg.br_window - 1)) land 1 in
      k.k_faults <- k.k_faults - oldest;
      k.k_count <- k.k_count - 1
    end;
    k.k_hist <- ((k.k_hist lsl 1) lor (if faulted then 1 else 0)) land ((1 lsl cfg.br_window) - 1);
    k.k_count <- k.k_count + 1;
    if faulted then k.k_faults <- k.k_faults + 1;
    if
      k.k_count >= cfg.br_min_samples
      && float_of_int k.k_faults >= cfg.br_threshold *. float_of_int k.k_count
    then begin
      k.k_state <- Brk_open (Time.add now cfg.br_cooldown);
      k.k_trips <- k.k_trips + 1;
      brk_reset_window k
    end

(* ------------------------------------------------------------------ *)
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

(* Reads the value from the I/O slot at byte offset [off] itself, so no
   [int64] is passed boxed. *)
let apply_packet_field_code (out : outputs) code io off =
  let v = b64get io off in
  match code with
  | 2 -> out.o_priority <- max 0 (min 7 (Int64.to_int v))
  | 3 -> out.o_path <- Int64.to_int v
  | 10 -> if not (Int64.equal v 0L) then out.o_drop <- true
  | 11 -> out.o_queue <- Int64.to_int v
  | 12 -> out.o_charge <- Int64.to_int v
  | 13 -> out.o_goto <- Int64.to_int v
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Marshal plans.

   The paper's enclave performs copy-in / copy-out around every
   invocation (§3.4.3).  Doing that naively — one [Array.map] over the
   slot tables per packet — allocates fresh environment buffers and
   copies every array on every packet.  A plan is computed once at
   install time from the program's effect footprint:

   - scalar slots the program never [Load]s are not copied in; writable
     slots it never [Store]s are neither copied in nor published (the
     interpreter's publish of an untouched local would only echo the
     input back);
   - read-only array slots — and writable slots with no reachable store
     — alias the live array (the verifier guarantees the program cannot
     write through them);
   - a written array slot gets a persistent scratch buffer: blit-in per
     packet, blit-out only on success, preserving fault isolation.

   Plans cache aliases into the action's live arrays, so they watch
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

let msg_source_of sources name =
  match Hashtbl.find_opt sources name with Some s -> s | None -> Stateful 0L

let make_plan (p : P.t) sources =
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
            match msg_source_of sources s.P.s_name with
            | Stateful default -> In_msg_state { field = s.P.s_name; default; fslot = -1 }
            | Metadata_int field -> In_msg_meta_int field
            | Metadata_flag (field, expected) -> In_msg_meta_flag (field, expected)))
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

(* Resolve every state name the plan touches to its slot in [state];
   re-alias live arrays (and resize scratch buffers) after the
   controller rebinds one via [set_global_array]; also re-check the
   program's [a_min_len] input contract.  Runs
   before the first invocation and again after every array swap. *)
let rebind_plan plan state =
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
  end

type engine =
  | E_bytecode of { machine : Interp.scratch; compiled : Compiled.t option; plan : plan }
      (** Interpreted when [compiled] is [None]; either way the run's
          statistics are read off [machine]. *)
  | E_native of (Native_ctx.t -> unit)

type installed = {
  a_name : string;
  a_state : State.t;
  a_msg_sources : (string, msg_field_source) Hashtbl.t;
  a_engine : engine;
  a_brk : brk;
}

(* A table's resolution of a class, or of a packet's classes, is the
   position in match order of the first rule that matches: [no_rule]
   when none does, [unresolved] while not known. *)
let no_rule = max_int
let unresolved = -1

module Flows = Open_table.Flows
module Class_memo = Open_table.Class_memo

(* A match-action table and its class memo.  [Table.lookup] fires the
   first rule matching any of the packet's classes, so a packet resolves
   to the earliest of its classes' first matches, which the memo keeps
   per class from its first sight. *)
type table = {
  mutable tb_rules : Table.t;  (* built from [e_config] *)
  mutable tb_run : installed array;  (* each rule's action, in match order *)
  tb_memo : Class_memo.t;
  mutable tb_slot : int;  (* the resolution of the slot's classes *)
}

let make_table id =
  {
    tb_rules = Table.make ~id [];
    tb_run = [||];
    tb_memo = Class_memo.create ();
    tb_slot = unresolved;
  }

(* A flow's entry holds its five-tuple, packed, its enclave-assigned
   message id and its flow-stage classes.  The classes are a pure
   function of the five-tuple and the flow stage's rules, so they are
   computed once per flow and kept until the stage's generation moves.
   The lists are shared between flows (hash-consed). *)
type flow = Open_table.flow = {
  f_src : int;
  f_dst : int;
  f_id : int;
  mutable f_classes : Class_name.t list;
}

(* [f_classes] of a flow not classified since it opened or since the
   flow stage's rules last changed; compared with [==]. *)
let unclassified = [ Class_name.v ~stage:"enclave" ~ruleset:"memo" ~name:"UNCLASSIFIED" ]

(* The last packet's front half: consecutive packets of one message carry
   the same (immutable) stage metadata on the same flow, so the merged
   metadata and every table's [tb_slot] are reused while [s_stage_md]
   and [s_flow] stay physically the same.  Whatever changes a flow's
   classes or the tables' resolutions forgets the slot. *)
type slot = {
  mutable s_stage_md : Metadata.t;
  mutable s_flow : flow;
  mutable s_md : Metadata.t;  (* merged *)
}

let no_flow = Flows.vacant

(* Flow-class lists, hash-consed.  The hash mixes every class's
   precomputed hash, so neither hashing nor comparing a list walks the
   class names' strings unless two lists collide. *)
module Vec_tbl = Hashtbl.Make (struct
  type t = Class_name.t list

  let equal = List.equal Class_name.equal
  let hash = List.fold_left (fun h c -> (h * 31) + Class_name.hash c) 0
end)

let fault_ring_capacity = 100

(* The model's running total when the current packet began.  The only
   field is a float, so the record stores it unboxed. *)
type packet_start = { mutable start_ns : float }

type t = {
  e_host : Addr.host;
  e_placement : placement;
  e_seed : int64;
  e_rng : Rng.t;
  e_cache_cap : int;  (* per-table class-memo capacity *)
  e_flow_stage : Stage.t;
  e_flow_ids : Flows.t;
  mutable e_next_flow_id : int;
  mutable e_flow_gen : int;  (* flow-stage generation the [f_classes] memos hold for *)
  e_flow_lists : Class_name.t list Vec_tbl.t;
      (* hash-consed flow-class lists, shared by every flow *)
  e_slot : slot;
  mutable e_config : snapshot;  (* actions and rules; [State] holds the bindings *)
  e_actions : (string, installed) Hashtbl.t;  (* each action's runtime *)
  mutable e_tables : table array;  (* indexed by table id *)
  (* Telemetry: the registry is the directory, the cells below are the
     hot-path storage (one field read + int bump per event, no lookup). *)
  e_tel : Tel.Registry.t;
  m_packets : Tel.Counter.t;
  m_dropped : Tel.Counter.t;
  m_invocations : Tel.Counter.t;
  m_native_invocations : Tel.Counter.t;
  m_compiled_invocations : Tel.Counter.t;
  m_faults : Tel.Counter.t;
  m_interp_steps : Tel.Counter.t;
  m_quarantined : Tel.Counter.t;
  m_cache_hits : Tel.Counter.t;
  m_cache_misses : Tel.Counter.t;
  m_cache_evictions : Tel.Counter.t;
  m_restarts : Tel.Counter.t;
  (* What the cost model charges for, beyond the cells above. *)
  m_api_handoffs : Tel.Counter.t;
  m_classifications : Tel.Counter.t;
  m_marshals : Tel.Counter.t;
  m_compiled_steps : Tel.Counter.t;
  h_process : Tel.Histogram.t;  (* model ns per processed packet *)
  h_exec : Tel.Histogram.t;  (* model engine ns per invocation *)
  mutable e_timing : bool;
  mutable e_trace : Tel.Trace.t option;
  mutable e_trace_armed : bool;  (* current packet is sampled *)
  e_faults : fault_record Tel.Ring.t;  (* newest-first fault log *)
  e_out : outputs;  (* reused across process_one calls *)
  e_cost_model : Cost.model;
  e_packet : packet_start;
  mutable e_budget_ns : float;
  mutable e_enforce : bool;
  mutable e_breaker : breaker_config option;
}

(* The enclave's first flow id; far above any stage-assigned message id so
   the two spaces cannot collide. *)
let flow_id_base = 1 lsl 40

let create ?(placement = Os) ?(seed = 0xEDE1L) ?(flow_cache_capacity = 4096) ~host () =
  if flow_cache_capacity < 1 then
    invalid_arg "Enclave.create: flow_cache_capacity must be positive";
  let tel = Tel.Registry.create () in
  let counter = Tel.Registry.counter tel in
  let histogram = Tel.Registry.histogram tel in
  let t =
    {
      e_host = host;
      e_placement = placement;
      e_seed = seed;
      e_rng = Rng.create (Int64.add seed (Int64.of_int host));
      e_cache_cap = flow_cache_capacity;
      e_flow_stage = Builtin.flow ();
      e_flow_ids = Flows.create ();
      e_next_flow_id = flow_id_base;
      e_flow_gen = -1;
      e_flow_lists = Vec_tbl.create 8;
      e_slot = { s_stage_md = Metadata.empty; s_flow = no_flow; s_md = Metadata.empty };
      e_config = empty;
      e_actions = Hashtbl.create 8;
      e_tables = [| make_table 0 |];
      e_tel = tel;
      m_packets = counter ~help:"Packets processed" "eden_enclave_packets_total";
      m_dropped = counter ~help:"Packets dropped by action decision" "eden_enclave_dropped_total";
      m_invocations = counter ~help:"Action invocations (any engine)" "eden_enclave_invocations_total";
      m_native_invocations =
        counter ~help:"Native action invocations" "eden_enclave_native_invocations_total";
      m_compiled_invocations =
        counter ~help:"Compiled action invocations" "eden_enclave_compiled_invocations_total";
      m_faults = counter ~help:"Faulting invocations (fail-open)" "eden_enclave_faults_total";
      m_interp_steps =
        counter ~help:"Bytecode steps retired by either engine" "eden_enclave_interp_steps_total";
      m_quarantined =
        counter ~help:"Packets that fell through a quarantined action"
          "eden_enclave_quarantined_total";
      m_cache_hits =
        counter ~help:"Table visits resolved from the class memo"
          "eden_enclave_flow_cache_hits_total";
      m_cache_misses =
        counter ~help:"Table visits where some class needed a rule scan"
          "eden_enclave_flow_cache_misses_total";
      m_cache_evictions =
        counter ~help:"Class-memo entries dropped when a table's memo was full"
          "eden_enclave_flow_cache_evictions_total";
      m_restarts = counter ~help:"Enclave restarts" "eden_enclave_restarts_total";
      m_api_handoffs =
        counter ~help:"Stage metadata handed to the enclave" "eden_enclave_api_handoffs_total";
      m_classifications =
        counter ~help:"Enclave classifications charged" "eden_enclave_classifications_total";
      m_marshals =
        counter ~help:"Bytecode environment copy-ins" "eden_enclave_marshals_total";
      m_compiled_steps =
        counter ~help:"Bytecode steps retired by the compiled engine"
          "eden_enclave_compiled_steps_total";
      h_process =
        histogram ~help:"Cost-model Eden-added ns per processed packet"
          "eden_enclave_process_model_ns";
      h_exec =
        histogram ~help:"Cost-model engine ns per invocation" "eden_enclave_exec_model_ns";
      e_timing = true;
      e_trace = None;
      e_trace_armed = false;
      e_faults = Tel.Ring.create fault_ring_capacity;
      e_out =
        {
          o_priority = 0;
          o_path = -1;
          o_drop = false;
          o_queue = -1;
          o_charge = -1;
          o_goto = -1;
        };
      e_cost_model = (match placement with Os -> Cost.os_model | Nic -> Cost.nic_model);
      e_packet = { start_ns = 0.0 };
      e_budget_ns =
        (match placement with Os -> Cost.os_model | Nic -> Cost.nic_model).Cost.budget_ns;
      e_enforce = true;
      e_breaker = None;
    }
  in
  (* The enclave classifies at TCP-flow granularity out of the box (paper
     Table 2, last row): every packet belongs to [enclave.flows.ALL] and
     each transport connection is a message.  The controller may remove
     or refine this rule-set through the stage API. *)
  (match
     Stage.Api.create_stage_rule t.e_flow_stage ~ruleset:"flows" ~classifier:[]
       ~class_name:"ALL" ~metadata_fields:[]
   with
  | Ok _ -> ()
  | Error msg -> invalid_arg ("Enclave.create: " ^ msg));
  t

let host t = t.e_host
let placement t = t.e_placement
let seed t = t.e_seed
let flow_cache_capacity t = t.e_cache_cap
let flow_stage t = t.e_flow_stage
let set_enforce t b = t.e_enforce <- b

(* Deprecated in favour of {!telemetry} / {!scrape}: the registry cells
   are authoritative and this record is a snapshot built from them.
   Kept so existing callers (tests, the shard merge) keep working. *)
let counters t =
  {
    packets = Tel.Counter.get t.m_packets;
    dropped = Tel.Counter.get t.m_dropped;
    invocations = Tel.Counter.get t.m_invocations;
    native_invocations = Tel.Counter.get t.m_native_invocations;
    compiled_invocations = Tel.Counter.get t.m_compiled_invocations;
    faults = Tel.Counter.get t.m_faults;
    interp_steps = Tel.Counter.get t.m_interp_steps;
    quarantined = Tel.Counter.get t.m_quarantined;
    cache_hits = Tel.Counter.get t.m_cache_hits;
    cache_misses = Tel.Counter.get t.m_cache_misses;
    cache_evictions = Tel.Counter.get t.m_cache_evictions;
  }

let faults t = Tel.Ring.to_list t.e_faults
let telemetry t = t.e_tel
let scrape t = Tel.Registry.scrape t.e_tel
let set_timing t b = t.e_timing <- b
let timing t = t.e_timing
let set_trace t tr = t.e_trace <- tr
let trace t = t.e_trace

let cost t =
  let get = Tel.Counter.get and compiled_steps = Tel.Counter.get t.m_compiled_steps in
  { Cost.packets = get t.m_packets; api_handoffs = get t.m_api_handoffs;
    classifications = get t.m_classifications; marshals = get t.m_marshals;
    interp_steps = get t.m_interp_steps - compiled_steps; compiled_steps;
    native_calls = get t.m_native_invocations }

let cost_model t = t.e_cost_model

(* The model's running total, [Cost.overhead_ns] of {!cost}, written
   over the cells so that its per-packet callers, which inline it, build
   no [counts] record and box no float.  [test_enclave] checks that the
   per-packet figures sum exactly to [Cost.overhead_ns]. *)
let[@inline] model_total_ns t =
  let m = t.e_cost_model and get = Tel.Counter.get in
  let compiled = get t.m_compiled_steps in
  (float_of_int (get t.m_api_handoffs) *. m.Cost.api_ns)
  +. ((float_of_int (get t.m_classifications) *. m.Cost.classify_ns)
      +. (float_of_int (get t.m_marshals) *. m.Cost.marshal_ns))
  +. ((float_of_int (get t.m_interp_steps - compiled) *. m.Cost.per_step_ns)
      +. (float_of_int compiled *. m.Cost.compiled_step_ns))
  +. (float_of_int (get t.m_native_invocations) *. m.Cost.native_ns)

let[@inline] last_process_cost_ns t = model_total_ns t -. t.e_packet.start_ns
let budget_ns t = t.e_budget_ns

let set_budget_ns t ns =
  if ns <= 0.0 then invalid_arg "Enclave.set_budget_ns: budget must be positive";
  t.e_budget_ns <- ns

(* The slot keys on [s_flow], which no live flow matches after this. *)
let forget_slot t = t.e_slot.s_flow <- no_flow

(* After any change to actions or table rules: every table is rebuilt
   from [e_config].  Every rule names an installed action: [next] refuses
   any other and drops a removed action's rules. *)
let invalidate_memos t =
  List.iter
    (fun (id, rules) ->
      let tb = t.e_tables.(id) in
      Class_memo.clear tb.tb_memo;
      tb.tb_rules <- Table.make ~id rules;
      let action (r : Table.rule) = Hashtbl.find t.e_actions r.Table.action in
      tb.tb_run <- Array.of_list (List.map action rules))
    t.e_config.sn_rules;
  forget_slot t

(* The runtime's half of an op that [next] took to [config]: only the
   part the op reaches changes.  An installed action's engine is already
   in [e_actions]; the bindings stay in [State]. *)
let commit t op config =
  t.e_config <- { config with sn_globals = []; sn_arrays = [] };
  let state action = (Hashtbl.find t.e_actions action).a_state in
  match op with
  | Install_action _ | Add_rule _ | Remove_rule _ -> invalidate_memos t
  | Remove_action name ->
    Hashtbl.remove t.e_actions name;
    invalidate_memos t
  | Add_table ->
    t.e_tables <- Array.append t.e_tables [| make_table (Array.length t.e_tables) |]
  | Set_global { action; name; value } -> State.global_set (state action) name value
  | Set_global_array { action; name; value } ->
    State.global_array_set (state action) name (Array.copy value)
  | Commit_generation -> ()

(* ------------------------------------------------------------------ *)
(* Enclave API *)

type install_error =
  | Already_installed of string
  | Rejected_bytecode of Verifier.error
  | Over_budget of { est_ns : float; budget_ns : float; steps : int }
  | Bad_contract of string list

let install_error_to_string = function
  | Already_installed name -> Printf.sprintf "action %S already installed" name
  | Rejected_bytecode e -> Verifier.error_to_string e
  | Over_budget { est_ns; budget_ns; steps } ->
    Printf.sprintf
      "worst-case cost %.0f ns (%d steps) exceeds the enclave budget of %.0f ns" est_ns
      steps budget_ns
  | Bad_contract problems -> String.concat "; " problems

let pp_install_error fmt e = Format.pp_print_string fmt (install_error_to_string e)

(* Contract and budget validation shared by both bytecode engines. *)
let validate_bytecode t sources ~per_step_ns (p : P.t) =
  match Verifier.verify p with
  | Error e -> Error (Rejected_bytecode e)
  | Ok () ->
    let problems = ref [] in
    Array.iter
      (fun (s : P.scalar_slot) ->
        match s.P.s_entity with
        | P.Packet ->
          if packet_field_code s.P.s_name < 0 then
            problems := Printf.sprintf "unknown packet field %S" s.P.s_name :: !problems
          else if s.P.s_access = P.Read_write && not (packet_field_writable s.P.s_name)
          then
            problems :=
              Printf.sprintf "packet field %S is not writable" s.P.s_name :: !problems
        | P.Message -> (
          match Hashtbl.find_opt sources s.P.s_name with
          | Some (Metadata_int _ | Metadata_flag _) when s.P.s_access = P.Read_write ->
            problems :=
              Printf.sprintf "metadata-sourced message field %S cannot be writable"
                s.P.s_name
              :: !problems
          | Some _ | None -> ())
        | P.Global -> ())
      p.P.scalar_slots;
    Array.iter
      (fun (a : P.array_slot) ->
        match a.P.a_entity with
        | P.Global -> ()
        | P.Packet | P.Message ->
          problems :=
            Printf.sprintf "array %S: only global arrays are supported" a.P.a_name
            :: !problems)
      p.P.array_slots;
    (match !problems with
    | _ :: _ as ps -> Error (Bad_contract ps)
    | [] ->
      let steps = Cost.admission_steps p in
      let est_ns = Cost.admission_ns t.e_cost_model ~per_step_ns ~steps in
      if est_ns > t.e_budget_ns then
        Error (Over_budget { est_ns; budget_ns = t.e_budget_ns; steps })
      else Ok ())

let install_action_full t spec =
  match next t.e_config (Install_action spec) with
  | Error _ -> Error (Already_installed spec.i_name)
  | Ok (config, _) -> (
    let sources = Hashtbl.create 8 in
    List.iter (fun (name, src) -> Hashtbl.replace sources name src) spec.i_msg_sources;
    let build () =
      match spec.i_impl with
      | Native f -> Ok (E_native f)
      | Interpreted p -> (
        match validate_bytecode t sources ~per_step_ns:t.e_cost_model.Cost.per_step_ns p with
        | Error _ as e -> e
        | Ok () ->
          let machine = Interp.make_scratch p in
          Ok (E_bytecode { machine; compiled = None; plan = make_plan p sources }))
      | Compiled p -> (
        match
          validate_bytecode t sources ~per_step_ns:t.e_cost_model.Cost.compiled_step_ns p
        with
        | Error _ as e -> e
        | Ok () -> (
          match Compiled.compile p with
          | Error e -> Error (Rejected_bytecode e)
          | Ok c ->
            let machine = Compiled.machine c in
            Ok (E_bytecode { machine; compiled = Some c; plan = make_plan p sources })))
    in
    match build () with
    | Error _ as e -> e
    | Ok engine ->
      Hashtbl.replace t.e_actions spec.i_name
        {
          a_name = spec.i_name;
          a_state = State.create ();
          a_msg_sources = sources;
          a_engine = engine;
          a_brk = make_brk ();
        };
      commit t (Install_action spec) config;
      Ok ())

let install_action t spec =
  Result.map_error install_error_to_string (install_action_full t spec)

let apply t op : (int64, string) result =
  match op with
  | Install_action spec -> Result.map (fun () -> 0L) (install_action t spec)
  | _ -> (
    match next t.e_config op with
    | Error _ as refused -> refused
    | Ok (config, payload) ->
      commit t op config;
      Ok payload)

let remove_action t name =
  if not (Hashtbl.mem t.e_actions name) then None
  else Some (Int64.to_int (Result.get_ok (apply t (Remove_action name))))

let action_names t = Hashtbl.fold (fun k _ acc -> k :: acc) t.e_actions [] |> List.sort compare
let add_table t = Int64.to_int (Result.get_ok (apply t Add_table))

let add_table_rule t ?(table = 0) ~pattern ~action () =
  Result.map Int64.to_int (apply t (Add_rule { table; pattern; action }))

let remove_table_rule t ?(table = 0) rule_id = apply t (Remove_rule { table; rule_id }) = Ok 1L
let tables t = Array.to_list (Array.map (fun tb -> tb.tb_rules) t.e_tables)

let set_global t ~action name value =
  Result.map ignore (apply t (Set_global { action; name; value }))

let get_global t ~action name =
  match Hashtbl.find_opt t.e_actions action with
  | None -> None
  | Some a -> Some (State.global_get a.a_state name)

let set_global_array t ~action name value =
  Result.map ignore (apply t (Set_global_array { action; name; value }))

let get_global_array t ~action name =
  match Hashtbl.find_opt t.e_actions action with
  | None -> None
  | Some a -> Some (State.global_array a.a_state name)

let action_program t name =
  match Hashtbl.find_opt t.e_actions name with
  | None -> None
  | Some a -> (
    match a.a_engine with
    | E_bytecode { plan; _ } -> Some plan.pl_prog
    | E_native _ -> None)

(* Native actions have opaque effects, so they run serially. *)
let concurrency_of t name =
  if not (Hashtbl.mem t.e_actions name) then None
  else
    match action_program t name with
    | Some p -> Some (P.footprint p).P.concurrency
    | None -> Some `Serial

let action_state t name =
  Option.map (fun a -> a.a_state) (Hashtbl.find_opt t.e_actions name)

(* ------------------------------------------------------------------ *)
(* Graceful degradation: breaker configuration *)

let set_breaker t cfg =
  (match cfg with
  | None -> ()
  | Some c ->
    if c.br_window < 1 || c.br_window > 62 then
      invalid_arg "Enclave.set_breaker: window must be in [1, 62]";
    if c.br_min_samples < 1 || c.br_min_samples > c.br_window then
      invalid_arg "Enclave.set_breaker: min_samples must be in [1, window]";
    if c.br_threshold <= 0.0 || c.br_threshold > 1.0 then
      invalid_arg "Enclave.set_breaker: threshold must be in (0, 1]");
  t.e_breaker <- cfg;
  Hashtbl.iter
    (fun _ a ->
      a.a_brk.k_state <- Brk_closed;
      brk_reset_window a.a_brk)
    t.e_actions

let breaker t = t.e_breaker

let breaker_state t name =
  match (t.e_breaker, Hashtbl.find_opt t.e_actions name) with
  | None, _ | _, None -> None
  | Some _, Some a ->
    Some
      (match a.a_brk.k_state with
      | Brk_closed -> `Closed
      | Brk_open _ -> `Open
      | Brk_half_open -> `Half_open)

let breaker_trips t name =
  match Hashtbl.find_opt t.e_actions name with None -> 0 | Some a -> a.a_brk.k_trips

(* ------------------------------------------------------------------ *)
(* Restart, snapshot and diff.

   Everything the controller pushed — actions, rules, state — plus
   everything the data path accumulated is *soft* state: a host reboot
   loses it all, and the consistency story of §2.2 only holds if the
   controller can re-converge such an enclave.  [restart] models the
   reboot honestly (wipe, not simulate).  A [snapshot] is the programmed
   configuration as a value; [diff] is the op list that takes one
   snapshot's enclave to another's, which is both the controller's
   reconciliation repair and [restore]'s replay.  The five-tuple flow
   stage's built-in ALL rule is firmware, not pushed state; it survives
   restart by reconstruction in [create] and here. *)

(* [e_config] with each action's bindings read from its [State]. *)
let snapshot t =
  let per_action f =
    List.map
      (fun s -> (s.i_name, f (Hashtbl.find t.e_actions s.i_name).a_state))
      t.e_config.sn_actions
  in
  let copied = List.map (fun (n, arr) -> (n, Array.copy arr)) in
  {
    t.e_config with
    sn_globals = per_action State.global_bindings;
    sn_arrays = per_action (fun st -> copied (State.global_array_bindings st));
  }

let restarts t = Tel.Counter.get t.m_restarts

let restart t =
  let restarts = restarts t + 1 in
  t.e_config <- empty;
  Hashtbl.reset t.e_actions;
  t.e_tables <- [| make_table 0 |];
  Flows.reset t.e_flow_ids;
  Vec_tbl.reset t.e_flow_lists;
  t.e_next_flow_id <- flow_id_base;
  forget_slot t;
  Tel.Registry.reset t.e_tel;
  (* Restart count survives the reboot (it identifies the incarnation). *)
  Tel.Counter.set t.m_restarts restarts;
  Tel.Ring.clear t.e_faults;
  (match t.e_trace with Some tr -> Tel.Trace.clear tr | None -> ());
  t.e_trace_armed <- false;
  t.e_packet.start_ns <- 0.0

(* What identifies an action: native closures cannot be compared, so an
   action is its name, engine kind and program name, and message
   sources. *)
let action_key s =
  let impl =
    match s.i_impl with
    | Interpreted p -> "interpreted:" ^ p.P.name
    | Compiled p -> "compiled:" ^ p.P.name
    | Native _ -> "native"
  in
  (s.i_name, impl, List.sort compare s.i_msg_sources)

(* What identifies a rule: its pattern and action.  Rule ids are
   allocation artifacts, not configuration. *)
let same_rule (a : Table.rule) (b : Table.rule) =
  String.equal a.Table.action b.Table.action
  && String.equal
       (Class_name.Pattern.to_string a.Table.pattern)
       (Class_name.Pattern.to_string b.Table.pattern)

(* The two rule lists past their longest common prefix. *)
let rec past_common_prefix xs ys =
  match (xs, ys) with
  | x :: xs', y :: ys' when same_rule x y -> past_common_prefix xs' ys'
  | _ -> (xs, ys)

(* The repair order matters: extra rules go before extra actions
   (removing an action drops its rules), tables and missing actions
   before their state and rules (the enclave refuses rules and state for
   unknown actions, so a rule can never route to a half-installed
   action).  Missing rules go table by table, each in match order. *)
let diff ~desired ~actual =
  let keys sn = List.map action_key sn.sn_actions in
  let desired_keys = keys desired and actual_keys = keys actual in
  let missing_actions =
    List.filter (fun s -> not (List.mem (action_key s) actual_keys)) desired.sn_actions
  in
  let extra_actions =
    List.filter (fun s -> not (List.mem (action_key s) desired_keys)) actual.sn_actions
  in
  (* A same-named action held under another key is replaced: removing it
     drops its rules and state, so those do not count as present. *)
  let kept name = not (List.exists (fun s -> String.equal s.i_name name) extra_actions) in
  (* A table's rules are compared as a sequence in match order:
     equal-specificity rules match in insertion order, so the same rules
     in another order route packets differently.  From the first
     position where the sequences differ, the actual rules are removed
     and the desired ones re-added in order, which [Table.insert_sorted]
     puts back in exactly that order. *)
  let table_rules sn table = Option.value ~default:[] (List.assoc_opt table sn.sn_rules) in
  let tables = List.sort_uniq Int.compare (List.map fst (actual.sn_rules @ desired.sn_rules)) in
  let extra_rules, missing_rules =
    List.split
      (List.map
         (fun table ->
           let extra, missing =
             past_common_prefix
               (List.filter (fun r -> kept r.Table.action) (table_rules actual table))
               (table_rules desired table)
           in
           (List.map (fun r -> (table, r)) extra, List.map (fun r -> (table, r)) missing))
         tables)
  in
  let extra_rules = List.concat extra_rules and missing_rules = List.concat missing_rules in
  (* Only the bindings [desired] holds are compared: state an action
     writes at run time is not configuration. *)
  let stale bindings =
    List.concat_map
      (fun (action, bs) ->
        let have =
          if kept action then Option.value ~default:[] (List.assoc_opt action (bindings actual))
          else []
        in
        List.filter_map
          (fun (name, v) ->
            if List.assoc_opt name have = Some v then None else Some (action, name, v))
          bs)
      (bindings desired)
  in
  List.concat
    [
      List.map (fun (table, r) -> Remove_rule { table; rule_id = r.Table.rule_id }) extra_rules;
      List.map (fun s -> Remove_action s.i_name) extra_actions;
      List.init (max 0 (List.length desired.sn_rules - List.length actual.sn_rules)) (fun _ ->
          Add_table);
      List.map (fun s -> Install_action s) missing_actions;
      List.map
        (fun (action, name, value) -> Set_global { action; name; value })
        (stale (fun sn -> sn.sn_globals));
      List.map
        (fun (action, name, value) -> Set_global_array { action; name; value })
        (stale (fun sn -> sn.sn_arrays));
      List.map
        (fun (table, (r : Table.rule)) ->
          Add_rule { table; pattern = r.Table.pattern; action = r.Table.action })
        missing_rules;
    ]

let restore t sn =
  restart t;
  let rec replay = function
    | [] -> Ok ()
    | op :: rest -> ( match apply t op with Ok _ -> replay rest | Error m -> Error m)
  in
  replay (diff ~desired:sn ~actual:(snapshot t))

let config_equal a b = diff ~desired:a ~actual:b = [] && diff ~desired:b ~actual:a = []

(* ------------------------------------------------------------------ *)
(* Data path *)

let flow_entry t five_tuple =
  let f = Flows.find t.e_flow_ids five_tuple in
  if f != Flows.vacant then f
  else begin
    let id = t.e_next_flow_id in
    t.e_next_flow_id <- id + 1;
    Flows.add t.e_flow_ids five_tuple ~id ~classes:unclassified
  end

(* The flow's flow-stage classes, classified on first use.  Any rule
   change at the flow stage (through its API or directly on one of its
   rule-sets) moves its generation, which drops every flow's memo. *)
let flow_classes t five_tuple f =
  let gen = Stage.generation t.e_flow_stage in
  if gen <> t.e_flow_gen then begin
    Flows.iter (fun f -> f.f_classes <- unclassified) t.e_flow_ids;
    Vec_tbl.reset t.e_flow_lists;
    forget_slot t;
    t.e_flow_gen <- gen
  end;
  if f.f_classes == unclassified then begin
    let cs = Stage.classes_of_row t.e_flow_stage (Builtin.flow_row five_tuple) in
    f.f_classes <-
      (match Vec_tbl.find t.e_flow_lists cs with
      | shared -> shared
      | exception Not_found ->
        Vec_tbl.add t.e_flow_lists cs cs;
        cs)
  end;
  f.f_classes

let record_fault t action fault now =
  Tel.Counter.inc t.m_faults;
  Tel.Ring.push t.e_faults { fr_action = action; fr_fault = fault; fr_time = now }

(* Copy-in per the plan, into the machine's unboxed I/O slots ([io],
   slot [i] at byte offset [8i]); elided slots keep whatever the slot
   holds (the program provably never reads them, and the plan never
   publishes them).  The message entry is looked up once and kept for
   copy-out.  Metadata-sourced slots are copied only when [md] is not
   the object they were copied from: [Metadata.t] is immutable, those
   slots are read-only (install rejects writable ones), and neither
   engine publishes a read-only slot, so [io] still holds their
   values. *)
let marshal_in a plan io pkt md msg_id ~now =
  let st = a.a_state in
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
let marshal_out a plan io out msg_id ~now =
  let st = a.a_state in
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

(* One runner for both bytecode engines: rebind and copy in, run the
   machine through its unboxed entry (the compiled code when there is
   one), read the steps off it, then record the fault or publish.  The
   engine kind picks the per-step cost here: a [float] argument would be
   boxed at every call. *)
let run_bytecode t a ~machine ~compiled plan pkt md msg_id out ~now =
  rebind_plan plan a.a_state;
  match plan.pl_undersized with
  | Some fault -> record_fault t a.a_name fault now
  | None -> (
    let io = machine.Interp.io in
    marshal_in a plan io pkt md msg_id ~now;
    Tel.Counter.inc t.m_marshals;
    let arrays = plan.pl_arrays and rng = t.e_rng in
    let fault =
      match compiled with
      | Some c ->
        Tel.Counter.inc t.m_compiled_invocations;
        Compiled.invoke c ~arrays ~now ~rng
      | None -> Interp.invoke ~scratch:machine plan.pl_prog ~arrays ~now ~rng
    in
    let steps = machine.Interp.steps in
    let is_compiled = Option.is_some compiled in
    let m = t.e_cost_model in
    Tel.Counter.add t.m_interp_steps steps;
    if is_compiled then Tel.Counter.add t.m_compiled_steps steps;
    if t.e_timing then
      Tel.Histogram.observe t.h_exec
        (int_of_float
           (float_of_int steps
           *. if is_compiled then m.Cost.compiled_step_ns else m.Cost.per_step_ns));
    match fault with
    | Some fault -> record_fault t a.a_name fault now
    | None -> marshal_out a plan io out msg_id ~now)

let run_native t a f pkt md msg_id out ~now =
  Tel.Counter.inc t.m_native_invocations;
  if t.e_timing then
    Tel.Histogram.observe t.h_exec (int_of_float t.e_cost_model.Cost.native_ns);
  let ctx =
    {
      Native_ctx.nc_packet = pkt;
      nc_metadata = md;
      nc_msg_id = msg_id;
      nc_now = now;
      nc_rng = t.e_rng;
      nc_state = a.a_state;
      nc_out = out;
    }
  in
  f ctx

let max_table_hops = 8

let dispatch_engine t a pkt md msg_id out ~now =
  match a.a_engine with
  | E_bytecode { machine; compiled; plan } ->
    run_bytecode t a ~machine ~compiled plan pkt md msg_id out ~now
  | E_native f -> run_native t a f pkt md msg_id out ~now

(* When the current packet is sampled by the flight recorder, bracket the
   engine with model-total reads to attribute the action stage. *)
let invoke_traced t a pkt md msg_id out ~now =
  if not t.e_trace_armed then dispatch_engine t a pkt md msg_id out ~now
  else begin
    let before = model_total_ns t in
    dispatch_engine t a pkt md msg_id out ~now;
    match t.e_trace with
    | Some tr -> Tel.Trace.set_action tr a.a_name (model_total_ns t -. before)
    | None -> ()
  end

(* The position of class [c]'s first matching rule, counting from
   [pos]. *)
let rec first_match c pos = function
  | [] -> no_rule
  | (r : Table.rule) :: rest ->
    if Class_name.Pattern.matches r.Table.pattern c then pos else first_match c (pos + 1) rest

(* A full memo is cleared; its entries count as evictions. *)
let memoise t tb c pos =
  let n = Class_memo.length tb.tb_memo in
  if n >= t.e_cache_cap then begin
    Tel.Counter.add t.m_cache_evictions n;
    Class_memo.clear tb.tb_memo
  end;
  Class_memo.add tb.tb_memo c pos

(* The earliest of the classes' first matches, each from the memo or
   scanned on first sight.  Counts one hit, or one miss when some class
   needed a scan.  Top level, so the slot-miss path builds no closure. *)
let rec resolve t tb classes best missed =
  match classes with
  | [] ->
    Tel.Counter.inc (if missed then t.m_cache_misses else t.m_cache_hits);
    best
  | c :: rest ->
    let pos = Class_memo.find tb.tb_memo c in
    if pos >= 0 then resolve t tb rest (if pos < best then pos else best) missed
    else begin
      let pos = first_match c 0 (Table.rules tb.tb_rules) in
      memoise t tb c pos;
      resolve t tb rest (if pos < best then pos else best) true
    end

(* Table walk: a table's resolution of the slot's classes — which rule
   fires, and so which installed action runs — is invariant until the
   slot moves or the controller changes the rule or action set, so the
   steady-state lookup is one read of [tb_slot], with no hashing, list
   scan or pattern match. *)
let rec walk t ~now pkt md msg_id classes out table_id hops =
  if hops < max_table_hops && table_id >= 0 && table_id < Array.length t.e_tables then begin
    let tb = t.e_tables.(table_id) in
    if tb.tb_slot = unresolved then tb.tb_slot <- resolve t tb classes no_rule false
    else Tel.Counter.inc t.m_cache_hits;
    if tb.tb_slot <> no_rule then begin
      let a = tb.tb_run.(tb.tb_slot) in
      match t.e_breaker with
      | None ->
        Tel.Counter.inc t.m_invocations;
        out.o_goto <- -1;
        invoke_traced t a pkt md msg_id out ~now;
        if out.o_goto >= 0 && out.o_goto <> table_id then
          walk t ~now pkt md msg_id classes out out.o_goto (hops + 1)
      | Some cfg ->
        (* Quarantined action: matching packets fall through to default
           forwarding — [out] keeps its reset values, exactly as if no
           rule had matched (fail-open, but for the whole action). *)
        if not (brk_admit a.a_brk ~now) then Tel.Counter.inc t.m_quarantined
        else begin
          Tel.Counter.inc t.m_invocations;
          out.o_goto <- -1;
          let faults_before = Tel.Counter.get t.m_faults in
          invoke_traced t a pkt md msg_id out ~now;
          brk_record a.a_brk cfg ~now
            ~faulted:(Tel.Counter.get t.m_faults > faults_before);
          if out.o_goto >= 0 && out.o_goto <> table_id then
            walk t ~now pkt md msg_id classes out out.o_goto (hops + 1)
        end
    end
  end

(* Close a sampled packet's trace record. *)
let finish_trace t verdict =
  if t.e_trace_armed then begin
    (match t.e_trace with
    | Some tr -> Tel.Trace.finish tr ~verdict ~total_ns:(last_process_cost_ns t)
    | None -> ());
    t.e_trace_armed <- false
  end

(* [charge_classify] is false for the non-leading packets of a batch
   message group: batching amortizes classification and the metadata
   handoff (paper 6, "Cycle budget"), not the action function itself. *)
let process_one t ~now ~charge_classify (pkt : Packet.t) =
  let start = t.e_packet in
  start.start_ns <- model_total_ns t;
  Tel.Counter.inc t.m_packets;
  (match t.e_trace with
  | Some tr -> t.e_trace_armed <- Tel.Trace.begin_packet tr ~now ~pkt_id:pkt.Packet.id
  | None -> ());
  let stage_md = pkt.Packet.metadata in
  (match Metadata.msg_id stage_md with
  | Some _ when charge_classify -> Tel.Counter.inc t.m_api_handoffs
  | Some _ | None -> ());
  (* Enclave's own classification: the five-tuple stage, memoised per
     flow. *)
  if charge_classify then Tel.Counter.inc t.m_classifications;
  let flow = flow_entry t pkt.Packet.flow in
  let flow_classes = flow_classes t pkt.Packet.flow flow in
  let slot = t.e_slot in
  (* The merged metadata is [union] of the flow stage's and the stage's:
     stage metadata wins on conflicts (its msg id identifies the
     application message); flow classes are merged in.  Table lookups
     ignore class order, so the classes are taken as stored, newest
     first. *)
  if not (slot.s_flow == flow && slot.s_stage_md == stage_md) then begin
    slot.s_stage_md <- stage_md;
    slot.s_flow <- flow;
    slot.s_md <- Metadata.merge_flow ~msg_id:(Int64.of_int flow.f_id) flow_classes stage_md;
    for i = 0 to Array.length t.e_tables - 1 do
      t.e_tables.(i).tb_slot <- unresolved
    done
  end;
  let md = slot.s_md in
  (* [merge_flow] always sets a message id. *)
  let msg_id = Option.get (Metadata.msg_id md) in
  pkt.Packet.metadata <- md;
  (if t.e_trace_armed then
     match t.e_trace with
     | Some tr -> Tel.Trace.set_classify tr (model_total_ns t -. start.start_ns)
     | None -> ());
  let out = t.e_out in
  reset_outputs out pkt;
  let walk_before = if t.e_trace_armed then model_total_ns t else 0.0 in
  walk t ~now pkt md msg_id (Metadata.classes_rev md) out 0 0;
  if t.e_timing then Tel.Histogram.observe t.h_process (int_of_float (last_process_cost_ns t));
  (if t.e_trace_armed then
     match t.e_trace with
     | Some tr ->
       (* Match stage: walk time not attributed to the action engine
          (table/cache resolution plus per-packet bookkeeping). *)
       let walk_ns = model_total_ns t -. walk_before in
       let residual = walk_ns -. Tel.Trace.current_action_ns tr in
       Tel.Trace.set_match tr (if residual > 0.0 then residual else 0.0)
     | None -> ());
  if not t.e_enforce then begin
    finish_trace t Tel.Trace.Forwarded;
    Forward { queue = None; charge = Packet.wire_size pkt }
  end
  else if out.o_drop then begin
    Tel.Counter.inc t.m_dropped;
    finish_trace t Tel.Trace.Dropped;
    Dropped "action function set Drop"
  end
  else begin
    pkt.Packet.priority <- out.o_priority;
    if out.o_path >= 0 then pkt.Packet.route_label <- Some out.o_path;
    let queue = if out.o_queue >= 0 then Some out.o_queue else None in
    let charge = if out.o_charge >= 0 then out.o_charge else Packet.wire_size pkt in
    if t.e_trace_armed then
      finish_trace t
        (if out.o_queue >= 0 then Tel.Trace.Queued out.o_queue else Tel.Trace.Forwarded);
    Forward { queue; charge }
  end

let process t ~now pkt = process_one t ~now ~charge_classify:true pkt

(* Batch processing (paper 6): split the batch into runs of packets that
   belong to the same message, amortizing per-packet classification and
   metadata handoff over each run.  Action-function semantics (state
   updates, outputs) stay strictly per packet and in order. *)
let process_batch t ~now pkts =
  (* The group key lives in two immediate ints (a tag plus the message
     id truncated to 63 bits, or the flow hash) so keying a packet
     allocates nothing; a truncation collision could at worst merge two
     charge groups, never change a decision.  [process_one] reuses the
     per-enclave invocation environment, so the whole batched path runs
     without per-packet environment allocation. *)
  let prev_tag = ref 0 (* 0 = start of batch, 1 = message id, 2 = flow hash *)
  and prev_key = ref 0 in
  List.map
    (fun (pkt : Packet.t) ->
      let id = Metadata.msg_id pkt.Packet.metadata in
      let tag = match id with Some _ -> 1 | None -> 2 in
      let key =
        match id with
        | Some id -> Int64.to_int id
        | None -> Addr.hash_five_tuple pkt.Packet.flow
      in
      let charge_classify = tag <> !prev_tag || key <> !prev_key in
      prev_tag := tag;
      prev_key := key;
      process_one t ~now ~charge_classify pkt)
    pkts

(* The message id rides in [fold]'s accumulator, so ending a message
   builds no closure. *)
let end_message _ a msg =
  State.msg_end a.a_state ~msg;
  msg

let note_message_end t ~msg_id = ignore (Hashtbl.fold end_message t.e_actions msg_id)

let note_flow_closed t five_tuple =
  let f = Flows.remove t.e_flow_ids five_tuple in
  if f != Flows.vacant then begin
    if t.e_slot.s_flow == f then forget_slot t;
    note_message_end t ~msg_id:(Int64.of_int f.f_id)
  end

let expire_messages t ~now ~idle =
  Hashtbl.fold (fun _ a acc -> acc + State.expire a.a_state ~now ~idle) t.e_actions 0
