module Addr = Eden_base.Addr
module Packet = Eden_base.Packet
module Metadata = Eden_base.Metadata
module Class_name = Eden_base.Class_name
module Time = Eden_base.Time
module Rng = Eden_base.Rng
module P = Eden_bytecode.Program
module Interp = Eden_bytecode.Interp
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

let proto_code = function Addr.Tcp -> 6L | Addr.Udp -> 17L

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

let packet_field_by_code (pkt : Packet.t) = function
  | 0 -> Int64.of_int (Packet.wire_size pkt)
  | 1 -> Int64.of_int pkt.Packet.payload
  | 2 -> Int64.of_int pkt.Packet.priority
  | 3 -> (match pkt.Packet.route_label with Some l -> Int64.of_int l | None -> -1L)
  | 4 -> Int64.of_int pkt.Packet.flow.Addr.src.Addr.host
  | 5 -> Int64.of_int pkt.Packet.flow.Addr.src.Addr.port
  | 6 -> Int64.of_int pkt.Packet.flow.Addr.dst.Addr.host
  | 7 -> Int64.of_int pkt.Packet.flow.Addr.dst.Addr.port
  | 8 -> proto_code pkt.Packet.flow.Addr.proto
  | 9 -> if Packet.is_data pkt then 1L else 0L
  | 10 -> 0L
  | 11 | 12 | 13 -> -1L
  | _ -> 0L

let packet_field_writable = function
  | "Priority" | "Path" | "Drop" | "Queue" | "Charge" | "GotoTable" -> true
  | _ -> false

let apply_packet_field_code (out : outputs) code v =
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
   - a written array slot of a program {!Wcet.fault_free} proved unable
     to fault runs in place against the live array, eliding both blits;
   - otherwise the slot gets a persistent scratch buffer: blit-in per
     packet, blit-out only on success, preserving fault isolation.

   Plans cache aliases into the action's live arrays, so they watch
   {!State.array_version} and rebind when the controller swaps an array
   binding. *)

type scalar_in =
  | In_zero  (** Never read by the program: skip the copy-in. *)
  | In_pkt of int
  | In_msg_state of string * int64  (** field, default *)
  | In_msg_meta_int of string
  | In_msg_meta_flag of string * string
  | In_global of string

type scalar_out =
  | Out_none
  | Out_pkt of int
  | Out_msg of string
  | Out_global of string

type array_kind =
  | A_alias  (** Read-only (or never written): share the live array. *)
  | A_inplace  (** Written but fault-free: run directly on the live array. *)
  | A_scratch  (** Written, may fault: copy via a persistent scratch buffer. *)

type plan = {
  pl_prog : P.t;
  pl_in : scalar_in array;  (* per scalar slot *)
  pl_out : scalar_out array;  (* per scalar slot *)
  pl_abind : array_kind array;  (* per array slot *)
  pl_scalars : int64 array;  (* preallocated env.scalars *)
  pl_arrays : int64 array array;  (* preallocated env.arrays *)
  pl_live : int64 array array;  (* live aliases for scratch blits *)
  pl_env : Interp.env;
  mutable pl_version : int;  (* State.array_version at last rebind *)
  mutable pl_undersized : Interp.fault option;  (* checked at rebind *)
}

let msg_source_of sources name =
  match Hashtbl.find_opt sources name with Some s -> s | None -> Stateful 0L

let make_plan (p : P.t) sources =
  (* Two slots sharing one local would make per-slot elision ambiguous;
     [shared_local] falls back to copying everything (the verifier does
     not forbid it, but no compiler emits it). *)
  let fp = P.footprint p in
  let n_scalars = Array.length p.P.scalar_slots in
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
          | P.Global -> In_global s.P.s_name
          | P.Message -> (
            match msg_source_of sources s.P.s_name with
            | Stateful default -> In_msg_state (s.P.s_name, default)
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
          | P.Message -> Out_msg s.P.s_name
          | P.Global -> Out_global s.P.s_name)
      p.P.scalar_slots
  in
  let fault_free = lazy (Eden_bytecode.Wcet.fault_free p) in
  let name_count name =
    Array.fold_left
      (fun acc (a : P.array_slot) -> if String.equal a.P.a_name name then acc + 1 else acc)
      0 p.P.array_slots
  in
  let pl_abind =
    Array.mapi
      (fun i (a : P.array_slot) ->
        if a.P.a_access = P.Read_only || not fp.P.array_stores.(i) then A_alias
        else if Lazy.force fault_free && name_count a.P.a_name = 1 then A_inplace
        else A_scratch)
      p.P.array_slots
  in
  let pl_scalars = Array.make n_scalars 0L in
  let pl_arrays = Array.make n_arrays [||] in
  {
    pl_prog = p;
    pl_in;
    pl_out;
    pl_abind;
    pl_scalars;
    pl_arrays;
    pl_live = Array.make n_arrays [||];
    pl_env = { Interp.scalars = pl_scalars; arrays = pl_arrays };
    pl_version = -1;  (* force a rebind before the first invocation *)
    pl_undersized = None;
  }

(* Re-alias live arrays (and resize scratch buffers) after the
   controller rebinds one via [set_global_array]; also re-check the
   [a_min_len] promises the program's bounds proofs rely on. *)
let rebind_plan plan state =
  let v = State.array_version state in
  if plan.pl_version <> v then begin
    plan.pl_version <- v;
    plan.pl_undersized <- None;
    Array.iteri
      (fun i (a : P.array_slot) ->
        let live = State.global_array state a.P.a_name in
        plan.pl_live.(i) <- live;
        (match plan.pl_abind.(i) with
        | A_alias | A_inplace -> plan.pl_arrays.(i) <- live
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
  | E_interp of P.t * Interp.scratch * plan
  | E_compiled of Eden_bytecode.Compiled.t * plan
  | E_native of (Native_ctx.t -> unit)

type installed = {
  a_name : string;
  a_spec : install_spec;  (* retained for snapshot/restore and reconciliation *)
  mutable a_state : State.t;  (* swappable so shards can share one store *)
  a_msg_sources : (string, msg_field_source) Hashtbl.t;
  a_engine : engine;
  a_brk : brk;
  mutable a_lock : Mutex.t option;
      (* serialization fallback for sharded execution: when set, every
         invocation of this action runs under the mutex *)
}

(* A table's resolved lookup for one class vector.  [C_none] caches "no
   rule fires here" so misses are as cheap as hits; [C_unknown] marks a
   slot not resolved yet. *)
type cached = C_unknown | C_none | C_run of Table.rule * installed

(* A flow's enclave-assigned message id and its flow-stage classes.  The
   classes are a pure function of the five-tuple and the flow stage's
   rules, so they are computed once per flow and kept until the stage's
   generation moves.  The lists are shared between flows (hash-consed),
   so an entry costs three words, no more than a boxed [int64] id. *)
type flow = { f_id : int; mutable f_classes : Class_name.t list }

(* [f_classes] of a flow not classified since it opened or since the
   flow stage's rules last changed; compared with [==]. *)
let unclassified = [ Class_name.v ~stage:"enclave" ~ruleset:"memo" ~name:"UNCLASSIFIED" ]

(* The last packet's front half: consecutive packets of one message carry
   the same (immutable) stage metadata on the same flow, so the merged
   metadata and its class vector's interned id are reused while
   [s_stage_md] and [s_flow] stay physically the same.  Whatever changes
   a flow's classes or the vector ids forgets the slot. *)
type slot = {
  mutable s_stage_md : Metadata.t;
  mutable s_flow : flow;
  mutable s_md : Metadata.t;  (* merged *)
  mutable s_vec : int;  (* index into every per-table cache *)
}

let no_flow = { f_id = -1; f_classes = unclassified }

(* Tables keyed by class vectors.  The hash mixes every class's
   precomputed hash, so neither hashing nor comparing a vector walks the
   class names' strings unless two vectors collide. *)
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
  e_cache_cap : int;  (* per-table match-action cache capacity *)
  e_flow_stage : Stage.t;
  e_flow_ids : flow Addr.Flow_table.t;
  mutable e_next_flow_id : int;
  mutable e_flow_gen : int;  (* flow-stage generation the [f_classes] memos hold for *)
  e_flow_lists : Class_name.t list Vec_tbl.t;
      (* hash-consed flow-class lists, shared by every flow *)
  e_slot : slot;
  e_actions : (string, installed) Hashtbl.t;
  mutable e_install_order : string list;  (* oldest first *)
  e_tables : (int, Table.t) Hashtbl.t;
  mutable e_next_table : int;
  e_vec_ids : int Vec_tbl.t;
      (* class vectors interned to dense ids, at most [e_cache_cap] *)
  mutable e_caches : cached array array;
      (* per-table match-action cache, indexed by (dense) table id, then by
         interned class-vector id; grown on demand up to [e_cache_cap] *)
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
      e_flow_ids = Addr.Flow_table.create 64;
      e_next_flow_id = flow_id_base;
      e_flow_gen = -1;
      e_flow_lists = Vec_tbl.create 8;
      e_slot =
        {
          s_stage_md = Metadata.empty;
          s_flow = no_flow;
          s_md = Metadata.empty;
          s_vec = 0;
        };
      e_actions = Hashtbl.create 8;
      e_install_order = [];
      e_tables = Hashtbl.create 4;
      e_next_table = 1;
      e_vec_ids = Vec_tbl.create 16;
      e_caches = [| [||] |];
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
        counter ~help:"Match-action cache hits" "eden_enclave_flow_cache_hits_total";
      m_cache_misses =
        counter ~help:"Match-action cache misses (full lookup)"
          "eden_enclave_flow_cache_misses_total";
      m_cache_evictions =
        counter ~help:"Match-action cache entries evicted on reset"
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
  Hashtbl.replace t.e_tables 0 (Table.create ~id:0);
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

(* Vector ids are reassigned after this, so every cache goes with them. *)
let invalidate_caches t =
  Vec_tbl.reset t.e_vec_ids;
  t.e_caches <- Array.map (fun _ -> [||]) t.e_caches;
  forget_slot t

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
  if Hashtbl.mem t.e_actions spec.i_name then Error (Already_installed spec.i_name)
  else begin
    let sources = Hashtbl.create 8 in
    List.iter (fun (name, src) -> Hashtbl.replace sources name src) spec.i_msg_sources;
    let build () =
      match spec.i_impl with
      | Native f -> Ok (E_native f)
      | Interpreted p -> (
        match validate_bytecode t sources ~per_step_ns:t.e_cost_model.Cost.per_step_ns p with
        | Error _ as e -> e
        | Ok () -> Ok (E_interp (p, Interp.make_scratch p, make_plan p sources)))
      | Compiled p -> (
        match
          validate_bytecode t sources ~per_step_ns:t.e_cost_model.Cost.compiled_step_ns p
        with
        | Error _ as e -> e
        | Ok () -> (
          match Eden_bytecode.Compiled.compile p with
          | Error e -> Error (Rejected_bytecode e)
          | Ok c -> Ok (E_compiled (c, make_plan p sources))))
    in
    match build () with
    | Error _ as e -> e
    | Ok engine ->
      Hashtbl.replace t.e_actions spec.i_name
        {
          a_name = spec.i_name;
          a_spec = spec;
          a_state = State.create ();
          a_msg_sources = sources;
          a_engine = engine;
          a_brk = make_brk ();
          a_lock = None;
        };
      t.e_install_order <- t.e_install_order @ [ spec.i_name ];
      invalidate_caches t;
      Ok ()
  end

let install_action t spec =
  Result.map_error install_error_to_string (install_action_full t spec)

let remove_action t name =
  if not (Hashtbl.mem t.e_actions name) then None
  else begin
    Hashtbl.remove t.e_actions name;
    t.e_install_order <- List.filter (fun n -> not (String.equal n name)) t.e_install_order;
    let dropped =
      Hashtbl.fold (fun _ tbl acc -> acc + Table.remove_action_rules tbl name) t.e_tables 0
    in
    invalidate_caches t;
    Some dropped
  end

let action_names t = Hashtbl.fold (fun k _ acc -> k :: acc) t.e_actions [] |> List.sort compare

let add_table t =
  let id = t.e_next_table in
  t.e_next_table <- id + 1;
  Hashtbl.replace t.e_tables id (Table.create ~id);
  let n = Array.length t.e_caches in
  if id >= n then
    t.e_caches <- Array.init (id + 1) (fun i -> if i < n then t.e_caches.(i) else [||]);
  id

let add_table_rule t ?(table = 0) ~pattern ~action () =
  match Hashtbl.find_opt t.e_tables table with
  | None -> Error (Printf.sprintf "no table %d" table)
  | Some tbl ->
    if not (Hashtbl.mem t.e_actions action) then
      Error (Printf.sprintf "action %S is not installed" action)
    else begin
      let rule = Table.add_rule tbl ~pattern ~action in
      invalidate_caches t;
      Ok rule.Table.rule_id
    end

let remove_table_rule t ?(table = 0) rule_id =
  match Hashtbl.find_opt t.e_tables table with
  | None -> false
  | Some tbl ->
    let removed = Table.remove_rule tbl rule_id in
    if removed then invalidate_caches t;
    removed

let tables t =
  Hashtbl.fold (fun _ tbl acc -> tbl :: acc) t.e_tables []
  |> List.sort (fun a b -> compare (Table.id a) (Table.id b))

let with_action t action f =
  match Hashtbl.find_opt t.e_actions action with
  | None -> Error (Printf.sprintf "action %S is not installed" action)
  | Some a -> Ok (f a)

let set_global t ~action name v = with_action t action (fun a -> State.global_set a.a_state name v)

let get_global t ~action name =
  match Hashtbl.find_opt t.e_actions action with
  | None -> None
  | Some a -> Some (State.global_get a.a_state name)

let set_global_array t ~action name arr =
  with_action t action (fun a -> State.global_array_set a.a_state name arr)

let get_global_array t ~action name =
  match Hashtbl.find_opt t.e_actions action with
  | None -> None
  | Some a -> Some (State.global_array a.a_state name)

(* ------------------------------------------------------------------ *)
(* Sharding runtime hooks ({!Shard}).

   A sharded front-end runs one enclave replica per worker domain.  For
   actions whose effect footprint cannot be partitioned, the shard
   runtime points every replica at one shared state store and arms the
   per-action mutex, so only that action serializes while the rest of
   the data path stays lock-free. *)

let invalidate_plan = function
  | E_interp (_, _, plan) | E_compiled (_, plan) -> plan.pl_version <- -1
  | E_native _ -> ()

let action_program t name =
  match Hashtbl.find_opt t.e_actions name with
  | None -> None
  | Some a -> (
    match a.a_engine with
    | E_interp (p, _, _) -> Some p
    | E_compiled (_, plan) -> Some plan.pl_prog
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

let set_action_state t name st =
  with_action t name (fun a ->
      a.a_state <- st;
      (* Live-array aliases in the marshal plan point into the old
         store; force a rebind before the next invocation. *)
      invalidate_plan a.a_engine)

let set_action_lock t name lock = with_action t name (fun a -> a.a_lock <- lock)

let set_flow_id_offset t offset =
  if offset < 0L then invalid_arg "Enclave.set_flow_id_offset: negative offset";
  t.e_next_flow_id <- flow_id_base + Int64.to_int offset

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
(* Restart and snapshot/restore.

   Everything the controller pushed — actions, rules, state — plus
   everything the data path accumulated is *soft* state: a host reboot
   loses it all, and the consistency story of §2.2 only holds if the
   controller can re-converge such an enclave.  [restart] models the
   reboot honestly (wipe, not simulate); [snapshot]/[restore] capture and
   replay the programmed configuration so tests and the reconciliation
   plane can compare desired against actual.  The five-tuple flow stage's
   built-in ALL rule is firmware, not pushed state; it survives restart
   by reconstruction in [create] and here. *)

type snapshot = {
  sn_actions : install_spec list;  (* install order *)
  sn_globals : (string * (string * int64) list) list;
  sn_arrays : (string * (string * int64 array) list) list;
  sn_rules : (int * Table.rule list) list;  (* per table, match order *)
}

let snapshot t =
  let acts =
    List.filter_map (fun n -> Hashtbl.find_opt t.e_actions n) t.e_install_order
  in
  {
    sn_actions = List.map (fun a -> a.a_spec) acts;
    sn_globals = List.map (fun a -> (a.a_name, State.global_bindings a.a_state)) acts;
    sn_arrays =
      List.map
        (fun a ->
          ( a.a_name,
            List.map
              (fun (n, arr) -> (n, Array.copy arr))
              (State.global_array_bindings a.a_state) ))
        acts;
    sn_rules = List.map (fun tbl -> (Table.id tbl, Table.rules tbl)) (tables t);
  }

let restarts t = Tel.Counter.get t.m_restarts

let restart t =
  let restarts = restarts t + 1 in
  Hashtbl.reset t.e_actions;
  t.e_install_order <- [];
  Hashtbl.reset t.e_tables;
  Hashtbl.replace t.e_tables 0 (Table.create ~id:0);
  t.e_next_table <- 1;
  Addr.Flow_table.reset t.e_flow_ids;
  Vec_tbl.reset t.e_flow_lists;
  t.e_next_flow_id <- flow_id_base;
  t.e_caches <- [| [||] |];
  invalidate_caches t;
  Tel.Registry.reset t.e_tel;
  (* Restart count survives the reboot (it identifies the incarnation). *)
  Tel.Counter.set t.m_restarts restarts;
  Tel.Ring.clear t.e_faults;
  (match t.e_trace with Some tr -> Tel.Trace.clear tr | None -> ());
  t.e_trace_armed <- false;
  t.e_packet.start_ns <- 0.0

let restore t sn =
  restart t;
  let ( let* ) r f = Result.bind r f in
  let rec each f = function
    | [] -> Ok ()
    | x :: rest ->
      let* () = f x in
      each f rest
  in
  let* () = each (fun spec -> install_action t spec) sn.sn_actions in
  let* () =
    each
      (fun (action, bindings) ->
        each (fun (name, v) -> set_global t ~action name v) bindings)
      sn.sn_globals
  in
  let* () =
    each
      (fun (action, bindings) ->
        each (fun (name, arr) -> set_global_array t ~action name (Array.copy arr)) bindings)
      sn.sn_arrays
  in
  let max_table = List.fold_left (fun acc (id, _) -> max acc id) 0 sn.sn_rules in
  while t.e_next_table <= max_table do
    ignore (add_table t)
  done;
  each
    (fun (table, rules) ->
      each
        (fun (r : Table.rule) ->
          let* _ =
            add_table_rule t ~table ~pattern:r.Table.pattern ~action:r.Table.action ()
          in
          Ok ())
        rules)
    sn.sn_rules

(* Configuration equality ignores what cannot be compared (native
   closures) and what is not configuration (rule ids): two enclaves are
   configured equally when they hold the same actions (by name, engine
   kind and message sources), the same state bindings and the same
   (pattern, action) rule sequences per table. *)
let config_equal a b =
  let impl_kind = function
    | Interpreted p -> "interpreted:" ^ p.P.name
    | Compiled p -> "compiled:" ^ p.P.name
    | Native _ -> "native"
  in
  let spec_key (s : install_spec) =
    (s.i_name, impl_kind s.i_impl, List.sort compare s.i_msg_sources)
  in
  let rule_key (r : Table.rule) = (Class_name.Pattern.to_string r.Table.pattern, r.Table.action) in
  List.map spec_key a.sn_actions = List.map spec_key b.sn_actions
  && a.sn_globals = b.sn_globals
  && a.sn_arrays = b.sn_arrays
  && List.map (fun (id, rs) -> (id, List.map rule_key rs)) a.sn_rules
     = List.map (fun (id, rs) -> (id, List.map rule_key rs)) b.sn_rules

let snapshot_summary sn =
  Printf.sprintf "%d actions, %d rules, %d globals, %d arrays"
    (List.length sn.sn_actions)
    (List.fold_left (fun acc (_, rs) -> acc + List.length rs) 0 sn.sn_rules)
    (List.fold_left (fun acc (_, bs) -> acc + List.length bs) 0 sn.sn_globals)
    (List.fold_left (fun acc (_, bs) -> acc + List.length bs) 0 sn.sn_arrays)

(* ------------------------------------------------------------------ *)
(* Data path *)

let flow_entry t five_tuple =
  match Addr.Flow_table.find t.e_flow_ids five_tuple with
  | f -> f
  | exception Not_found ->
    let f = { f_id = t.e_next_flow_id; f_classes = unclassified } in
    t.e_next_flow_id <- f.f_id + 1;
    Addr.Flow_table.replace t.e_flow_ids five_tuple f;
    f

(* The flow's flow-stage classes, classified on first use.  Any rule
   change at the flow stage (through its API or directly on one of its
   rule-sets) moves its generation, which drops every flow's memo. *)
let flow_classes t five_tuple f =
  let gen = Stage.generation t.e_flow_stage in
  if gen <> t.e_flow_gen then begin
    Addr.Flow_table.iter (fun _ f -> f.f_classes <- unclassified) t.e_flow_ids;
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

(* Cache slots resolved in every table; what a full reset evicts. *)
let cached_entries t =
  Array.fold_left
    (fun acc cache ->
      Array.fold_left (fun acc c -> match c with C_unknown -> acc | _ -> acc + 1) acc cache)
    0 t.e_caches

(* A dense id for a class vector.  The intern table holds at most the
   cache capacity; a new vector past that evicts every cache. *)
let vec_id t classes =
  match Vec_tbl.find t.e_vec_ids classes with
  | id -> id
  | exception Not_found ->
    if Vec_tbl.length t.e_vec_ids >= t.e_cache_cap then begin
      Tel.Counter.add t.m_cache_evictions (cached_entries t);
      invalidate_caches t
    end;
    let id = Vec_tbl.length t.e_vec_ids in
    Vec_tbl.add t.e_vec_ids classes id;
    id

let record_fault t action fault now =
  Tel.Counter.inc t.m_faults;
  Tel.Ring.push t.e_faults { fr_action = action; fr_fault = fault; fr_time = now }

(* Copy-in per the plan; elided slots keep whatever the buffer holds
   (the program provably never reads them, and the plan never publishes
   them). *)
let marshal_in a plan pkt md msg_id ~now =
  let s = plan.pl_scalars in
  for i = 0 to Array.length plan.pl_in - 1 do
    match plan.pl_in.(i) with
    | In_zero -> ()
    | In_pkt code -> s.(i) <- packet_field_by_code pkt code
    | In_msg_state (field, default) ->
      s.(i) <- State.msg_get a.a_state ~msg:msg_id ~field ~default ~now
    | In_msg_meta_int field -> s.(i) <- Metadata.int_field field ~default:0L md
    | In_msg_meta_flag (field, expected) ->
      s.(i) <- (if Metadata.str_field_is field ~expected md then 1L else 0L)
    | In_global name -> s.(i) <- State.global_get a.a_state name
  done;
  for i = 0 to Array.length plan.pl_abind - 1 do
    match plan.pl_abind.(i) with
    | A_scratch ->
      let live = plan.pl_live.(i) in
      Array.blit live 0 plan.pl_arrays.(i) 0 (Array.length live)
    | A_alias | A_inplace -> ()
  done

(* Publish on success only: writable scalars the program stored, plus
   scratch arrays blitted back over the live binding (the binding itself
   is unchanged, so dependent plans need not rebind). *)
let marshal_out a plan out msg_id ~now =
  let s = plan.pl_scalars in
  for i = 0 to Array.length plan.pl_out - 1 do
    match plan.pl_out.(i) with
    | Out_none -> ()
    | Out_pkt code -> apply_packet_field_code out code s.(i)
    | Out_msg field -> State.msg_set a.a_state ~msg:msg_id ~field s.(i) ~now
    | Out_global name -> State.global_set a.a_state name s.(i)
  done;
  for i = 0 to Array.length plan.pl_abind - 1 do
    match plan.pl_abind.(i) with
    | A_scratch ->
      let live = plan.pl_live.(i) in
      Array.blit plan.pl_arrays.(i) 0 live 0 (Array.length live)
    | A_alias | A_inplace -> ()
  done

(* Shared by both bytecode engines.  [enter] rebinds and copies in, and
   says whether the program may run; [leave] does the post-exec
   accounting and then records the fault or publishes.  [leave] takes the
   engine kind and reads its per-step cost itself: a [float] argument
   would be boxed at every call. *)
let enter t a plan pkt md msg_id ~now =
  rebind_plan plan a.a_state;
  match plan.pl_undersized with
  | Some fault ->
    record_fault t a.a_name fault now;
    false
  | None ->
    marshal_in a plan pkt md msg_id ~now;
    Tel.Counter.inc t.m_marshals;
    true

let leave t a plan out msg_id ~now ~compiled ~steps fault =
  let m = t.e_cost_model in
  Tel.Counter.add t.m_interp_steps steps;
  if compiled then Tel.Counter.add t.m_compiled_steps steps;
  if t.e_timing then
    Tel.Histogram.observe t.h_exec
      (int_of_float
         (float_of_int steps *. if compiled then m.Cost.compiled_step_ns else m.Cost.per_step_ns));
  match fault with
  | Some fault -> record_fault t a.a_name fault now
  | None -> marshal_out a plan out msg_id ~now

let run_interpreted t a p scratch plan pkt md msg_id out ~now =
  if enter t a plan pkt md msg_id ~now then
    match Interp.run ~scratch p ~env:plan.pl_env ~now ~rng:t.e_rng with
    | Error (fault, stats) ->
      leave t a plan out msg_id ~now ~compiled:false ~steps:stats.Interp.steps (Some fault)
    | Ok stats -> leave t a plan out msg_id ~now ~compiled:false ~steps:stats.Interp.steps None

let run_compiled t a c plan pkt md msg_id out ~now =
  if enter t a plan pkt md msg_id ~now then begin
    Tel.Counter.inc t.m_compiled_invocations;
    let fault = Eden_bytecode.Compiled.exec c ~env:plan.pl_env ~now ~rng:t.e_rng in
    leave t a plan out msg_id ~now ~compiled:true ~steps:(Eden_bytecode.Compiled.last_steps c)
      fault
  end

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
  | E_interp (p, scratch, plan) -> run_interpreted t a p scratch plan pkt md msg_id out ~now
  | E_compiled (c, plan) -> run_compiled t a c plan pkt md msg_id out ~now
  | E_native f -> run_native t a f pkt md msg_id out ~now

let invoke_engine t a pkt md msg_id out ~now =
  match a.a_lock with
  | None -> dispatch_engine t a pkt md msg_id out ~now
  | Some m ->
    Mutex.lock m;
    (try dispatch_engine t a pkt md msg_id out ~now
     with exn ->
       Mutex.unlock m;
       raise exn);
    Mutex.unlock m

(* When the current packet is sampled by the flight recorder, bracket the
   engine with model-total reads to attribute the action stage. *)
let invoke_traced t a pkt md msg_id out ~now =
  if not t.e_trace_armed then invoke_engine t a pkt md msg_id out ~now
  else begin
    let before = model_total_ns t in
    invoke_engine t a pkt md msg_id out ~now;
    match t.e_trace with
    | Some tr -> Tel.Trace.set_action tr a.a_name (model_total_ns t -. before)
    | None -> ()
  end

let resolve t table_id classes =
  match Hashtbl.find_opt t.e_tables table_id with
  | None -> C_none
  | Some tbl -> (
    match Table.lookup tbl classes with
    | None -> C_none
    | Some rule -> (
      match Hashtbl.find_opt t.e_actions rule.Table.action with
      | None -> C_none
      | Some a -> C_run (rule, a)))

let cache_store t table_id vec e =
  let cache = t.e_caches.(table_id) in
  let n = Array.length cache in
  let cache =
    if vec < n then cache
    else begin
      let grown = Array.make (min t.e_cache_cap (max (vec + 1) (max 8 (2 * n)))) C_unknown in
      Array.blit cache 0 grown 0 n;
      t.e_caches.(table_id) <- grown;
      grown
    end
  in
  cache.(vec) <- e

(* Table walk with the match-action cache: the resolution of a class
   vector at a table — which rule fires and which installed action it
   names — is invariant until the controller changes the rule or action
   set, so it is memoised per table under the vector's interned id, and
   the steady-state lookup is one array read with no hashing, list scan
   or pattern match. *)
let rec walk t ~now pkt md msg_id classes vec out table_id hops =
  if hops < max_table_hops && table_id >= 0 && table_id < Array.length t.e_caches then begin
    let cache = t.e_caches.(table_id) in
    let entry =
      match if vec < Array.length cache then cache.(vec) else C_unknown with
      | C_unknown ->
        Tel.Counter.inc t.m_cache_misses;
        let e = resolve t table_id classes in
        cache_store t table_id vec e;
        e
      | e ->
        Tel.Counter.inc t.m_cache_hits;
        e
    in
    match entry with
    | C_unknown | C_none -> ()
    | C_run (_rule, a) -> (
      match t.e_breaker with
      | None ->
        Tel.Counter.inc t.m_invocations;
        out.o_goto <- -1;
        invoke_traced t a pkt md msg_id out ~now;
        if out.o_goto >= 0 && out.o_goto <> table_id then
          walk t ~now pkt md msg_id classes vec out out.o_goto (hops + 1)
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
            walk t ~now pkt md msg_id classes vec out out.o_goto (hops + 1)
        end)
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
     ignore class order, so the vector is taken as stored, newest
     first. *)
  if not (slot.s_flow == flow && slot.s_stage_md == stage_md) then begin
    let md = Metadata.merge_flow ~msg_id:(Int64.of_int flow.f_id) flow_classes stage_md in
    let vec = vec_id t (Metadata.classes_rev md) in
    slot.s_stage_md <- stage_md;
    slot.s_flow <- flow;
    slot.s_md <- md;
    slot.s_vec <- vec
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
  walk t ~now pkt md msg_id (Metadata.classes_rev md) slot.s_vec out 0 0;
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
  let finish_trace verdict =
    if t.e_trace_armed then begin
      (match t.e_trace with
      | Some tr -> Tel.Trace.finish tr ~verdict ~total_ns:(last_process_cost_ns t)
      | None -> ());
      t.e_trace_armed <- false
    end
  in
  if not t.e_enforce then begin
    finish_trace Tel.Trace.Forwarded;
    Forward { queue = None; charge = Packet.wire_size pkt }
  end
  else if out.o_drop then begin
    Tel.Counter.inc t.m_dropped;
    finish_trace Tel.Trace.Dropped;
    Dropped "action function set Drop"
  end
  else begin
    pkt.Packet.priority <- out.o_priority;
    if out.o_path >= 0 then pkt.Packet.route_label <- Some out.o_path;
    let queue = if out.o_queue >= 0 then Some out.o_queue else None in
    let charge = if out.o_charge >= 0 then out.o_charge else Packet.wire_size pkt in
    finish_trace
      (match queue with Some q -> Tel.Trace.Queued q | None -> Tel.Trace.Forwarded);
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

let note_message_end t ~msg_id =
  Hashtbl.iter (fun _ a -> State.msg_end a.a_state ~msg:msg_id) t.e_actions

let note_flow_closed t five_tuple =
  match Addr.Flow_table.find_opt t.e_flow_ids five_tuple with
  | None -> ()
  | Some f ->
    Addr.Flow_table.remove t.e_flow_ids five_tuple;
    if t.e_slot.s_flow == f then forget_slot t;
    note_message_end t ~msg_id:(Int64.of_int f.f_id)

let expire_messages t ~now ~idle =
  Hashtbl.fold (fun _ a acc -> acc + State.expire a.a_state ~now ~idle) t.e_actions 0
