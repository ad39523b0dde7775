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
module Stage = Eden_stage.Stage
module Builtin = Eden_stage.Builtin
module Tel = Eden_telemetry

type placement = Os | Nic

let placement_to_string = function Os -> "os" | Nic -> "nic"

type decision = Forward of { queue : int option; charge : int } | Dropped of string

module Native_ctx = struct
  include Config.Native_ctx

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
  let set_priority t p = t.nc_out.Config.o_priority <- p
  let set_path t p = t.nc_out.Config.o_path <- p
  let set_drop t = t.nc_out.Config.o_drop <- true
  let set_queue t q = t.nc_out.Config.o_queue <- q
  let set_charge t c = t.nc_out.Config.o_charge <- c
end

include Config.Types

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

type engine =
  | E_bytecode of { machine : Interp.scratch; compiled : Compiled.t option; plan : Marshal.plan }
      (** Interpreted when [compiled] is [None]; either way the run's
          statistics are read off [machine]. *)
  | E_native of (Native_ctx.t -> unit)

type installed = {
  a_name : string;
  a_state : State.t;
  a_engine : engine;
  a_brk : Breaker.t;
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
  tb_rules : Table.t;
  tb_run : installed array;  (* each rule's action, in match order *)
  tb_memo : Class_memo.t;
  mutable tb_slot : int;  (* the resolution of the slot's classes *)
}

(* What the data path reads: built from the configuration by [build] and
   swapped whole by every action or rule op, with empty memos and every
   table unresolved, so no packet resolves against an older one's rules.
   Binding ops write [State] and keep it, memos and all. *)
type generation = {
  g_config : Config.snapshot;  (* without bindings: [State] holds those *)
  g_actions : installed list;  (* install order *)
  g_tables : table array;  (* by id *)
  g_rules : Table.t list;  (* what [tables] returns *)
}

(* [config]'s generation, its actions taken from [pool] by name: [next]
   refuses rules for absent actions and drops a removed action's rules. *)
let build (config : Config.snapshot) pool =
  let runtime name = List.find (fun a -> String.equal a.a_name name) pool in
  let table (id, rules) =
    {
      tb_rules = Table.make ~id rules;
      tb_run = Array.of_list (List.map (fun (r : Table.rule) -> runtime r.Table.action) rules);
      tb_memo = Class_memo.create ();
      tb_slot = unresolved;
    }
  in
  let g_tables = Array.of_list (List.map table config.sn_rules) in
  {
    g_config = { config with sn_globals = []; sn_arrays = [] };
    g_actions = List.map (fun s -> runtime s.i_name) config.sn_actions;
    g_tables;
    g_rules = Array.to_list (Array.map (fun tb -> tb.tb_rules) g_tables);
  }

(* A flow's entry ([Open_table.flow]) holds its five-tuple, packed, its
   enclave-assigned message id and its flow-stage classes.  The classes
   are a pure function of the five-tuple and the flow stage's rules, so
   they are computed once per flow and kept until the stage's generation
   moves.  They are kept in merged order ([Metadata.merge_order]), so a
   merge conses only the stage's classes on top, and the lists are
   shared between flows (hash-consed). *)

(* [f_classes] of a flow not classified since it opened or since the
   flow stage's rules last changed; compared with [==]. *)
let unclassified = [ Class_name.v ~stage:"enclave" ~ruleset:"memo" ~name:"UNCLASSIFIED" ]

(* The last packet's front half: consecutive packets of one message carry
   the same (immutable) stage metadata on the same flow, so the merged
   metadata and every table's [tb_slot] are reused while [s_stage_md]
   and [s_flow] stay physically the same.  Whatever changes a flow's
   classes forgets the slot; a swapped-in generation's tables start
   unresolved. *)
type slot = {
  mutable s_stage_md : Metadata.t;
  mutable s_flow : Open_table.flow;
  mutable s_md : Metadata.t;  (* merged *)
}

(* Flow-class lists, hash-consed: each list the flow stage returns maps
   to its one shared merged-order copy.  The hash mixes every class's
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
  e_flow_row : Eden_stage.Classifier.row;  (* refilled for each new flow *)
  e_flow_ids : Flows.t;
  mutable e_next_flow_id : int;
  mutable e_flow_gen : int;  (* flow-stage generation the [f_classes] memos hold for *)
  e_flow_lists : Class_name.t list Vec_tbl.t;
      (* classified list to its merged-order copy, shared by every flow *)
  e_slot : slot;
  mutable e_gen : generation;
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
  e_out : Config.outputs;  (* reused across process_one calls *)
  e_cost_model : Cost.model;
  e_packet : packet_start;
  mutable e_budget_ns : float;
  mutable e_enforce : bool;
  mutable e_breaker : Breaker.config option;
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
  let model = match placement with Os -> Cost.os_model | Nic -> Cost.nic_model in
  let t =
    {
      e_host = host;
      e_placement = placement;
      e_seed = seed;
      e_rng = Rng.create (Int64.add seed (Int64.of_int host));
      e_cache_cap = flow_cache_capacity;
      e_flow_stage = Builtin.flow ();
      e_flow_row = Builtin.flow_row ();
      e_flow_ids = Flows.create ();
      e_next_flow_id = flow_id_base;
      e_flow_gen = -1;
      e_flow_lists = Vec_tbl.create 8;
      e_slot = { s_stage_md = Metadata.empty; s_flow = Flows.vacant; s_md = Metadata.empty };
      e_gen = build Config.empty [];
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
          Config.o_priority = 0;
          o_path = -1;
          o_drop = false;
          o_queue = -1;
          o_charge = -1;
          o_goto = -1;
        };
      e_cost_model = model;
      e_packet = { start_ns = 0.0 };
      e_budget_ns = model.Cost.budget_ns;
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

(* A copy of the registry cells, which are authoritative. *)
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
let forget_slot t = t.e_slot.s_flow <- Flows.vacant

let find_action t name = List.find_opt (fun a -> String.equal a.a_name name) t.e_gen.g_actions

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

(* Contract and budget validation shared by both bytecode engines. *)
let validate_bytecode t sources ~per_step_ns (p : P.t) =
  match Verifier.verify p with
  | Error e -> Error (Rejected_bytecode e)
  | Ok () -> (
    match Marshal.contract_problems p sources with
    | _ :: _ as ps -> Error (Bad_contract ps)
    | [] ->
      let steps = Cost.admission_steps p in
      let est_ns = Cost.admission_ns t.e_cost_model ~per_step_ns ~steps in
      if est_ns > t.e_budget_ns then
        Error (Over_budget { est_ns; budget_ns = t.e_budget_ns; steps })
      else Ok ())

let engine_of t spec =
  let sources = Hashtbl.create 8 in
  List.iter (fun (name, src) -> Hashtbl.replace sources name src) spec.i_msg_sources;
  match spec.i_impl with
  | Native f -> Ok (E_native f)
  | Interpreted p | Compiled p -> (
    let m = t.e_cost_model in
    let compile = match spec.i_impl with Compiled _ -> true | _ -> false in
    let per_step_ns = if compile then m.Cost.compiled_step_ns else m.Cost.per_step_ns in
    match validate_bytecode t sources ~per_step_ns p with
    | Error _ as e -> e
    | Ok () when not compile ->
      let machine = Interp.make_scratch p in
      Ok (E_bytecode { machine; compiled = None; plan = Marshal.make p sources })
    | Ok () -> (
      match Compiled.compile p with
      | Error e -> Error (Rejected_bytecode e)
      | Ok c ->
        let machine = Compiled.machine c in
        Ok (E_bytecode { machine; compiled = Some c; plan = Marshal.make p sources })))

let install_action_full t spec =
  let g = t.e_gen in
  match Config.next g.g_config (Install_action spec) with
  | Error _ -> Error (Already_installed spec.i_name)
  | Ok (config, _) -> (
    match engine_of t spec with
    | Error _ as e -> e
    | Ok a_engine ->
      let a =
        { a_name = spec.i_name; a_state = State.create (); a_engine; a_brk = Breaker.create () }
      in
      t.e_gen <- build config (a :: g.g_actions);
      Ok ())

let install_action t spec =
  Result.map_error install_error_to_string (install_action_full t spec)

(* A binding op writes the action's [State] and keeps the generation. *)
let write_binding t op ~action write =
  match Config.refusal t.e_gen.g_config op with
  | Some msg -> Error msg
  | None ->
    write (Option.get (find_action t action)).a_state;
    Ok 0L

let apply t (op : Config.op) : (int64, string) result =
  match op with
  | Install_action spec -> Result.map (fun () -> 0L) (install_action t spec)
  | Set_global { action; name; value } ->
    write_binding t op ~action (fun st -> State.global_set st name value)
  | Set_global_array { action; name; value } ->
    write_binding t op ~action (fun st -> State.global_array_set st name (Array.copy value))
  | Commit_generation -> Ok 0L
  | Remove_action _ | Add_table | Add_rule _ | Remove_rule _ -> (
    let g = t.e_gen in
    match Config.next g.g_config op with
    | Error _ as refused -> refused
    | Ok (config, payload) ->
      t.e_gen <- build config g.g_actions;
      Ok payload)

let remove_action t name =
  if find_action t name = None then None
  else Some (Int64.to_int (Result.get_ok (apply t (Remove_action name))))

let action_names t = List.sort compare (List.map (fun a -> a.a_name) t.e_gen.g_actions)
let add_table t = Int64.to_int (Result.get_ok (apply t Add_table))

let add_table_rule t ?(table = 0) ~pattern ~action () =
  Result.map Int64.to_int (apply t (Add_rule { table; pattern; action }))

let remove_table_rule t ?(table = 0) rule_id = apply t (Remove_rule { table; rule_id }) = Ok 1L
let tables t = t.e_gen.g_rules

let set_global t ~action name value =
  Result.map ignore (apply t (Set_global { action; name; value }))

let get_global t ~action name =
  Option.map (fun a -> State.global_get a.a_state name) (find_action t action)

let set_global_array t ~action name value =
  Result.map ignore (apply t (Set_global_array { action; name; value }))

let get_global_array t ~action name =
  Option.map (fun a -> State.global_array a.a_state name) (find_action t action)

let action_program t name =
  match find_action t name with
  | Some { a_engine = E_bytecode { plan; _ }; _ } -> Some (Marshal.program plan)
  | Some { a_engine = E_native _; _ } | None -> None

(* Native actions have opaque effects, so they run serially. *)
let concurrency_of t name =
  Option.map
    (fun a ->
      match a.a_engine with
      | E_bytecode { plan; _ } -> (P.footprint (Marshal.program plan)).P.concurrency
      | E_native _ -> `Serial)
    (find_action t name)

let action_state t name = Option.map (fun a -> a.a_state) (find_action t name)

(* ------------------------------------------------------------------ *)
(* Graceful degradation: the circuit breaker.  Disabled unless
   [set_breaker] is called, so the default data path is exactly the
   paper's. *)

let set_breaker t cfg =
  (match cfg with
  | None -> ()
  | Some c ->
    if c.Breaker.br_window < 1 || c.br_window > 62 then
      invalid_arg "Enclave.set_breaker: window must be in [1, 62]";
    if c.br_min_samples < 1 || c.br_min_samples > c.br_window then
      invalid_arg "Enclave.set_breaker: min_samples must be in [1, window]";
    if c.br_threshold <= 0.0 || c.br_threshold > 1.0 then
      invalid_arg "Enclave.set_breaker: threshold must be in (0, 1]");
  t.e_breaker <- cfg;
  List.iter (fun a -> Breaker.reset a.a_brk) t.e_gen.g_actions

let breaker_state t name =
  match (t.e_breaker, find_action t name) with
  | None, _ | _, None -> None
  | Some _, Some a -> Some (Breaker.state a.a_brk)

let breaker_trips t name =
  match find_action t name with None -> 0 | Some a -> Breaker.trips a.a_brk

(* ------------------------------------------------------------------ *)
(* Restart, snapshot and restore.

   Everything the controller pushed — actions, rules, state — plus
   everything the data path accumulated is *soft* state: a host reboot
   loses it all, and the consistency story of §2.2 only holds if the
   controller can re-converge such an enclave.  [restart] models the
   reboot honestly (wipe, not simulate), and [restore] replays
   [Config.diff] from the empty configuration.  The five-tuple flow
   stage's built-in ALL rule is firmware, not pushed state; it survives
   restart by reconstruction in [create] and here. *)

(* The generation's configuration with each action's bindings read from
   its [State]. *)
let snapshot t =
  let g = t.e_gen in
  let per_action f = List.map (fun a -> (a.a_name, f a.a_state)) g.g_actions in
  let copied = List.map (fun (n, arr) -> (n, Array.copy arr)) in
  {
    g.g_config with
    sn_globals = per_action State.global_bindings;
    sn_arrays = per_action (fun st -> copied (State.global_array_bindings st));
  }

let restarts t = Tel.Counter.get t.m_restarts

let restart t =
  let restarts = restarts t + 1 in
  t.e_gen <- build Config.empty [];
  Flows.reset t.e_flow_ids;
  Vec_tbl.reset t.e_flow_lists;
  t.e_next_flow_id <- flow_id_base;
  Tel.Registry.reset t.e_tel;
  (* Restart count survives the reboot (it identifies the incarnation). *)
  Tel.Counter.set t.m_restarts restarts;
  Tel.Ring.clear t.e_faults;
  (match t.e_trace with Some tr -> Tel.Trace.clear tr | None -> ());
  t.e_trace_armed <- false;
  t.e_packet.start_ns <- 0.0

let restore t sn =
  restart t;
  let rec replay = function
    | [] -> Ok ()
    | op :: rest -> ( match apply t op with Ok _ -> replay rest | Error m -> Error m)
  in
  replay (Config.diff ~desired:sn ~actual:(snapshot t))

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
let flow_classes t five_tuple (f : Open_table.flow) =
  let gen = Stage.generation t.e_flow_stage in
  if gen <> t.e_flow_gen then begin
    Flows.iter (fun f -> f.f_classes <- unclassified) t.e_flow_ids;
    Vec_tbl.reset t.e_flow_lists;
    forget_slot t;
    t.e_flow_gen <- gen
  end;
  if f.f_classes == unclassified then begin
    Builtin.fill_flow_row t.e_flow_row five_tuple;
    let cs = Stage.classes_of_row t.e_flow_stage t.e_flow_row in
    f.f_classes <-
      (match Vec_tbl.find t.e_flow_lists cs with
      | shared -> shared
      | exception Not_found ->
        let merged = Metadata.merge_order cs in
        Vec_tbl.add t.e_flow_lists cs merged;
        merged)
  end;
  f.f_classes

let record_fault t action fault now =
  Tel.Counter.inc t.m_faults;
  Tel.Ring.push t.e_faults { fr_action = action; fr_fault = fault; fr_time = now }

(* One runner for both bytecode engines: rebind and copy in, run the
   machine through its unboxed entry (the compiled code when there is
   one), read the steps off it, then record the fault or publish.  The
   engine kind picks the per-step cost here: a [float] argument would be
   boxed at every call. *)
let run_bytecode t a ~machine ~compiled plan pkt md msg_id out ~now =
  match Marshal.rebind plan a.a_state with
  | Some fault -> record_fault t a.a_name fault now
  | None -> (
    let io = machine.Interp.io in
    Marshal.copy_in plan a.a_state io pkt md msg_id ~now;
    Tel.Counter.inc t.m_marshals;
    let arrays = Marshal.arrays plan and rng = t.e_rng in
    let fault =
      match compiled with
      | Some c ->
        Tel.Counter.inc t.m_compiled_invocations;
        Compiled.invoke c ~arrays ~now ~rng
      | None -> Interp.invoke ~scratch:machine (Marshal.program plan) ~arrays ~now ~rng
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
    | None -> Marshal.copy_out plan a.a_state io out msg_id ~now)

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
   slot moves or an op swaps the generation, so the steady-state lookup
   is one read of [tb_slot], with no hashing, list scan or pattern
   match. *)
let rec walk t ~now pkt md msg_id classes (out : Config.outputs) table_id hops =
  let tables = t.e_gen.g_tables in
  if hops < max_table_hops && table_id >= 0 && table_id < Array.length tables then begin
    let tb = tables.(table_id) in
    if tb.tb_slot = unresolved then tb.tb_slot <- resolve t tb classes no_rule false
    else Tel.Counter.inc t.m_cache_hits;
    if tb.tb_slot <> no_rule then begin
      let a = tb.tb_run.(tb.tb_slot) in
      match t.e_breaker with
      | Some _ when not (Breaker.admit a.a_brk ~now) ->
        (* Quarantined action: matching packets fall through to default
           forwarding — [out] keeps its reset values, exactly as if no
           rule had matched (fail-open, but for the whole action). *)
        Tel.Counter.inc t.m_quarantined
      | breaker ->
        Tel.Counter.inc t.m_invocations;
        out.o_goto <- -1;
        let faults_before = Tel.Counter.get t.m_faults in
        invoke_traced t a pkt md msg_id out ~now;
        (match breaker with
        | Some cfg ->
          Breaker.record a.a_brk cfg ~now ~faulted:(Tel.Counter.get t.m_faults > faults_before)
        | None -> ());
        if out.o_goto >= 0 && out.o_goto <> table_id then
          walk t ~now pkt md msg_id classes out out.o_goto (hops + 1)
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
    slot.s_md <- Metadata.merge_flow ~flow_id:flow.f_id flow_classes stage_md;
    let tables = t.e_gen.g_tables in
    for i = 0 to Array.length tables - 1 do
      tables.(i).tb_slot <- unresolved
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
  Marshal.reset_outputs out pkt;
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
    if out.o_path >= 0 then pkt.Packet.route_label <- Packet.label out.o_path;
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

(* Recursive rather than [List.iter], so ending a message builds no
   closure. *)
let rec end_message msg = function
  | [] -> ()
  | a :: rest ->
    State.msg_end a.a_state ~msg;
    end_message msg rest

let note_message_end t ~msg_id = end_message msg_id t.e_gen.g_actions

let note_flow_closed t five_tuple =
  let f = Flows.remove t.e_flow_ids five_tuple in
  if f != Flows.vacant then begin
    if t.e_slot.s_flow == f then forget_slot t;
    note_message_end t ~msg_id:(Int64.of_int f.f_id)
  end

let expire_messages t ~now ~idle =
  List.fold_left (fun acc a -> acc + State.expire a.a_state ~now ~idle) 0 t.e_gen.g_actions
