module Enclave = Eden_enclave.Enclave
module Table = Eden_enclave.Table
module Stage = Eden_stage.Stage
module Time = Eden_base.Time
module Rng = Eden_base.Rng
module Pattern = Eden_base.Class_name.Pattern
module Tel = Eden_telemetry

type retry_policy = {
  rp_max_attempts : int;
  rp_base_backoff : Time.t;
  rp_max_backoff : Time.t;
}

let default_retry =
  { rp_max_attempts = 5; rp_base_backoff = Time.us 50; rp_max_backoff = Time.ms 5 }

type retry_stats = {
  rs_ops : int;
  rs_attempts : int;
  rs_retries : int;
  rs_giveups : int;
  rs_backoff : Time.t;
}

type t = {
  topo : Topology.t;
  mutable chans : Channel.t list;  (* newest first *)
  mutable stgs : Stage.t list;
  desired : Desired.t;
  retry : retry_policy;
  jitter : Rng.t;
  mutable next_op : int64;
  (* The retry and reconcile cells are bumped live and are the only
     record of those counts; the generation, lag and divergence gauges
     are derived from the desired store and the channels at scrape. *)
  tel : Tel.Registry.t;
  cm_push_ops : Tel.Counter.t;
  cm_attempts : Tel.Counter.t;
  cm_retries : Tel.Counter.t;
  cm_giveups : Tel.Counter.t;
  cg_backoff_ns : Tel.Gauge.t;
  cm_reconcile_rounds : Tel.Counter.t;
  cm_reconcile_replayed : Tel.Counter.t;
  cg_generation : Tel.Gauge.t;
  cg_generation_lag : Tel.Gauge.t;
  cg_divergent : Tel.Gauge.t;
}

let create ?topology ?(retry = default_retry) ?(seed = 0xC0DEL) () =
  let topo = match topology with Some t -> t | None -> Topology.create () in
  if retry.rp_max_attempts < 1 then invalid_arg "Controller.create: max_attempts must be >= 1";
  let tel = Tel.Registry.create () in
  {
    topo;
    chans = [];
    stgs = [];
    desired = Desired.create ();
    retry;
    jitter = Rng.create seed;
    next_op = 1L;
    tel;
    cm_push_ops =
      Tel.Registry.counter tel ~help:"Logical push ops" "eden_controller_push_ops_total";
    cm_attempts =
      Tel.Registry.counter tel ~help:"Channel sends incl. retries"
        "eden_controller_send_attempts_total";
    cm_retries = Tel.Registry.counter tel ~help:"Retried sends" "eden_controller_retries_total";
    cm_giveups =
      Tel.Registry.counter tel ~help:"Sends that exhausted the retry budget"
        "eden_controller_giveups_total";
    cg_backoff_ns =
      Tel.Registry.gauge tel ~help:"Total simulated backoff (ns)" "eden_controller_backoff_ns";
    cm_reconcile_rounds =
      Tel.Registry.counter tel ~help:"Anti-entropy rounds run"
        "eden_controller_reconcile_rounds_total";
    cm_reconcile_replayed =
      Tel.Registry.counter tel ~help:"Ops replayed by reconciliation"
        "eden_controller_reconcile_ops_replayed_total";
    cg_generation =
      Tel.Registry.gauge tel ~help:"Desired-state generation" "eden_controller_generation";
    cg_generation_lag =
      Tel.Registry.gauge tel ~help:"Desired generation minus lowest acked watermark"
        "eden_controller_generation_lag";
    cg_divergent =
      Tel.Registry.gauge tel ~help:"Enclaves marked divergent" "eden_controller_divergent_hosts";
  }

let topology t = t.topo
let register_enclave t e = t.chans <- Channel.create e :: t.chans
let register_stage t s = t.stgs <- s :: t.stgs
let channels t = List.rev t.chans
let enclaves t = List.rev_map Channel.enclave t.chans
let stages t = List.rev t.stgs
let find_stage t name = List.find_opt (fun s -> String.equal (Stage.name s) name) t.stgs
let generation t = Desired.generation t.desired
let desired t = t.desired

let stats t =
  {
    rs_ops = Tel.Counter.get t.cm_push_ops;
    rs_attempts = Tel.Counter.get t.cm_attempts;
    rs_retries = Tel.Counter.get t.cm_retries;
    rs_giveups = Tel.Counter.get t.cm_giveups;
    rs_backoff = Time.of_float_ns (Tel.Gauge.get t.cg_backoff_ns);
  }

let channel_for t host =
  List.find_opt (fun ch -> Channel.host ch = host) t.chans

let divergent_hosts t =
  List.filter_map
    (fun ch -> if Channel.divergent ch then Some (Channel.host ch) else None)
    (channels t)

let fresh_op t =
  let id = t.next_op in
  t.next_op <- Int64.add id 1L;
  id

(* Capped exponential backoff with seeded jitter.  The controller runs in
   simulated time, so backoff is accounted, not slept: the backoff gauge
   is the control-plane latency a real deployment would have paid. *)
let backoff_for t ~attempt =
  let base = Int64.to_float (Time.to_ns t.retry.rp_base_backoff) in
  let cap = Int64.to_float (Time.to_ns t.retry.rp_max_backoff) in
  let exp = base *. (2.0 ** float_of_int (attempt - 1)) in
  let capped = Float.min cap exp in
  let jitter = 0.5 +. (0.5 *. Rng.float t.jitter 1.0) in
  Time.of_float_ns (capped *. jitter)

type push_error =
  [ `Rejected of string  (** The enclave refused the op; retrying is pointless. *)
  | `Unreachable of string  (** Transient failures exhausted the retry budget. *)
  ]

let send_with_retry t ch ~gen op : (int64, push_error) result =
  let op_id = fresh_op t in
  Tel.Counter.inc t.cm_push_ops;
  let rec go attempt =
    Tel.Counter.inc t.cm_attempts;
    match Channel.send ch ~op_id ~gen op with
    | Ok payload -> Ok payload
    | Error (Channel.Rejected msg) -> Error (`Rejected msg)
    | Error e ->
      if attempt >= t.retry.rp_max_attempts then begin
        Tel.Counter.inc t.cm_giveups;
        Error (`Unreachable (Channel.error_to_string e))
      end
      else begin
        Tel.Counter.inc t.cm_retries;
        (* Whole nanoseconds, summed exactly below 2^53. *)
        Tel.Gauge.add t.cg_backoff_ns (Int64.to_float (Time.to_ns (backoff_for t ~attempt)));
        go (attempt + 1)
      end
  in
  go 1

(* ------------------------------------------------------------------ *)
(* Broadcast pushes.

   A push is accepted or refused at the *desired-state* level:

   - if any enclave [`Rejected] the op (a permanent refusal — e.g. the
     bytecode fails verification there), the change is abandoned: it is
     not recorded in the desired state and is undone, failure-tolerantly,
     on every enclave that did apply it;
   - transient failures ([`Unreachable] after retries) do NOT abandon the
     change: the desired state is committed, the unreachable enclaves are
     marked divergent, and {!reconcile} converges them later.  This is
     the paper's consistency model — enclaves forward on stale policy
     until the controller reaches them (§2.2), rather than the fleet
     being held hostage by its least reachable member. *)

let hosts_to_string hosts = String.concat "," (List.map string_of_int hosts)

(* Failure-tolerant undo: try [op] on every channel in [applied]; a
   failing undo must not abort the remaining undos.  Returns the hosts
   left divergent (marked as such, so reconciliation picks them up). *)
let undo_on t applied op =
  List.filter_map
    (fun ch ->
      match send_with_retry t ch ~gen:(Desired.generation t.desired) op with
      | Ok _ -> None
      | Error _ ->
        Channel.mark_divergent ch;
        Some (Channel.host ch))
    applied

let broadcast t ~gen op =
  let rec go applied unreachable = function
    | [] -> `Applied (List.rev applied, List.rev unreachable)
    | ch :: rest -> (
      match send_with_retry t ch ~gen op with
      | Ok _ -> go (ch :: applied) unreachable rest
      | Error (`Unreachable _) ->
        Channel.mark_divergent ch;
        go applied (ch :: unreachable) rest
      | Error (`Rejected msg) -> `Rejected (Channel.host ch, msg, List.rev applied))
  in
  go [] [] (channels t)

(* After a change commits, advance the applied enclaves' watermarks to
   the new generation.  [Commit_generation] cannot be rejected; a channel
   it cannot reach is left divergent for reconciliation. *)
let commit_watermark t chans =
  let gen = Desired.generation t.desired in
  List.iter
    (fun ch ->
      match send_with_retry t ch ~gen Channel.Commit_generation with
      | Ok _ -> ()
      | Error _ -> Channel.mark_divergent ch)
    chans

(* Shared push driver, two-phase so that no enclave ever acknowledges a
   generation that did not commit: broadcast [op] at the *current*
   generation; on acceptance run [commit] (record the change in the
   desired state and bump the generation) and only then advance the
   watermarks; on rejection undo with [undo_op] everywhere the op landed
   — the aborted change never touched any watermark, preserving
   acked <= desired. *)
let push t op ~undo_op ~commit =
  let gen = Desired.generation t.desired in
  match broadcast t ~gen op with
  | `Applied (applied, _) ->
    commit ();
    Desired.bump t.desired;
    commit_watermark t applied;
    Ok ()
  | `Rejected (host, msg, applied) -> (
    match undo_on t applied undo_op with
    | [] -> Error (Printf.sprintf "host %d rejected %s: %s" host (Channel.op_to_string op) msg)
    | divergent ->
      Error
        (Printf.sprintf
           "host %d rejected %s: %s; rollback failed on hosts [%s], left divergent pending \
            reconciliation"
           host (Channel.op_to_string op) msg (hosts_to_string divergent)))

let install_action_everywhere t spec =
  if Desired.has_action t.desired spec.Enclave.i_name then
    Error (Printf.sprintf "action %S is already in the desired state" spec.Enclave.i_name)
  else
    push t
      (Channel.Install_action spec)
      ~undo_op:(Channel.Remove_action spec.Enclave.i_name)
      ~commit:(fun () ->
        match Desired.add_action t.desired spec with Ok () -> () | Error _ -> assert false)

let remove_action_everywhere t name =
  if not (Desired.has_action t.desired name) then
    Error (Printf.sprintf "action %S is not in the desired state" name)
  else begin
    (* Removal is idempotent at the enclave, so there is no rejection to
       roll back from: commit the desired change, push best-effort, and
       let reconciliation catch stragglers. *)
    ignore (Desired.remove_action t.desired name);
    Desired.bump t.desired;
    let gen = Desired.generation t.desired in
    ignore (broadcast t ~gen (Channel.Remove_action name));
    Ok ()
  end

let add_table_everywhere t =
  let id = Desired.tables t.desired in
  match
    push t Channel.Add_table
      ~undo_op:Channel.Commit_generation (* tables cannot be removed; a spare table is harmless *)
      ~commit:(fun () -> ignore (Desired.add_table t.desired))
  with
  | Ok () -> Ok id
  | Error msg -> Error msg

let add_rule_everywhere t ?(table = 0) ~pattern ~action () =
  if not (Desired.has_action t.desired action) then
    Error (Printf.sprintf "action %S is not in the desired state" action)
  else if table < 0 || table >= Desired.tables t.desired then
    Error (Printf.sprintf "table %d is not in the desired state" table)
  else begin
    (* Undo needs per-enclave rule ids, which the generic driver does not
       carry, so rules get their own loop (same two-phase watermark
       protocol as [push]). *)
    let gen = Desired.generation t.desired in
    let rec go applied = function
      | [] -> (
        match Desired.add_rule t.desired ~table ~pattern ~action with
        | Ok _ ->
          Desired.bump t.desired;
          commit_watermark t (List.rev_map fst applied);
          Ok ()
        | Error _ -> assert false)
      | ch :: rest -> (
        match send_with_retry t ch ~gen (Channel.Add_rule { table; pattern; action }) with
        | Ok rule_id -> go ((ch, Int64.to_int rule_id) :: applied) rest
        | Error (`Unreachable _) ->
          Channel.mark_divergent ch;
          go applied rest
        | Error (`Rejected msg) ->
          let divergent =
            List.filter_map
              (fun (ch, rule_id) ->
                match
                  send_with_retry t ch ~gen:(Desired.generation t.desired)
                    (Channel.Remove_rule { table; rule_id })
                with
                | Ok _ -> None
                | Error _ ->
                  Channel.mark_divergent ch;
                  Some (Channel.host ch))
              applied
          in
          Error
            (match divergent with
            | [] -> Printf.sprintf "host %d rejected add_rule: %s" (Channel.host ch) msg
            | hs ->
              Printf.sprintf
                "host %d rejected add_rule: %s; rollback failed on hosts [%s], left divergent \
                 pending reconciliation"
                (Channel.host ch) msg (hosts_to_string hs)))
    in
    go [] (channels t)
  end

let set_global_everywhere t ~action name v =
  if not (Desired.has_action t.desired action) then
    Error (Printf.sprintf "action %S is not in the desired state" action)
  else begin
    let undo_op =
      match Desired.global t.desired ~action name with
      | Some prev -> Channel.Set_global { action; name; value = prev }
      | None -> Channel.Commit_generation  (* nothing to restore; scalars default to 0 *)
    in
    push t
      (Channel.Set_global { action; name; value = v })
      ~undo_op
      ~commit:(fun () -> ignore (Desired.set_global t.desired ~action name v))
  end

let set_global_array_everywhere t ~action name arr =
  if not (Desired.has_action t.desired action) then
    Error (Printf.sprintf "action %S is not in the desired state" action)
  else begin
    let undo_op =
      match Desired.global_array t.desired ~action name with
      | Some prev -> Channel.Set_global_array { action; name; value = prev }
      | None -> Channel.Commit_generation
    in
    push t
      (Channel.Set_global_array { action; name; value = arr })
      ~undo_op
      ~commit:(fun () -> ignore (Desired.set_global_array t.desired ~action name arr))
  end

(* ------------------------------------------------------------------ *)
(* Stage programming (stages are in-process; the fault model covers the
   controller→enclave path, which is the one the paper's consistency
   story depends on). *)

let program_stage t ~stage ~ruleset ~rules =
  match find_stage t stage with
  | None -> Error (Printf.sprintf "stage %S not registered" stage)
  | Some s ->
    let rec go = function
      | [] ->
        Desired.bump t.desired;
        Ok ()
      | (classifier, class_name, metadata_fields) :: rest -> (
        match
          Stage.Api.create_stage_rule s ~ruleset ~classifier ~class_name ~metadata_fields
        with
        | Ok _ -> go rest
        | Error _ as err -> Result.map (fun _ -> ()) err)
    in
    go rules

(* ------------------------------------------------------------------ *)
(* Anti-entropy reconciliation *)

type drift = {
  df_missing_actions : string list;
  df_extra_actions : string list;
  df_missing_rules : Desired.rule list;
  df_extra_rules : (int * int) list;  (* table, enclave rule id *)
  df_stale_globals : (string * string) list;
  df_stale_arrays : (string * string) list;
  df_desired_generation : int;
  df_acked_generation : int;
}

let drift_in_sync d =
  d.df_missing_actions = [] && d.df_extra_actions = [] && d.df_missing_rules = []
  && d.df_extra_rules = [] && d.df_stale_globals = [] && d.df_stale_arrays = []
  && d.df_desired_generation = d.df_acked_generation

let spec_key (s : Enclave.install_spec) =
  let impl =
    match s.Enclave.i_impl with
    | Enclave.Interpreted p -> "interpreted:" ^ p.Eden_bytecode.Program.name
    | Enclave.Compiled p -> "compiled:" ^ p.Eden_bytecode.Program.name
    | Enclave.Native _ -> "native"
  in
  (s.Enclave.i_name, impl, List.sort compare s.Enclave.i_msg_sources)

let rule_key table pattern action = (table, Pattern.to_string pattern, action)

(* Multiset difference of [xs] over [ys] by [key]: every occurrence in
   [xs] not matched one-for-one by an occurrence in [ys]. *)
let multiset_diff key xs ys =
  let remaining = Hashtbl.create 16 in
  List.iter
    (fun y ->
      let k = key y in
      Hashtbl.replace remaining k (1 + Option.value ~default:0 (Hashtbl.find_opt remaining k)))
    ys;
  List.filter
    (fun x ->
      let k = key x in
      match Hashtbl.find_opt remaining k with
      | Some n when n > 0 ->
        Hashtbl.replace remaining k (n - 1);
        false
      | _ -> true)
    xs

let diff_against_desired t (sn : Enclave.snapshot) ~acked =
  let d = t.desired in
  let desired_specs = Desired.actions d in
  let actual_keys = List.map spec_key sn.Enclave.sn_actions in
  let desired_keys = List.map spec_key desired_specs in
  let missing_actions =
    List.filter_map
      (fun s -> if List.mem (spec_key s) actual_keys then None else Some s.Enclave.i_name)
      desired_specs
  in
  let extra_actions =
    List.filter_map
      (fun s -> if List.mem (spec_key s) desired_keys then None else Some s.Enclave.i_name)
      sn.Enclave.sn_actions
  in
  let actual_rules =
    List.concat_map
      (fun (table, rs) ->
        List.map (fun (r : Table.rule) -> (table, r.Table.rule_id, r.Table.pattern, r.Table.action)) rs)
      sn.Enclave.sn_rules
  in
  let desired_rules = Desired.rules d in
  let missing_rules =
    multiset_diff
      (fun (r : Desired.rule) -> rule_key r.dr_table r.dr_pattern r.dr_action)
      desired_rules
      (List.map
         (fun (tb, _, p, a) -> { Desired.dr_id = 0; dr_table = tb; dr_pattern = p; dr_action = a })
         actual_rules)
  in
  let extra_rules =
    multiset_diff
      (fun (tb, _, p, a) -> rule_key tb p a)
      actual_rules
      (List.map
         (fun (r : Desired.rule) -> (r.dr_table, 0, r.dr_pattern, r.dr_action))
         desired_rules)
    |> List.map (fun (tb, id, _, _) -> (tb, id))
  in
  let actual_globals action =
    match List.assoc_opt action sn.Enclave.sn_globals with Some bs -> bs | None -> []
  in
  let actual_arrays action =
    match List.assoc_opt action sn.Enclave.sn_arrays with Some bs -> bs | None -> []
  in
  let stale_globals =
    List.concat_map
      (fun name ->
        List.filter_map
          (fun (k, v) ->
            if List.assoc_opt k (actual_globals name) = Some v then None else Some (name, k))
          (Desired.globals_of d name))
      (Desired.action_names d)
  in
  let stale_arrays =
    List.concat_map
      (fun name ->
        List.filter_map
          (fun (k, v) ->
            if List.assoc_opt k (actual_arrays name) = Some v then None else Some (name, k))
          (Desired.arrays_of d name))
      (Desired.action_names d)
  in
  {
    df_missing_actions = missing_actions;
    df_extra_actions = extra_actions;
    df_missing_rules = missing_rules;
    df_extra_rules = extra_rules;
    df_stale_globals = stale_globals;
    df_stale_arrays = stale_arrays;
    df_desired_generation = Desired.generation d;
    df_acked_generation = acked;
  }

let pp_drift fmt d =
  Format.fprintf fmt
    "@[<v>missing actions: [%s]@,extra actions: [%s]@,missing rules: %d@,extra rules: %d@,\
     stale globals: %d@,stale arrays: %d@,generation: desired %d, acked %d@]"
    (String.concat "," d.df_missing_actions)
    (String.concat "," d.df_extra_actions)
    (List.length d.df_missing_rules) (List.length d.df_extra_rules)
    (List.length d.df_stale_globals) (List.length d.df_stale_arrays)
    d.df_desired_generation d.df_acked_generation

type reconcile_outcome =
  | In_sync
  | Repaired of int  (** ops replayed *)
  | Unreachable of string
  | Repair_failed of string

let reconcile_outcome_to_string = function
  | In_sync -> "in sync"
  | Repaired n -> Printf.sprintf "repaired (%d ops)" n
  | Unreachable msg -> "unreachable: " ^ msg
  | Repair_failed msg -> "repair failed: " ^ msg

(* One anti-entropy round for one enclave: pull its configuration and
   generation watermark, diff against desired, replay the delta, commit
   the generation.  Repair order matters: extra rules go before extra
   actions (removing an action drops its rules at the enclave), missing
   actions before their state and rules (the enclave refuses rules and
   state for unknown actions — which is also why a packet can never
   match a half-installed action: the rule that would route to it cannot
   exist before the install has fully succeeded). *)
let reconcile_enclave t ch =
  Tel.Counter.inc t.cm_reconcile_rounds;
  let d = t.desired in
  let gen = Desired.generation d in
  match Channel.pull_state ch with
  | Error e -> Unreachable (Channel.error_to_string e)
  | Ok (sn, acked) -> (
    let drift = diff_against_desired t sn ~acked in
    if drift_in_sync drift then begin
      Channel.clear_divergent ch;
      In_sync
    end
    else begin
      let ops = ref 0 in
      let step op =
        incr ops;
        match send_with_retry t ch ~gen op with
        | Ok _ -> Ok ()
        | Error (`Rejected msg) -> Error (Channel.op_to_string op ^ ": rejected: " ^ msg)
        | Error (`Unreachable msg) -> Error (Channel.op_to_string op ^ ": " ^ msg)
      in
      let ( let* ) = Result.bind in
      let rec each f = function
        | [] -> Ok ()
        | x :: rest ->
          let* () = f x in
          each f rest
      in
      let specs_by_name = List.map (fun s -> (s.Enclave.i_name, s)) (Desired.actions d) in
      let repair =
        let* () =
          each (fun (table, rule_id) -> step (Channel.Remove_rule { table; rule_id }))
            drift.df_extra_rules
        in
        let* () =
          each (fun name -> step (Channel.Remove_action name)) drift.df_extra_actions
        in
        let* () =
          (* Bring the table count up; spare tables at the enclave are
             harmless (empty tables match nothing). *)
          let have = List.length sn.Enclave.sn_rules in
          let want = Desired.tables d in
          let rec mk n = if n <= 0 then Ok () else
            let* () = step Channel.Add_table in
            mk (n - 1)
          in
          mk (want - have)
        in
        let* () =
          each
            (fun name ->
              match List.assoc_opt name specs_by_name with
              | Some spec -> step (Channel.Install_action spec)
              | None -> Ok ())
            drift.df_missing_actions
        in
        let* () =
          each
            (fun (action, name) ->
              match Desired.global d ~action name with
              | Some value -> step (Channel.Set_global { action; name; value })
              | None -> Ok ())
            drift.df_stale_globals
        in
        let* () =
          each
            (fun (action, name) ->
              match Desired.global_array d ~action name with
              | Some value -> step (Channel.Set_global_array { action; name; value })
              | None -> Ok ())
            drift.df_stale_arrays
        in
        let* () =
          each
            (fun (r : Desired.rule) ->
              step (Channel.Add_rule { table = r.dr_table; pattern = r.dr_pattern; action = r.dr_action }))
            drift.df_missing_rules
        in
        step Channel.Commit_generation
      in
      match repair with
      | Error msg -> Repair_failed msg
      | Ok () -> (
        (* Verify: the proof of convergence is the re-pulled config, not
           the ops having been acked. *)
        match Channel.pull_state ch with
        | Error e -> Unreachable (Channel.error_to_string e)
        | Ok (sn, acked) ->
          let drift = diff_against_desired t sn ~acked in
          if drift_in_sync drift then begin
            Channel.clear_divergent ch;
            Tel.Counter.add t.cm_reconcile_replayed !ops;
            Repaired !ops
          end
          else Repair_failed (Format.asprintf "residual drift: %a" pp_drift drift))
    end)

let reconcile t =
  List.map (fun ch -> (Channel.host ch, reconcile_enclave t ch)) (channels t)

let converged t =
  List.for_all
    (fun ch ->
      match Channel.pull_state ch with
      | Error _ -> false
      | Ok (sn, acked) -> drift_in_sync (diff_against_desired t sn ~acked))
    (channels t)

(* ------------------------------------------------------------------ *)
(* Telemetry *)

let sync_telemetry t =
  let gen = Desired.generation t.desired in
  Tel.Gauge.set_int t.cg_generation gen;
  let min_acked =
    List.fold_left (fun acc ch -> min acc (Channel.acked_generation ch)) max_int t.chans
  in
  let lag = if t.chans = [] then 0 else max 0 (gen - min_acked) in
  Tel.Gauge.set_int t.cg_generation_lag lag;
  Tel.Gauge.set_int t.cg_divergent (List.length (divergent_hosts t))

let telemetry t =
  sync_telemetry t;
  t.tel

let scrape t =
  sync_telemetry t;
  Tel.Registry.merge
    (Tel.Registry.scrape t.tel :: List.map Channel.scrape (channels t))

(* ------------------------------------------------------------------ *)
(* Monitoring *)

type enclave_report = {
  er_host : Eden_base.Addr.host;
  er_placement : Enclave.placement;
  er_packets : int;
  er_invocations : int;
  er_dropped : int;
  er_faults : int;
  er_interp_steps : int;
  er_actions : string list;
  er_overhead_pct : float;
  er_generation : int;
  er_restarts : int;
  er_quarantined : int;
}

let collect_reports t =
  List.filter_map
    (fun ch ->
      match
        Channel.read ch (fun e ->
            let c = Enclave.counters e in
            {
              er_host = Enclave.host e;
              er_placement = Enclave.placement e;
              er_packets = c.Enclave.packets;
              er_invocations = c.Enclave.invocations;
              er_dropped = c.Enclave.dropped;
              er_faults = c.Enclave.faults;
              er_interp_steps = c.Enclave.interp_steps;
              er_actions = Enclave.action_names e;
              er_overhead_pct =
                Eden_enclave.Cost.overhead_pct (Enclave.cost_model e) (Enclave.cost e);
              er_generation = Channel.acked_generation ch;
              er_restarts = Enclave.restarts e;
              er_quarantined = c.Enclave.quarantined;
            })
      with
      | Ok r -> Some r
      | Error _ -> None)
    (channels t)

let pp_reports fmt reports =
  Format.fprintf fmt "@[<v>%-6s %-4s %10s %10s %7s %7s %9s %7s %4s %4s  %s@,"
    "host" "plc" "packets" "invocs" "drops" "faults" "steps" "ovh%" "gen" "rst" "actions";
  List.iter
    (fun r ->
      Format.fprintf fmt "%-6d %-4s %10d %10d %7d %7d %9d %6.2f%% %4d %4d  %s@," r.er_host
        (Enclave.placement_to_string r.er_placement)
        r.er_packets r.er_invocations r.er_dropped r.er_faults r.er_interp_steps
        r.er_overhead_pct r.er_generation r.er_restarts
        (String.concat "," r.er_actions))
    reports;
  Format.fprintf fmt "@]"

(* Equal-split quantile thresholds (the PIAS control plane recomputes
   these periodically from the observed flow-size distribution). *)
let pias_thresholds ~cdf ~levels =
  if levels < 2 then invalid_arg "Controller.pias_thresholds: need >= 2 levels";
  let dist = Eden_base.Dist.Empirical_cdf.create cdf in
  Array.init (levels - 1) (fun i ->
      let q = float_of_int (i + 1) /. float_of_int levels in
      Int64.of_float (Eden_base.Dist.Empirical_cdf.quantile dist q))

let wcmp_path_matrix t ~src ~dst ~labels =
  let weighted = Topology.wcmp_weights t.topo ~src ~dst in
  let entries =
    List.filter_map
      (fun (path, w) ->
        match
          List.find_opt (fun (p, _) -> List.equal String.equal p path) labels
        with
        | Some (_, label) -> Some (label, w)
        | None -> None)
      weighted
  in
  let arr = Array.make (2 * List.length entries) 0L in
  List.iteri
    (fun i (label, w) ->
      arr.(2 * i) <- Int64.of_int label;
      arr.((2 * i) + 1) <- Int64.of_float (Float.round (w *. 1000.0)))
    entries;
  arr
