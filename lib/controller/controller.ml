module Enclave = Eden_enclave.Enclave
module Config = Eden_enclave.Config
module Stage = Eden_stage.Stage
module Time = Eden_base.Time
module Rng = Eden_base.Rng
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
  mutable desired : Config.snapshot;
  mutable generation : int;
  retry : retry_policy;
  jitter : Rng.t;
  mutable next_op : int64;
  (* The retry and reconcile cells are bumped live and are the only
     record of those counts; the generation, lag and divergence gauges
     are derived from [generation] and the channels at scrape. *)
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
    desired = Config.empty;
    generation = 0;
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
      Tel.Registry.gauge tel ~help:"Generation of the desired configuration"
        "eden_controller_generation";
    cg_generation_lag =
      Tel.Registry.gauge tel ~help:"Generation lag: desired minus lowest acked watermark"
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
let generation t = t.generation
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

(* The op that takes back [op] on an enclave that applied it and acked
   [payload].  An added rule goes by the id that enclave returned; a
   state write puts back the desired value, or the reading of an unset
   key (0, the empty array) when the desired state holds none.  Tables
   cannot be removed; a spare table is harmless. *)
let undo_of t op payload =
  let desired per_action ~action name =
    Option.bind (List.assoc_opt action per_action) (List.assoc_opt name)
  in
  match op with
  | Config.Install_action spec -> Config.Remove_action spec.Config.i_name
  | Add_rule { table; _ } -> Remove_rule { table; rule_id = Int64.to_int payload }
  | Set_global { action; name; _ } ->
    let value = Option.value ~default:0L (desired t.desired.sn_globals ~action name) in
    Set_global { action; name; value }
  | Set_global_array { action; name; _ } ->
    let value = Option.value ~default:[||] (desired t.desired.sn_arrays ~action name) in
    Set_global_array { action; name; value }
  | Add_table | Remove_action _ | Remove_rule _ | Commit_generation -> Commit_generation

(* Failure-tolerant undo: send each applied enclave the undo of its own
   ack; a failing undo must not abort the remaining undos.  Returns the
   hosts left divergent (marked as such, so reconciliation picks them
   up). *)
let undo_on t op applied =
  List.filter_map
    (fun (ch, payload) ->
      match send_with_retry t ch ~gen:t.generation (undo_of t op payload) with
      | Ok _ -> None
      | Error _ ->
        Channel.mark_divergent ch;
        Some (Channel.host ch))
    applied

(* Send [op] to every enclave in registration order.  [`Applied] lists
   the enclaves that applied it with their acks; the unreachable ones
   are marked divergent. *)
let broadcast t ~gen op =
  let rec go applied = function
    | [] -> `Applied (List.rev applied)
    | ch :: rest -> (
      match send_with_retry t ch ~gen op with
      | Ok payload -> go ((ch, payload) :: applied) rest
      | Error (`Unreachable _) ->
        Channel.mark_divergent ch;
        go applied rest
      | Error (`Rejected msg) -> `Rejected (Channel.host ch, msg, List.rev applied))
  in
  go [] (channels t)

(* After a change commits, advance the applied enclaves' watermarks to
   the new generation.  [Commit_generation] cannot be rejected; a channel
   it cannot reach is left divergent for reconciliation. *)
let commit_watermark t applied =
  let gen = t.generation in
  List.iter
    (fun (ch, _) ->
      match send_with_retry t ch ~gen Config.Commit_generation with
      | Ok _ -> ()
      | Error _ -> Channel.mark_divergent ch)
    applied

(* The push driver, two-phase so that no enclave ever acknowledges a
   generation that did not commit.  [op] is taken through [Config.next]
   on the desired state once; an op it refuses is not sent.  Otherwise
   broadcast [op] at the *current* generation; on acceptance commit that
   desired state, bump the generation and only then advance the
   watermarks; on rejection undo it everywhere it landed — the aborted
   change never touched any watermark, preserving acked <= desired.
   Returns the desired state's payload. *)
let push t op =
  match Config.next t.desired op with
  | Error msg -> Error msg
  | Ok (desired, payload) -> (
    match broadcast t ~gen:t.generation op with
    | `Applied applied ->
      t.desired <- desired;
      t.generation <- t.generation + 1;
      commit_watermark t applied;
      Ok payload
    | `Rejected (host, msg, applied) -> (
      let refusal =
        Printf.sprintf "host %d rejected %s: %s" host (Config.op_to_string op) msg
      in
      match undo_on t op applied with
      | [] -> Error refusal
      | divergent ->
        Error
          (Printf.sprintf
             "%s; rollback failed on hosts [%s], left divergent pending reconciliation" refusal
             (hosts_to_string divergent))))

let install_action_everywhere t spec = Result.map ignore (push t (Config.Install_action spec))

let remove_action_everywhere t name =
  let held s = String.equal s.Config.i_name name in
  if not (List.exists held t.desired.sn_actions) then
    Error (Printf.sprintf "action %S is not in the desired state" name)
  else begin
    (* Removal is idempotent at the enclave, so there is no rejection to
       roll back from: commit the desired change, push best-effort, and
       let reconciliation catch stragglers. *)
    let op = Config.Remove_action name in
    t.desired <- fst (Result.get_ok (Config.next t.desired op));
    t.generation <- t.generation + 1;
    ignore (broadcast t ~gen:t.generation op);
    Ok ()
  end

let add_table_everywhere t = Result.map Int64.to_int (push t Config.Add_table)

let add_rule_everywhere t ?(table = 0) ~pattern ~action () =
  Result.map ignore (push t (Config.Add_rule { table; pattern; action }))

let set_global_everywhere t ~action name value =
  Result.map ignore (push t (Config.Set_global { action; name; value }))

let set_global_array_everywhere t ~action name value =
  Result.map ignore (push t (Config.Set_global_array { action; name; value }))

(* ------------------------------------------------------------------ *)
(* Stage programming (stages are in-process; the fault model covers the
   controller→enclave path, which is the one the paper's consistency
   story depends on).  Stage rules are not part of the desired enclave
   configuration, so programming a stage leaves the generation alone:
   no enclave has anything to catch up on. *)

let program_stage t ~stage ~ruleset ~rules =
  match find_stage t stage with
  | None -> Error (Printf.sprintf "stage %S not registered" stage)
  | Some s ->
    let rec go = function
      | [] -> Ok ()
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

(* The ops that take a pulled configuration to the desired one. *)
let drift t sn = Config.diff ~desired:t.desired ~actual:sn

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
   generation watermark, diff against desired, send the diff's ops in
   order and commit the generation, stopping at the first failure. *)
let reconcile_enclave t ch =
  Tel.Counter.inc t.cm_reconcile_rounds;
  let gen = t.generation in
  match Channel.pull_state ch with
  | Error e -> Unreachable (Channel.error_to_string e)
  | Ok (sn, acked) -> (
    match drift t sn with
    | [] when acked = gen ->
      Channel.clear_divergent ch;
      In_sync
    | repair -> (
      let rec replay n = function
        | [] -> Ok n
        | op :: rest -> (
          match send_with_retry t ch ~gen op with
          | Ok _ -> replay (n + 1) rest
          | Error (`Rejected msg) -> Error (Config.op_to_string op ^ ": rejected: " ^ msg)
          | Error (`Unreachable msg) -> Error (Config.op_to_string op ^ ": " ^ msg))
      in
      match replay 0 (repair @ [ Config.Commit_generation ]) with
      | Error msg -> Repair_failed msg
      | Ok n -> (
        (* Verify: the proof of convergence is the re-pulled config, not
           the ops having been acked. *)
        match Channel.pull_state ch with
        | Error e -> Unreachable (Channel.error_to_string e)
        | Ok (sn, acked) -> (
          match drift t sn with
          | [] when acked = gen ->
            Channel.clear_divergent ch;
            Tel.Counter.add t.cm_reconcile_replayed n;
            Repaired n
          | residual ->
            Repair_failed
              (Printf.sprintf "residual drift: [%s]; generation: desired %d, acked %d"
                 (String.concat "; " (List.map Config.op_to_string residual))
                 gen acked)))))

let reconcile t =
  List.map (fun ch -> (Channel.host ch, reconcile_enclave t ch)) (channels t)

let converged t =
  List.for_all
    (fun ch ->
      match Channel.pull_state ch with
      | Error _ -> false
      | Ok (sn, acked) -> drift t sn = [] && acked = t.generation)
    (channels t)

(* ------------------------------------------------------------------ *)
(* Telemetry *)

let sync_telemetry t =
  let gen = t.generation in
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
