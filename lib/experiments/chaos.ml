module Addr = Eden_base.Addr
module Packet = Eden_base.Packet
module Metadata = Eden_base.Metadata
module Time = Eden_base.Time
module Enclave = Eden_enclave.Enclave
module Config = Eden_enclave.Config
module Table = Eden_enclave.Table
module Breaker = Eden_enclave.Breaker
module Registry = Eden_telemetry.Registry
module Net = Eden_netsim.Net
module Host = Eden_netsim.Host
module Switch = Eden_netsim.Switch
module Tcp = Eden_netsim.Tcp
module Controller = Eden_controller.Controller
module Channel = Eden_controller.Channel
module Policy = Eden_controller.Policy
module Pias = Eden_functions.Pias
module Wcmp = Eden_functions.Wcmp

type check = { ck_name : string; ck_ok : bool; ck_detail : string }

type report = {
  r_scenario : string;
  r_seed : int64;
  r_checks : check list;
  r_ops_sent : int;
  r_faults_injected : int;
  r_retries : int;
  r_restarts : int;
  r_enclave_faults : int;
}

let passed r = List.for_all (fun c -> c.ck_ok) r.r_checks
let all_passed rs = List.for_all passed rs

(* ------------------------------------------------------------------ *)
(* Invariant plumbing.

   Each scenario accumulates named checks; [observe] is called at every
   step boundary and folds in the cross-cutting invariants:
   - generation monotonicity (the desired generation never goes back);
   - acked <= desired on every channel (a watermark can lag or be wiped
     to zero by a restart, never run ahead);
   - no half-installed action is matchable: every rule on every enclave
     names a fully installed action (structural — the enclave refuses
     rules for unknown actions, so this must hold at EVERY observation
     point, faults or not). *)

type ctx = {
  ctl : Controller.t;
  mutable checks : check list;  (* newest first *)
  mutable last_gen : int;
  mutable gen_monotone : bool;
  mutable acked_bounded : bool;
  mutable rules_wellformed : bool;
}

let make_ctx ctl =
  {
    ctl;
    checks = [];
    last_gen = Controller.generation ctl;
    gen_monotone = true;
    acked_bounded = true;
    rules_wellformed = true;
  }

let check cx name ok detail = cx.checks <- { ck_name = name; ck_ok = ok; ck_detail = detail } :: cx.checks

let snapshot_wellformed sn =
  List.for_all
    (fun (_, rules) ->
      List.for_all
        (fun (r : Table.rule) ->
          List.exists
            (fun s -> String.equal s.Config.i_name r.Table.action)
            sn.Config.sn_actions)
        rules)
    sn.Config.sn_rules

(* A counter's total in a scrape. *)
let scraped name samples =
  List.fold_left
    (fun acc (x : Registry.sample) ->
      match x.s_value with
      | Registry.Counter n when String.equal x.s_name name -> acc + n
      | _ -> acc)
    0 samples

let observe cx =
  let g = Controller.generation cx.ctl in
  if g < cx.last_gen then cx.gen_monotone <- false;
  cx.last_gen <- g;
  List.iter
    (fun ch ->
      if Channel.acked_generation ch > g then cx.acked_bounded <- false;
      (* Inspect the enclave directly: invariants must hold even on
         partitioned hosts, where the controller cannot look. *)
      if not (snapshot_wellformed (Enclave.snapshot (Channel.enclave ch))) then
        cx.rules_wellformed <- false)
    (Controller.channels cx.ctl)

(* ------------------------------------------------------------------ *)
(* Shared scaffolding: two hosts behind one switch, both with OS-placed
   enclaves registered at the controller; h0 -> h1 and h1 -> h0 flows
   can run while the control plane misbehaves. *)

let probe_flow ~src ~dst ~port =
  Addr.five_tuple ~src:(Addr.endpoint src port) ~dst:(Addr.endpoint dst 80) ~proto:Addr.Tcp

let probe_packet ?(id = 0L) ?(payload = 1000) f =
  Packet.make ~id ~flow:f ~kind:Packet.Data ~payload ~metadata:Metadata.empty ()

type fleet = {
  fl_net : Net.t;
  fl_ctl : Controller.t;
  fl_enclaves : Enclave.t array;
}

let build_fleet ~seed ~hosts () =
  let net = Net.create ~seed () in
  let sw = Net.add_switch net in
  let ctl = Controller.create ~seed () in
  let enclaves =
    Array.init hosts (fun _ ->
        let h = Net.add_host net in
        let port = Net.connect_host net h sw ~rate_bps:10e9 () in
        Switch.set_dst_route sw ~dst:(Host.id h) ~ports:[ port ];
        let e = Enclave.create ~host:(Host.id h) ~seed () in
        Host.set_enclave h e;
        Controller.register_enclave ctl e;
        e)
  in
  { fl_net = net; fl_ctl = ctl; fl_enclaves = enclaves }

let finish fl cx ~scenario ~seed =
  check cx "generation monotone" cx.gen_monotone "desired generation never decreased";
  check cx "acked <= desired" cx.acked_bounded "no enclave acked a generation ahead of desired";
  check cx "no half-installed action matchable" cx.rules_wellformed
    "every rule on every enclave names a fully installed action";
  let sum f = List.fold_left (fun acc ch -> acc + f ch) 0 (Controller.channels cx.ctl) in
  {
    r_scenario = scenario;
    r_seed = seed;
    r_checks = List.rev cx.checks;
    r_ops_sent = sum Channel.ops_sent;
    r_faults_injected = sum Channel.faults_injected;
    r_retries = (Controller.stats cx.ctl).Controller.rs_retries;
    r_restarts = sum (fun ch -> Enclave.restarts (Channel.enclave ch));
    r_enclave_faults =
      List.fold_left
        (fun acc h -> acc + scraped "eden_enclave_faults_total" (Host.scrape h))
        0 (Net.hosts fl.fl_net);
  }

let channel fl host = Option.get (Controller.channel_for fl.fl_ctl host)

let run_flows fl ~from ~until ~size =
  let before = List.length (Net.completions fl.fl_net) in
  let f = Net.start_flow fl.fl_net ~src:from ~dst:(1 - from) ~size () in
  ignore f;
  Net.run ~until fl.fl_net;
  List.length (Net.completions fl.fl_net) - before

(* ------------------------------------------------------------------ *)
(* Scenario 1: network partition during a PIAS threshold push.

   The controller updates PIAS demotion thresholds while host 1 is
   partitioned from it.  The partitioned enclave must keep forwarding on
   the stale thresholds (the paper's §2.2 story), the reachable one must
   run the new policy immediately, and after the partition heals one
   reconcile round must converge host 1 — without reinstalling anything
   on host 0 or restarting the controller. *)

let scenario_partition ~seed =
  let fl = build_fleet ~seed ~hosts:2 () in
  let cx = make_ctx fl.fl_ctl in
  let loose = [ (1.0e6, 0.5); (2.0e6, 1.0) ] in
  let tight = [ (100.0, 0.5); (200.0, 1.0) ] in
  (match Policy.flow_scheduling fl.fl_ctl ~scheme:`Pias ~cdf:loose () with
  | Ok () -> check cx "pias deployed" true ""
  | Error msg -> check cx "pias deployed" false msg);
  observe cx;
  let gen_installed = Controller.generation fl.fl_ctl in
  (* Partition host 1 from the controller (data path unaffected). *)
  Channel.set_partitioned (channel fl 1) true;
  let push = Policy.update_flow_scheduling_thresholds fl.fl_ctl ~scheme:`Pias ~cdf:tight () in
  observe cx;
  check cx "push commits despite partition" (push = Ok ())
    "transient failure must not abandon the desired change";
  check cx "generation bumped once" (Controller.generation fl.fl_ctl = gen_installed + 1) "";
  check cx "host 1 marked divergent"
    (Controller.divergent_hosts fl.fl_ctl = [ 1 ])
    "the unreachable enclave is tracked for reconciliation";
  (* Stale-policy forwarding: the partitioned enclave still schedules
     packets — with the OLD thresholds (1000-byte messages stay at the
     top priority), while host 0 already demotes them. *)
  let p0 = probe_packet (probe_flow ~src:0 ~dst:1 ~port:2001) in
  ignore (Enclave.process fl.fl_enclaves.(0) ~now:(Time.us 1) p0);
  let p1 = probe_packet (probe_flow ~src:1 ~dst:0 ~port:2002) in
  ignore (Enclave.process fl.fl_enclaves.(1) ~now:(Time.us 1) p1);
  check cx "reachable host runs new policy" (p0.Packet.priority < 7)
    (Printf.sprintf "priority %d under tight thresholds" p0.Packet.priority);
  check cx "partitioned host forwards on stale policy" (p1.Packet.priority = 7)
    (Printf.sprintf "priority %d under the old thresholds" p1.Packet.priority);
  (* And its data path genuinely still carries traffic. *)
  let done_during = run_flows fl ~from:1 ~until:(Time.ms 50) ~size:200_000 in
  check cx "flows complete during partition" (done_during = 1)
    (Printf.sprintf "%d completions" done_during);
  observe cx;
  (* Heal and reconcile. *)
  Channel.set_partitioned (channel fl 1) false;
  let outcomes = Controller.reconcile fl.fl_ctl in
  observe cx;
  let outcome_of h = List.assoc h outcomes in
  check cx "host 0 already in sync" (outcome_of 0 = Controller.In_sync) "";
  check cx "host 1 repaired"
    (match outcome_of 1 with Controller.Repaired _ -> true | _ -> false)
    (Controller.reconcile_outcome_to_string (outcome_of 1));
  check cx "fleet converged after heal" (Controller.converged fl.fl_ctl) "";
  check cx "no divergent hosts remain" (Controller.divergent_hosts fl.fl_ctl = []) "";
  check cx "watermark caught up"
    (Channel.acked_generation (channel fl 1) = Controller.generation fl.fl_ctl)
    "";
  let p1' = probe_packet (probe_flow ~src:1 ~dst:0 ~port:2003) in
  ignore (Enclave.process fl.fl_enclaves.(1) ~now:(Time.ms 60) p1');
  check cx "healed host runs new policy" (p1'.Packet.priority < 7)
    (Printf.sprintf "priority %d" p1'.Packet.priority);
  finish fl cx ~scenario:"partition-during-pias-push" ~seed

(* ------------------------------------------------------------------ *)
(* Scenario 2: enclave crash in the middle of a WCMP matrix update.

   Host 1's enclave crashes (losing ALL soft state) exactly when the
   controller pushes a new path matrix.  The retried push finds an empty
   enclave and is refused — the change is abandoned and undone on host 0,
   so the fleet stays on the old matrix; the crashed host degrades to
   default forwarding rather than half a policy; reconcile reinstalls
   everything from the desired state; the re-pushed matrix then lands. *)

let scenario_crash_mid_update ~seed =
  let fl = build_fleet ~seed ~hosts:2 () in
  let cx = make_ctx fl.fl_ctl in
  let m0 = [| 101L; 900L; 102L; 100L |] in
  let m1 = [| 101L; 500L; 102L; 500L |] in
  let ( let* ) = Result.bind in
  let deployed =
    let* () = Controller.install_action_everywhere fl.fl_ctl (Wcmp.spec ()) in
    let* () = Controller.set_global_array_everywhere fl.fl_ctl ~action:"wcmp" "Paths" m0 in
    Controller.add_rule_everywhere fl.fl_ctl ~pattern:Wcmp.rule_pattern ~action:"wcmp" ()
  in
  check cx "wcmp deployed" (deployed = Ok ()) "";
  observe cx;
  let gen0 = Controller.generation fl.fl_ctl in
  (* Crash host 1 on its next delivery: the matrix push. *)
  Channel.script (channel fl 1) [ (Channel.ops_sent (channel fl 1), Channel.Crash_restart) ];
  let push = Controller.set_global_array_everywhere fl.fl_ctl ~action:"wcmp" "Paths" m1 in
  observe cx;
  check cx "push refused after crash" (Result.is_error push)
    "the restarted enclave has no wcmp action; the retried op is rejected";
  check cx "generation unchanged by failed push" (Controller.generation fl.fl_ctl = gen0) "";
  check cx "desired state keeps old matrix"
    (let desired = Controller.desired fl.fl_ctl in
     Option.bind (List.assoc_opt "wcmp" desired.Config.sn_arrays) (List.assoc_opt "Paths")
     = Some m0)
    "";
  check cx "survivor rolled back to old matrix"
    (Enclave.get_global_array fl.fl_enclaves.(0) ~action:"wcmp" "Paths" = Some m0)
    "";
  check cx "crash wiped the enclave" (Enclave.action_names fl.fl_enclaves.(1) = []) "";
  (* Graceful degradation: the crashed host forwards with no policy. *)
  let p = probe_packet (probe_flow ~src:1 ~dst:0 ~port:3001) in
  (match Enclave.process fl.fl_enclaves.(1) ~now:(Time.us 1) p with
  | Enclave.Forward _ ->
    check cx "crashed host forwards by default" (p.Packet.route_label = None)
      "no stale label from a wiped policy"
  | Enclave.Dropped _ -> check cx "crashed host forwards by default" false "packet dropped");
  let done_degraded = run_flows fl ~from:1 ~until:(Time.ms 50) ~size:200_000 in
  check cx "flows complete while degraded" (done_degraded = 1)
    (Printf.sprintf "%d completions" done_degraded);
  observe cx;
  (* Reconcile: full reinstall from the desired state, no controller restart. *)
  let outcomes = Controller.reconcile fl.fl_ctl in
  observe cx;
  check cx "crashed host repaired"
    (match List.assoc 1 outcomes with Controller.Repaired _ -> true | _ -> false)
    (Controller.reconcile_outcome_to_string (List.assoc 1 outcomes));
  check cx "fleet converged on old matrix" (Controller.converged fl.fl_ctl) "";
  check cx "restart was honest"
    (Enclave.restarts fl.fl_enclaves.(1) = 1)
    "exactly one restart recorded";
  (* Now the update goes through cleanly. *)
  let push2 = Controller.set_global_array_everywhere fl.fl_ctl ~action:"wcmp" "Paths" m1 in
  observe cx;
  check cx "re-push succeeds" (push2 = Ok ()) "";
  check cx "both hosts on new matrix"
    (Enclave.get_global_array fl.fl_enclaves.(0) ~action:"wcmp" "Paths" = Some m1
    && Enclave.get_global_array fl.fl_enclaves.(1) ~action:"wcmp" "Paths" = Some m1)
    "";
  check cx "fleet converged on new matrix" (Controller.converged fl.fl_ctl) "";
  finish fl cx ~scenario:"crash-mid-wcmp-update" ~seed

(* ------------------------------------------------------------------ *)
(* Scenario 3: duplicate delivery and lost acks during installs.

   Every push to host 0 is delivered twice and every push to host 1
   loses its first ack (forcing a retry of an already-applied op).  The
   op-id memo must make all of it exactly-once: one action, one rule,
   one generation bump per logical change. *)

let scenario_duplicate_installs ~seed =
  let fl = build_fleet ~seed ~hosts:2 () in
  let cx = make_ctx fl.fl_ctl in
  let thresholds = [| 10_000L; 100_000L |] in
  Channel.script (channel fl 0) (List.init 8 (fun i -> (i, Channel.Duplicate)));
  Channel.script (channel fl 1) (List.init 8 (fun i -> (2 * i, Channel.Ack_lost)));
  let gen0 = Controller.generation fl.fl_ctl in
  let ( let* ) = Result.bind in
  let deployed =
    let* () = Controller.install_action_everywhere fl.fl_ctl (Pias.spec ()) in
    let* () =
      Controller.set_global_array_everywhere fl.fl_ctl ~action:"pias" "Thresholds" thresholds
    in
    Controller.add_rule_everywhere fl.fl_ctl ~pattern:Pias.rule_pattern ~action:"pias" ()
  in
  observe cx;
  check cx "all pushes succeed through faults" (deployed = Ok ()) "";
  check cx "retries actually happened" ((Controller.stats fl.fl_ctl).Controller.rs_retries > 0)
    (Printf.sprintf "%d retries" (Controller.stats fl.fl_ctl).Controller.rs_retries);
  check cx "generation bumped exactly three times"
    (Controller.generation fl.fl_ctl = gen0 + 3)
    (Printf.sprintf "generation %d, expected %d — duplicates and retried acks must not \
                     double-bump" (Controller.generation fl.fl_ctl) (gen0 + 3));
  Array.iteri
    (fun i e ->
      let sn = Enclave.snapshot e in
      check cx
        (Printf.sprintf "host %d installed exactly once" i)
        (Enclave.action_names e = [ "pias" ])
        (String.concat "," (Enclave.action_names e));
      let nrules =
        List.fold_left (fun acc (_, rs) -> acc + List.length rs) 0 sn.Config.sn_rules
      in
      check cx (Printf.sprintf "host %d has exactly one rule" i) (nrules = 1)
        (Printf.sprintf "%d rules" nrules))
    fl.fl_enclaves;
  check cx "fleet converged" (Controller.converged fl.fl_ctl) "";
  check cx "watermarks caught up"
    (List.for_all
       (fun ch -> Channel.acked_generation ch = Controller.generation fl.fl_ctl)
       (Controller.channels fl.fl_ctl))
    "";
  finish fl cx ~scenario:"duplicate-installs" ~seed

(* ------------------------------------------------------------------ *)
(* Scenario 4: action fault storm trips the circuit breaker.

   A controller mistake (zero divisor pushed into global state) makes an
   action fault on every invocation.  Per-invocation fail-open already
   keeps packets flowing; the breaker additionally quarantines the action
   after a burst of faults, so packets stop paying the failed-invocation
   cost, and a half-open probe re-admits it once the controller repairs
   the state. *)

let scenario_breaker ~seed =
  let fl = build_fleet ~seed ~hosts:1 () in
  let cx = make_ctx fl.fl_ctl in
  let e = fl.fl_enclaves.(0) in
  let open Eden_lang in
  let schema = Schema.with_standard_packet ~global:[ Schema.field "D" ] () in
  let act = Dsl.(action "divider" (set_pkt "Priority" (int 6 / glob "D"))) in
  let program =
    match Compile.compile schema act with
    | Ok p -> p
    | Error err -> invalid_arg ("chaos: " ^ Compile.error_to_string err)
  in
  let ( let* ) = Result.bind in
  let deployed =
    let* () =
      Controller.install_action_everywhere fl.fl_ctl
        { Config.i_name = "divider"; i_impl = Config.Interpreted program; i_msg_sources = [] }
    in
    let* () = Controller.set_global_everywhere fl.fl_ctl ~action:"divider" "D" 2L in
    Controller.add_rule_everywhere fl.fl_ctl
      ~pattern:Eden_base.Class_name.Pattern.any ~action:"divider" ()
  in
  check cx "divider deployed" (deployed = Ok ()) "";
  let cfg =
    { Breaker.br_window = 16; br_min_samples = 4; br_threshold = 0.5; br_cooldown = Time.us 50 }
  in
  Enclave.set_breaker e (Some cfg);
  observe cx;
  let shoot ~from ~n ~port =
    let dropped = ref 0 in
    for i = 0 to n - 1 do
      let p = probe_packet ~id:(Int64.of_int i) (probe_flow ~src:0 ~dst:1 ~port) in
      match Enclave.process e ~now:(Time.add from (Time.ns (100 * i))) p with
      | Enclave.Dropped _ -> incr dropped
      | Enclave.Forward _ -> ()
    done;
    !dropped
  in
  let p0 = probe_packet (probe_flow ~src:0 ~dst:1 ~port:4000) in
  ignore (Enclave.process e ~now:Time.zero p0);
  check cx "healthy action applies policy" (p0.Packet.priority = 3)
    (Printf.sprintf "priority %d (6/2)" p0.Packet.priority);
  let d0 = shoot ~from:Time.zero ~n:20 ~port:4001 in
  check cx "healthy action stays closed"
    (Enclave.breaker_state e "divider" = Some `Closed)
    (Printf.sprintf "%d dropped" d0);
  (* The controller pushes a bad divisor: every invocation now faults. *)
  check cx "bad push accepted"
    (Controller.set_global_everywhere fl.fl_ctl ~action:"divider" "D" 0L = Ok ())
    "";
  observe cx;
  let counter name = scraped name (Enclave.scrape e) in
  let faults_before = counter "eden_enclave_faults_total" in
  let d1 = shoot ~from:(Time.us 10) ~n:30 ~port:4002 in
  let faults_during = counter "eden_enclave_faults_total" - faults_before in
  let quarantined = counter "eden_enclave_quarantined_total" in
  check cx "storm faults recorded" (faults_during >= cfg.Breaker.br_min_samples)
    (Printf.sprintf "%d faults" faults_during);
  check cx "breaker opened" (Enclave.breaker_state e "divider" = Some `Open)
    (Printf.sprintf "%d trips" (Enclave.breaker_trips e "divider"));
  check cx "quarantined packets fell through" (quarantined > 0)
    (Printf.sprintf "%d quarantined" quarantined);
  check cx "fail open throughout" (d1 = 0) (Printf.sprintf "%d dropped" d1);
  check cx "quarantine bounds the fault storm"
    (faults_during < 30)
    (Printf.sprintf "%d faults for 30 packets — the breaker must cut this short" faults_during);
  (* Controller repairs the state; after the cooldown one probe invocation
     closes the breaker again. *)
  check cx "repair push accepted"
    (Controller.set_global_everywhere fl.fl_ctl ~action:"divider" "D" 2L = Ok ())
    "";
  observe cx;
  let d2 = shoot ~from:(Time.ms 1) ~n:10 ~port:4003 in
  check cx "breaker recovered via half-open probe"
    (Enclave.breaker_state e "divider" = Some `Closed)
    "";
  let p = probe_packet (probe_flow ~src:0 ~dst:1 ~port:4004) in
  ignore (Enclave.process e ~now:(Time.ms 2) p);
  check cx "recovered action applies policy" (p.Packet.priority = 3)
    (Printf.sprintf "priority %d (6/2)" p.Packet.priority);
  check cx "no drops after recovery" (d2 = 0) (Printf.sprintf "%d dropped" d2);
  check cx "fleet converged" (Controller.converged fl.fl_ctl) "";
  finish fl cx ~scenario:"fault-storm-breaker" ~seed

(* ------------------------------------------------------------------ *)

let scenarios =
  [
    ("partition-during-pias-push", scenario_partition);
    ("crash-mid-wcmp-update", scenario_crash_mid_update);
    ("duplicate-installs", scenario_duplicate_installs);
    ("fault-storm-breaker", scenario_breaker);
  ]

let scenario_names = List.map fst scenarios

let run ?(seed = 42L) name =
  match List.assoc_opt name scenarios with
  | None -> Error (Printf.sprintf "unknown scenario %S (try: %s)" name (String.concat ", " scenario_names))
  | Some f -> Ok (f ~seed)

let run_all ?(seed = 42L) () = List.map (fun (_, f) -> f ~seed) scenarios

let print_report r =
  Printf.printf "scenario %s (seed %Ld): %s\n" r.r_scenario r.r_seed
    (if passed r then "PASS" else "FAIL");
  Printf.printf "  ops sent %d, faults injected %d, retries %d, enclave restarts %d\n"
    r.r_ops_sent r.r_faults_injected r.r_retries r.r_restarts;
  List.iter
    (fun c ->
      Printf.printf "  [%s] %s%s\n"
        (if c.ck_ok then "ok" else "FAIL")
        c.ck_name
        (if c.ck_detail = "" then "" else " — " ^ c.ck_detail))
    r.r_checks

let print reports =
  List.iter print_report reports;
  let failed = List.filter (fun r -> not (passed r)) reports in
  Printf.printf "%d/%d scenarios passed\n"
    (List.length reports - List.length failed)
    (List.length reports)
