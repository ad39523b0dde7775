(* Tests for the robustness layer: the fallible control channel's fault
   semantics, controller retry and desired-state reconciliation, the
   enclave's circuit breaker and snapshot/restore, and the chaos
   scenarios under their CI seed. *)

module Enclave = Eden_enclave.Enclave
module Config = Eden_enclave.Config
module Breaker = Eden_enclave.Breaker
module Channel = Eden_controller.Channel
module Controller = Eden_controller.Controller
module Policy = Eden_controller.Policy
module Chaos = Eden_experiments.Chaos
module Pias = Eden_functions.Pias
module Addr = Eden_base.Addr
module Packet = Eden_base.Packet
module Metadata = Eden_base.Metadata
module Class_name = Eden_base.Class_name
module Pattern = Class_name.Pattern
module Table = Eden_enclave.Table
module Time = Eden_base.Time
open Eden_lang

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let get_ok = function
  | Ok v -> v
  | Error msg -> Alcotest.failf "unexpected error: %s" msg

let get_sent = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected channel error: %s" (Channel.error_to_string e)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.equal (String.sub s i n) sub || go (i + 1)) in
  go 0

let flow ?(src = 1) ?(src_port = 1000) () =
  Addr.five_tuple ~src:(Addr.endpoint src src_port) ~dst:(Addr.endpoint 2 80)
    ~proto:Addr.Tcp

let data_packet ?(id = 0L) f =
  Packet.make ~id ~flow:f ~kind:Packet.Data ~payload:1000 ~metadata:Metadata.empty ()

(* An action that faults (division by zero) whenever the global [D] is
   zero — the controllable fault source for breaker tests. *)
let divider_spec =
  let schema = Schema.with_standard_packet ~global:[ Schema.field "D" ] () in
  let act = Dsl.(action "divider" (set_pkt "Priority" (int 6 / glob "D"))) in
  let program =
    match Compile.compile schema act with
    | Ok p -> p
    | Error e -> invalid_arg (Compile.error_to_string e)
  in
  { Enclave.i_name = "divider"; i_impl = Enclave.Interpreted program; i_msg_sources = [] }

let divider_enclave ~d =
  let e = Enclave.create ~host:1 () in
  get_ok (Enclave.install_action e divider_spec);
  get_ok (Enclave.set_global e ~action:"divider" "D" d);
  let _ = get_ok (Enclave.add_table_rule e ~pattern:Pattern.any ~action:"divider" ()) in
  e

let set_d = Config.Set_global { action = "divider"; name = "D"; value = 7L }

(* ------------------------------------------------------------------ *)
(* Channel fault semantics *)

let test_channel_drop () =
  let ch = Channel.create (divider_enclave ~d:1L) in
  Channel.script ch [ (0, Channel.Drop) ];
  (match Channel.send ch ~op_id:1L ~gen:1 set_d with
  | Error Channel.Lost -> ()
  | r -> Alcotest.failf "expected Lost, got %s" (match r with Ok _ -> "Ok" | Error e -> Channel.error_to_string e));
  check_bool "op not applied" true
    (Enclave.get_global (Channel.enclave ch) ~action:"divider" "D" = Some 1L);
  check_int "fault counted" 1 (Channel.faults_injected ch)

let test_channel_ack_lost_then_retry () =
  let ch = Channel.create (divider_enclave ~d:1L) in
  Channel.script ch [ (0, Channel.Ack_lost) ];
  (match Channel.send ch ~op_id:1L ~gen:1 set_d with
  | Error Channel.Timeout -> ()
  | _ -> Alcotest.fail "expected Timeout");
  check_bool "op applied despite lost ack" true
    (Enclave.get_global (Channel.enclave ch) ~action:"divider" "D" = Some 7L);
  (* The retry replays the memoized outcome instead of re-applying. *)
  let _ = get_sent (Channel.send ch ~op_id:1L ~gen:1 set_d) in
  check_int "acked generation advanced once" 1 (Channel.acked_generation ch)

let test_channel_duplicate_is_exactly_once () =
  let ch = Channel.create (divider_enclave ~d:1L) in
  Channel.script ch [ (0, Channel.Duplicate) ];
  let rule = Config.Add_rule { table = 0; pattern = Pattern.any; action = "divider" } in
  let _ = get_sent (Channel.send ch ~op_id:1L ~gen:1 rule) in
  let sn = Enclave.snapshot (Channel.enclave ch) in
  let nrules = List.fold_left (fun acc (_, rs) -> acc + List.length rs) 0 sn.Enclave.sn_rules in
  check_int "duplicate delivery added one rule, not two" 2 nrules
(* 2 = the rule installed by divider_enclave plus exactly one from the op. *)

let test_channel_delay () =
  let ch = Channel.create (divider_enclave ~d:1L) in
  Channel.script ch [ (0, Channel.Delay 1) ];
  (match Channel.send ch ~op_id:1L ~gen:1 set_d with
  | Error Channel.Timeout -> ()
  | _ -> Alcotest.fail "expected Timeout");
  check_int "op held back" 1 (Channel.delayed_count ch);
  check_bool "not applied yet" true
    (Enclave.get_global (Channel.enclave ch) ~action:"divider" "D" = Some 1L);
  (* The next protocol interaction first flushes what is due. *)
  let _ =
    get_sent
      (Channel.send ch ~op_id:2L ~gen:2
         (Config.Set_global { action = "divider"; name = "D"; value = 9L }))
  in
  check_int "nothing still delayed" 0 (Channel.delayed_count ch);
  check_bool "delayed op landed before the later one" true
    (Enclave.get_global (Channel.enclave ch) ~action:"divider" "D" = Some 9L)

let test_channel_crash_restart () =
  let ch = Channel.create (divider_enclave ~d:1L) in
  let _ = get_sent (Channel.send ch ~op_id:1L ~gen:1 set_d) in
  check_int "acked 1" 1 (Channel.acked_generation ch);
  Channel.script ch [ (1, Channel.Crash_restart) ];
  (match Channel.send ch ~op_id:2L ~gen:2 set_d with
  | Error Channel.Crashed -> ()
  | _ -> Alcotest.fail "expected Crashed");
  check_bool "soft state wiped" true (Enclave.action_names (Channel.enclave ch) = []);
  check_int "acked watermark wiped" 0 (Channel.acked_generation ch);
  check_int "restart recorded" 1 (Enclave.restarts (Channel.enclave ch));
  (* The memo died with the enclave: the retried op is genuinely
     re-applied, and fails because the action is gone. *)
  match Channel.send ch ~op_id:2L ~gen:2 set_d with
  | Error (Channel.Rejected _) -> ()
  | _ -> Alcotest.fail "expected Rejected on the wiped enclave"

let test_channel_partition () =
  let ch = Channel.create (divider_enclave ~d:1L) in
  Channel.set_partitioned ch true;
  (match Channel.send ch ~op_id:1L ~gen:1 set_d with
  | Error Channel.Partitioned -> ()
  | _ -> Alcotest.fail "expected Partitioned");
  (match Channel.pull_state ch with
  | Error Channel.Partitioned -> ()
  | _ -> Alcotest.fail "expected Partitioned read");
  Channel.set_partitioned ch false;
  check_bool "a partition drops, it does not queue" true
    (Enclave.get_global (Channel.enclave ch) ~action:"divider" "D" = Some 1L);
  let _ = get_sent (Channel.send ch ~op_id:2L ~gen:1 set_d) in
  ()

let test_channel_random_faults_deterministic () =
  let run () =
    let ch = Channel.create ~seed:9L (divider_enclave ~d:1L) in
    Channel.set_fault_rate ch 0.4;
    List.init 40 (fun i ->
        match Channel.send ch ~op_id:(Int64.of_int (i + 1)) ~gen:1 set_d with
        | Ok _ -> "ok"
        | Error e -> Channel.error_to_string e)
  in
  check_bool "same seed, same fault schedule" true (run () = run ())

(* ------------------------------------------------------------------ *)
(* Circuit breaker *)

let storm e ~from ~n =
  for i = 0 to n - 1 do
    let p = data_packet ~id:(Int64.of_int i) (flow ()) in
    ignore (Enclave.process e ~now:(Time.add from (Time.us i)) p)
  done

let test_breaker_disabled_by_default () =
  let e = divider_enclave ~d:0L in
  storm e ~from:Time.zero ~n:20;
  check_int "every invocation faulted" 20 (Enclave.counters e).Enclave.faults;
  check_int "nothing quarantined" 0 (Enclave.counters e).Enclave.quarantined;
  check_bool "no breaker state" true (Enclave.breaker_state e "divider" = None)

let breaker_cfg =
  { Breaker.br_window = 8; br_min_samples = 4; br_threshold = 0.5; br_cooldown = Time.us 100 }

let test_breaker_trips_and_quarantines () =
  let e = divider_enclave ~d:0L in
  Enclave.set_breaker e (Some breaker_cfg);
  storm e ~from:Time.zero ~n:20;
  check_bool "breaker open" true (Enclave.breaker_state e "divider" = Some `Open);
  check_int "tripped once" 1 (Enclave.breaker_trips e "divider");
  check_int "faults cut off at the trip point" 4 (Enclave.counters e).Enclave.faults;
  check_int "the rest quarantined" 16 (Enclave.counters e).Enclave.quarantined;
  (* Quarantined packets fall through to default forwarding. *)
  let p = data_packet (flow ()) in
  match Enclave.process e ~now:(Time.us 50) p with
  | Enclave.Forward _ -> ()
  | Enclave.Dropped r -> Alcotest.failf "quarantined packet dropped: %s" r

let test_breaker_half_open_recovery () =
  let e = divider_enclave ~d:0L in
  Enclave.set_breaker e (Some breaker_cfg);
  storm e ~from:Time.zero ~n:10;
  check_bool "open" true (Enclave.breaker_state e "divider" = Some `Open);
  (* Repair the state, then probe after the cooldown. *)
  get_ok (Enclave.set_global e ~action:"divider" "D" 3L);
  let p = data_packet (flow ()) in
  ignore (Enclave.process e ~now:(Time.ms 1) p);
  check_bool "probe closed the breaker" true
    (Enclave.breaker_state e "divider" = Some `Closed);
  check_int "probe applied the policy" 2 p.Packet.priority

let test_breaker_half_open_refail () =
  let e = divider_enclave ~d:0L in
  Enclave.set_breaker e (Some breaker_cfg);
  storm e ~from:Time.zero ~n:10;
  (* Still broken: the probe faults and the breaker reopens. *)
  ignore (Enclave.process e ~now:(Time.ms 1) (data_packet (flow ())));
  check_bool "reopened" true (Enclave.breaker_state e "divider" = Some `Open);
  check_int "second trip" 2 (Enclave.breaker_trips e "divider")

let test_breaker_config_validation () =
  let e = divider_enclave ~d:1L in
  Alcotest.check_raises "window too large"
    (Invalid_argument "Enclave.set_breaker: window must be in [1, 62]") (fun () ->
      Enclave.set_breaker e (Some { breaker_cfg with Breaker.br_window = 63 }))

(* ------------------------------------------------------------------ *)
(* Snapshot / restore *)

let test_snapshot_restore_roundtrip () =
  let e = divider_enclave ~d:5L in
  get_ok (Enclave.set_global_array e ~action:"divider" "A" [| 1L; 2L |]);
  let t1 = Enclave.add_table e in
  let _ = get_ok (Enclave.add_table_rule e ~table:t1 ~pattern:Pattern.any ~action:"divider" ()) in
  let sn = Enclave.snapshot e in
  let e2 = Enclave.create ~host:2 () in
  get_ok (Enclave.restore e2 sn);
  check_bool "restored configuration equals the original" true
    (Config.config_equal sn (Enclave.snapshot e2));
  (* And it behaves: the restored divider applies 6/5 = 1. *)
  let p = data_packet (flow ()) in
  ignore (Enclave.process e2 ~now:Time.zero p);
  check_int "restored action runs" 1 p.Packet.priority

let test_restart_wipes_but_forwards () =
  let e = divider_enclave ~d:5L in
  ignore (Enclave.process e ~now:Time.zero (data_packet (flow ())));
  Enclave.restart e;
  check_bool "actions gone" true (Enclave.action_names e = []);
  check_int "counters reset" 0 (Enclave.counters e).Enclave.packets;
  check_int "restart counted" 1 (Enclave.restarts e);
  let p = data_packet (flow ()) in
  match Enclave.process e ~now:(Time.us 1) p with
  | Enclave.Forward _ -> check_bool "no stale policy applied" true (p.Packet.priority = 0)
  | Enclave.Dropped r -> Alcotest.failf "wiped enclave dropped the packet: %s" r

(* ------------------------------------------------------------------ *)
(* Controller: retry, rollback, reconciliation *)

let fresh_fleet ?(hosts = 2) () =
  let ctl = Controller.create ~seed:11L () in
  let enclaves =
    Array.init hosts (fun i ->
        let e = Enclave.create ~host:i () in
        Controller.register_enclave ctl e;
        e)
  in
  (ctl, enclaves)

let chan ctl h = Option.get (Controller.channel_for ctl h)

let test_retry_is_deterministic () =
  let run () =
    let ctl, _ = fresh_fleet ~hosts:1 () in
    Channel.script (chan ctl 0) [ (0, Channel.Drop); (1, Channel.Drop) ];
    get_ok (Controller.install_action_everywhere ctl divider_spec);
    let s = Controller.stats ctl in
    (s.Controller.rs_attempts, s.Controller.rs_retries, s.Controller.rs_backoff)
  in
  check_bool "same seed, same retries and jitter" true (run () = run ())

let test_retry_exhaustion_marks_divergent () =
  let ctl, enclaves = fresh_fleet () in
  (* Host 1 drops everything: the push commits anyway, host 1 diverges. *)
  Channel.script (chan ctl 1) (List.init 16 (fun i -> (i, Channel.Drop)));
  get_ok (Controller.install_action_everywhere ctl divider_spec);
  check_bool "host 0 got the action" true (Enclave.action_names enclaves.(0) = [ "divider" ]);
  check_bool "host 1 did not" true (Enclave.action_names enclaves.(1) = []);
  check_bool "host 1 divergent" true (Controller.divergent_hosts ctl = [ 1 ]);
  check_int "one giveup" 1 (Controller.stats ctl).Controller.rs_giveups;
  check_bool "not converged" true (not (Controller.converged ctl))

let test_rejection_rolls_back_and_names_divergent () =
  let ctl, enclaves = fresh_fleet () in
  (* Host 1 will reject the install (name collision with a directly
     installed action); host 0 applies it, then drops the rollback. *)
  get_ok (Enclave.install_action enclaves.(1) divider_spec);
  Channel.script (chan ctl 0) (List.init 16 (fun i -> (i + 1, Channel.Drop)));
  (match Controller.install_action_everywhere ctl divider_spec with
  | Ok () -> Alcotest.fail "expected the push to be rejected"
  | Error msg ->
    check_bool "error names the rejecting host" true (contains ~sub:"host 1 rejected" msg);
    check_bool "error names the hosts left divergent" true
      (contains ~sub:"rollback failed on hosts [0]" msg));
  check_bool "host 0 divergent" true (Controller.divergent_hosts ctl = [ 0 ]);
  check_bool "desired state clean" true ((Controller.desired ctl).Enclave.sn_actions = []);
  check_int "generation unchanged" 0 (Controller.generation ctl);
  (* Reconciliation removes the orphaned action from host 0. *)
  Channel.script (chan ctl 0) [];
  (match Controller.reconcile_enclave ctl (chan ctl 0) with
  | Controller.Repaired _ -> ()
  | o -> Alcotest.failf "expected repair, got %s" (Controller.reconcile_outcome_to_string o));
  check_bool "orphan removed" true (Enclave.action_names enclaves.(0) = [])

(* A first-time state push that one host rejects is undone on the hosts
   that applied it by writing the unset reading back, so every host
   reads what the desired state (which holds no binding) implies. *)
let test_rejected_first_push_undone_to_unset () =
  let ctl, enclaves = fresh_fleet () in
  get_ok (Controller.install_action_everywhere ctl divider_spec);
  Channel.inject_restart (chan ctl 1);
  let rejected = function
    | Ok () -> Alcotest.fail "expected host 1 to reject the push"
    | Error msg -> check_bool "host 1 rejected" true (contains ~sub:"host 1 rejected" msg)
  in
  rejected (Controller.set_global_everywhere ctl ~action:"divider" "D" 7L);
  rejected (Controller.set_global_array_everywhere ctl ~action:"divider" "A" [| 1L; 2L |]);
  let d = Controller.desired ctl in
  check_bool "desired holds no D" true (d.Enclave.sn_globals = [ ("divider", []) ]);
  check_bool "desired holds no A" true (d.Enclave.sn_arrays = [ ("divider", []) ]);
  let reads_unset what e =
    check_bool (what ^ ": D reads 0") true (Enclave.get_global e ~action:"divider" "D" = Some 0L);
    check_bool (what ^ ": A reads empty") true
      (Enclave.get_global_array e ~action:"divider" "A" = Some [||])
  in
  reads_unset "host 0 after the undo" enclaves.(0);
  ignore (Controller.reconcile ctl);
  check_bool "converged" true (Controller.converged ctl);
  Array.iteri (fun i e -> reads_unset (Printf.sprintf "host %d after reconcile" i) e) enclaves

let test_duplicates_do_not_double_bump () =
  let ctl, enclaves = fresh_fleet () in
  Channel.script (chan ctl 0) (List.init 16 (fun i -> (i, Channel.Duplicate)));
  Channel.script (chan ctl 1) (List.init 8 (fun i -> (2 * i, Channel.Ack_lost)));
  get_ok (Controller.install_action_everywhere ctl divider_spec);
  get_ok (Controller.set_global_everywhere ctl ~action:"divider" "D" 4L);
  check_int "two changes, two bumps" 2 (Controller.generation ctl);
  check_bool "retries happened" true ((Controller.stats ctl).Controller.rs_retries > 0);
  Array.iter
    (fun e ->
      check_bool "exactly one install" true (Enclave.action_names e = [ "divider" ]);
      check_bool "state bound" true (Enclave.get_global e ~action:"divider" "D" = Some 4L))
    enclaves;
  check_bool "converged" true (Controller.converged ctl)

let test_reconcile_after_restart () =
  let ctl, enclaves = fresh_fleet () in
  get_ok (Controller.install_action_everywhere ctl divider_spec);
  get_ok (Controller.set_global_everywhere ctl ~action:"divider" "D" 4L);
  get_ok (Controller.add_rule_everywhere ctl ~pattern:Pattern.any ~action:"divider" ());
  check_bool "converged before the crash" true (Controller.converged ctl);
  Channel.inject_restart (chan ctl 1);
  check_bool "restart breaks convergence" true (not (Controller.converged ctl));
  check_int "watermark wiped" 0 (Channel.acked_generation (chan ctl 1));
  (match List.assoc 1 (Controller.reconcile ctl) with
  | Controller.Repaired n -> check_bool "several repair ops" true (n >= 3)
  | o -> Alcotest.failf "expected repair, got %s" (Controller.reconcile_outcome_to_string o));
  check_bool "converged after reconcile" true (Controller.converged ctl);
  check_int "watermark caught up" (Controller.generation ctl)
    (Channel.acked_generation (chan ctl 1));
  check_bool "restored binding" true
    (Enclave.get_global enclaves.(1) ~action:"divider" "D" = Some 4L)

(* An enclave holding a same-named action under another engine is
   repaired by replacing it, and the replacement gets the desired state
   and rules back: the removed action's bindings and rules do not count
   as present. *)
let test_reconcile_replaces_action_under_other_key () =
  let ctl, enclaves = fresh_fleet ~hosts:1 () in
  get_ok (Controller.install_action_everywhere ctl divider_spec);
  get_ok (Controller.set_global_everywhere ctl ~action:"divider" "D" 4L);
  get_ok (Controller.add_rule_everywhere ctl ~pattern:Pattern.any ~action:"divider" ());
  let e = enclaves.(0) in
  ignore (Enclave.remove_action e "divider");
  let compiled =
    match divider_spec.Enclave.i_impl with
    | Enclave.Interpreted p -> { divider_spec with Enclave.i_impl = Enclave.Compiled p }
    | _ -> divider_spec
  in
  get_ok (Enclave.install_action e compiled);
  get_ok (Enclave.set_global e ~action:"divider" "D" 4L);
  let _ = get_ok (Enclave.add_table_rule e ~pattern:Pattern.any ~action:"divider" ()) in
  check_bool "drift detected" true (not (Controller.converged ctl));
  (match Controller.reconcile_enclave ctl (chan ctl 0) with
  | Controller.Repaired _ -> ()
  | o -> Alcotest.failf "expected repair, got %s" (Controller.reconcile_outcome_to_string o));
  check_bool "converged" true (Controller.converged ctl);
  check_bool "state rebound" true (Enclave.get_global e ~action:"divider" "D" = Some 4L);
  let sn = Enclave.snapshot e in
  check_bool "interpreted engine back" true
    (match sn.Enclave.sn_actions with
    | [ { Enclave.i_impl = Enclave.Interpreted _; _ } ] -> true
    | _ -> false);
  check_int "rule back" 1 (List.fold_left (fun n (_, rs) -> n + List.length rs) 0 sn.Enclave.sn_rules)

let test_partition_heal_convergence () =
  let ctl, enclaves = fresh_fleet () in
  get_ok
    (Policy.flow_scheduling ctl ~scheme:`Pias ~cdf:[ (1.0e6, 0.5); (2.0e6, 1.0) ] ());
  Channel.set_partitioned (chan ctl 1) true;
  get_ok
    (Policy.update_flow_scheduling_thresholds ctl ~scheme:`Pias
       ~cdf:[ (100.0, 0.5); (200.0, 1.0) ] ());
  check_bool "divergent while partitioned" true (Controller.divergent_hosts ctl = [ 1 ]);
  check_bool "stale thresholds still bound" true
    (match Enclave.get_global_array enclaves.(1) ~action:"pias" "Thresholds" with
    | Some a -> Array.length a > 0 && a.(0) > 1000L
    | None -> false);
  Channel.set_partitioned (chan ctl 1) false;
  (match List.assoc 1 (Controller.reconcile ctl) with
  | Controller.Repaired _ -> ()
  | o -> Alcotest.failf "expected repair, got %s" (Controller.reconcile_outcome_to_string o));
  check_bool "converged after heal" true (Controller.converged ctl);
  check_bool "fresh thresholds bound" true
    (match Enclave.get_global_array enclaves.(1) ~action:"pias" "Thresholds" with
    | Some a -> Array.length a > 0 && a.(0) <= 1000L
    | None -> false)

(* Equal-specificity rules match in insertion order, so the order of a
   table's rules is configuration.  Host 1 misses divider's removal,
   reinstall and new rule, so its table lists divider's rule first while
   host 0's lists it last; reconciliation must restore the order, not
   just the set of rules. *)
let test_reconcile_restores_rule_order () =
  let ctl, enclaves = fresh_fleet () in
  let pat s = Option.get (Pattern.of_string s) in
  let other_spec = { divider_spec with Enclave.i_name = "other" } in
  get_ok (Controller.install_action_everywhere ctl divider_spec);
  get_ok (Controller.install_action_everywhere ctl other_spec);
  get_ok
    (Controller.add_rule_everywhere ctl ~pattern:(pat "memcached.*.*") ~action:"divider" ());
  get_ok (Controller.add_rule_everywhere ctl ~pattern:(pat "storage.*.*") ~action:"other" ());
  Channel.set_partitioned (chan ctl 1) true;
  get_ok (Controller.remove_action_everywhere ctl "divider");
  get_ok (Controller.install_action_everywhere ctl divider_spec);
  get_ok
    (Controller.add_rule_everywhere ctl ~pattern:(pat "memcached.*.*") ~action:"divider" ());
  Channel.set_partitioned (chan ctl 1) false;
  let show (r : Eden_enclave.Table.rule) =
    Pattern.to_string r.Eden_enclave.Table.pattern ^ " -> " ^ r.Eden_enclave.Table.action
  in
  let order e =
    List.map (fun (t, rs) -> (t, List.map show rs)) (Enclave.snapshot e).Enclave.sn_rules
  in
  check_bool "orders differ before the heal" true (order enclaves.(0) <> order enclaves.(1));
  (match List.assoc 1 (Controller.reconcile ctl) with
  | Controller.Repaired _ -> ()
  | o -> Alcotest.failf "expected repair, got %s" (Controller.reconcile_outcome_to_string o));
  Alcotest.(check (list (pair int (list string))))
    "host 1 matches in host 0's order" (order enclaves.(0)) (order enclaves.(1));
  check_bool "converged" true (Controller.converged ctl);
  check_bool "configurations equal" true
    (Config.config_equal (Enclave.snapshot enclaves.(0)) (Enclave.snapshot enclaves.(1)))

(* Stage rules are not enclave configuration: programming a stage must
   not leave a converged fleet looking out of date. *)
let test_program_stage_keeps_generation () =
  let ctl, _ = fresh_fleet () in
  Controller.register_stage ctl (Eden_stage.Builtin.memcached ());
  get_ok (Controller.install_action_everywhere ctl divider_spec);
  check_bool "converged before" true (Controller.converged ctl);
  let gen = Controller.generation ctl in
  get_ok (Controller.program_stage ctl ~stage:"memcached" ~ruleset:"r" ~rules:[]);
  check_int "generation unchanged" gen (Controller.generation ctl);
  check_bool "still converged" true (Controller.converged ctl);
  List.iter
    (fun (host, o) ->
      match o with
      | Controller.In_sync -> ()
      | o ->
        Alcotest.failf "host %d: expected in sync, got %s" host
          (Controller.reconcile_outcome_to_string o))
    (Controller.reconcile ctl)

let test_reports_include_resilience_columns () =
  let ctl, _ = fresh_fleet ~hosts:1 () in
  get_ok (Controller.install_action_everywhere ctl divider_spec);
  Channel.inject_restart (chan ctl 0);
  match Controller.collect_reports ctl with
  | [ r ] ->
    check_int "restart visible in the report" 1 r.Controller.er_restarts;
    check_int "watermark visible in the report" 0 r.Controller.er_generation
  | rs -> Alcotest.failf "expected one report, got %d" (List.length rs)

(* The accessors and the scrapes read the same cells: after pushes
   through drops, lost acks, a duplicate, a crash-restart, a give-up
   and a reconcile, every count the controller and the channels report equals
   the scraped [eden_controller_*] / [eden_channel_*] value. *)
let test_stats_equal_scrape () =
  let module R = Eden_telemetry.Registry in
  let ctl, enclaves = fresh_fleet () in
  Channel.script (chan ctl 0)
    [ (0, Channel.Drop); (1, Channel.Ack_lost); (2, Channel.Crash_restart); (4, Channel.Duplicate) ];
  Channel.script (chan ctl 1) (List.init 5 (fun i -> (i, Channel.Drop)));
  get_ok (Controller.install_action_everywhere ctl divider_spec);
  ignore (Controller.reconcile ctl);
  get_ok (Controller.set_global_everywhere ctl ~action:"divider" "D" 4L);
  let value samples name =
    match List.find_opt (fun smp -> String.equal smp.R.s_name name) samples with
    | Some { R.s_value = R.Counter n; _ } -> float_of_int n
    | Some { R.s_value = R.Gauge g; _ } -> g
    | Some _ | None -> Alcotest.failf "no counter or gauge %s" name
  in
  let check_scraped samples name expected =
    Alcotest.(check (float 0.0)) name (float_of_int expected) (value samples name)
  in
  let fleet = Controller.scrape ctl in
  let st = Controller.stats ctl in
  check_bool "faults forced retries" true (st.Controller.rs_retries > 0);
  check_int "host 1 gave up" 1 st.Controller.rs_giveups;
  check_scraped fleet "eden_controller_push_ops_total" st.Controller.rs_ops;
  check_scraped fleet "eden_controller_send_attempts_total" st.Controller.rs_attempts;
  check_scraped fleet "eden_controller_retries_total" st.Controller.rs_retries;
  check_scraped fleet "eden_controller_giveups_total" st.Controller.rs_giveups;
  check_scraped fleet "eden_controller_backoff_ns"
    (Int64.to_int (Time.to_ns st.Controller.rs_backoff));
  let sum f = List.fold_left (fun acc ch -> acc + f ch) 0 (Controller.channels ctl) in
  check_scraped fleet "eden_channel_ops_sent_total" (sum Channel.ops_sent);
  check_scraped fleet "eden_channel_faults_injected_total" (sum Channel.faults_injected);
  List.iter
    (fun ch ->
      let own = Channel.scrape ch in
      check_scraped own "eden_channel_ops_sent_total" (Channel.ops_sent ch);
      check_scraped own "eden_channel_faults_injected_total" (Channel.faults_injected ch);
      check_scraped own "eden_channel_restarts_injected_total"
        (Enclave.restarts (Channel.enclave ch)))
    (Controller.channels ctl);
  check_int "host 0 faults" 4 (Channel.faults_injected (chan ctl 0));
  check_int "host 0 crashed once" 1 (Enclave.restarts enclaves.(0))

(* ------------------------------------------------------------------ *)
(* One op model: the enclave follows [Config.next] *)

(* The model's two actions.  "a" sets Priority 5 and jumps to table 1;
   "b" sets Path 3 and jumps to table 2.  A packet's priority, path and
   invocation count then say which rules fired. *)
let model_effect = function "a" -> ("Priority", 5, 1) | _ -> ("Path", 3, 2)

let model_spec ~compiled name =
  let field, v, goto = model_effect name in
  let act = Dsl.(action name (seq [ set_pkt field (int v); set_pkt "GotoTable" (int goto) ])) in
  let program =
    match Compile.compile (Schema.with_standard_packet ()) act with
    | Ok p -> p
    | Error e -> invalid_arg (Compile.error_to_string e)
  in
  {
    Enclave.i_name = name;
    i_impl = (if compiled then Enclave.Compiled program else Enclave.Interpreted program);
    i_msg_sources = [];
  }

let op_gen =
  let open QCheck.Gen in
  let action = oneofl [ "a"; "b" ] in
  let name = oneofl [ "D"; "E" ] in
  let pattern =
    oneofl
      (Pattern.any
      :: List.map
           (fun s -> Option.get (Pattern.of_string s))
           [ "memcached.*.*"; "storage.*.*"; "memcached.op.GET" ])
  in
  frequency
    [
      (3, map2 (fun compiled a -> Config.Install_action (model_spec ~compiled a)) bool action);
      (1, map (fun a -> Config.Remove_action a) action);
      (1, return Config.Add_table);
      ( 4,
        map3
          (fun table pattern action -> Config.Add_rule { table; pattern; action })
          (int_bound 2) pattern action );
      ( 2,
        map3
          (fun action name v -> Config.Set_global { action; name; value = Int64.of_int v })
          action name small_signed_int );
      ( 2,
        map3
          (fun action name n ->
            Config.Set_global_array { action; name; value = Array.init n Int64.of_int })
          action name (int_bound 3) );
    ]

let ops_to_string ops = String.concat "; " (List.map Config.op_to_string ops)

(* Fixed probes: a packet's stage classes (the enclave adds its flow
   class). *)
let probe_classes =
  List.map
    (List.map (fun (stage, ruleset, name) -> Class_name.v ~stage ~ruleset ~name))
    [
      [];
      [ ("memcached", "op", "GET") ];
      [ ("memcached", "op", "PUT") ];
      [ ("storage", "op", "WRITE") ];
      [ ("storage", "op", "WRITE"); ("memcached", "op", "GET") ];
    ]

(* The walk [Enclave.process] makes, over [sn]'s rules with
   [Table.lookup]: the packet's final priority and path and the number
   of actions run. *)
let model_walk (sn : Enclave.snapshot) classes =
  let rec walk table hops ((priority, path, runs) as acc) =
    match List.assoc_opt table sn.Enclave.sn_rules with
    | Some rules when hops < 8 -> (
      match Table.lookup (Table.make ~id:table rules) classes with
      | None -> acc
      | Some r ->
        let field, v, goto = model_effect r.Table.action in
        let acc =
          if field = "Priority" then (v, path, runs + 1) else (priority, Some v, runs + 1)
        in
        if goto <> table then walk goto (hops + 1) acc else acc)
    | Some _ | None -> acc
  in
  walk 0 0 (0, None, 0)

(* Route every probe through the enclave: it must run the rules
   [model_walk] finds over [sn]. *)
let check_routing e sn ~after =
  List.iteri
    (fun j classes ->
      let md = List.fold_left (fun md c -> Metadata.add_class c md) Metadata.empty classes in
      let pkt =
        Packet.make ~id:(Int64.of_int j) ~flow:(flow ()) ~kind:Packet.Data ~payload:100
          ~metadata:md ()
      in
      let runs () = (Enclave.counters e).Enclave.invocations in
      let before = runs () in
      ignore (Enclave.process e ~now:(Time.us j) pkt);
      let got = (pkt.Packet.priority, pkt.Packet.route_label, runs () - before) in
      let want = model_walk sn (Metadata.classes pkt.Packet.metadata) in
      let show (priority, path, n) =
        Printf.sprintf "priority %d, path %s, %d runs" priority
          (Option.fold ~none:"none" ~some:string_of_int path)
          n
      in
      if got <> want then
        QCheck.Test.fail_reportf "after op %d, probe %d: enclave %s, next's rules %s" after j
          (show got) (show want))
    probe_classes

(* The same op stream through [Enclave.apply] on a fresh enclave and
   [Config.next] from [Config.empty]: each op is accepted or refused
   alike, with the same table and rule ids; after every op the two
   configurations are equal and the probes run the rules [next]'s
   configuration holds; and restoring the enclave's snapshot reproduces
   its configuration. *)
let prop_enclave_follows_next =
  QCheck.Test.make ~count:300 ~name:"the enclave follows next op by op"
    (QCheck.make ~print:ops_to_string ~shrink:QCheck.Shrink.list
       QCheck.Gen.(list_size (int_range 1 30) op_gen))
    (fun ops ->
      let e = Enclave.create ~host:1 () in
      let verdict r = if Result.is_ok r then "accepted" else "refused" in
      let step (i, sn) op =
        let at_enclave = Enclave.apply e op and by_next = Config.next sn op in
        let sn =
          match (at_enclave, by_next, op) with
          | Ok got, Ok (_, want), (Config.Add_table | Config.Add_rule _) when got <> want ->
            QCheck.Test.fail_reportf "op %d (%s): enclave acked %Ld, next %Ld" i
              (Config.op_to_string op) got want
          | Ok _, Ok (sn, _), _ -> sn
          | Error _, Error _, _ -> sn
          | _ ->
            QCheck.Test.fail_reportf "op %d (%s): enclave %s, next %s" i
              (Config.op_to_string op) (verdict at_enclave) (verdict by_next)
        in
        (match Config.diff ~desired:sn ~actual:(Enclave.snapshot e) with
        | [] ->
          if not (Config.config_equal sn (Enclave.snapshot e)) then
            QCheck.Test.fail_reportf "after op %d: configurations differ" i
        | drift -> QCheck.Test.fail_reportf "after op %d: drift [%s]" i (ops_to_string drift));
        check_routing e sn ~after:i;
        (i + 1, sn)
      in
      ignore (List.fold_left step (0, Config.empty) ops);
      let e2 = Enclave.create ~host:2 () in
      (match Enclave.restore e2 (Enclave.snapshot e) with
      | Ok () -> ()
      | Error msg -> QCheck.Test.fail_reportf "restore refused: %s" msg);
      Config.config_equal (Enclave.snapshot e) (Enclave.snapshot e2))

(* ------------------------------------------------------------------ *)
(* Chaos scenarios under the CI seed *)

let test_chaos_scenarios_pass () =
  let reports = Chaos.run_all ~seed:42L () in
  check_int "all scenarios ran" (List.length Chaos.scenario_names) (List.length reports);
  List.iter
    (fun r ->
      List.iter
        (fun c ->
          if not c.Chaos.ck_ok then
            Alcotest.failf "%s: %s — %s" r.Chaos.r_scenario c.Chaos.ck_name c.Chaos.ck_detail)
        r.Chaos.r_checks)
    reports;
  check_bool "chaos suite green" true (Chaos.all_passed reports)

(* Faults are bugs unless injected: at two seeds every scenario but the
   fault storm ends with no enclave fault in any host's scrape, and the
   storm's injected faults show in the same count. *)
let test_chaos_faults_only_in_the_storm () =
  List.iter
    (fun seed ->
      List.iter
        (fun r ->
          let storm = String.equal r.Chaos.r_scenario "fault-storm-breaker" in
          if storm <> (r.Chaos.r_enclave_faults > 0) then
            Alcotest.failf "seed %Ld, %s: %d enclave faults" seed r.Chaos.r_scenario
              r.Chaos.r_enclave_faults)
        (Chaos.run_all ~seed ()))
    [ 1L; 42L ]

let test_chaos_deterministic () =
  let strip r = (r.Chaos.r_scenario, r.Chaos.r_checks, r.Chaos.r_ops_sent, r.Chaos.r_faults_injected) in
  check_bool "same seed, same run" true
    (List.map strip (Chaos.run_all ~seed:7L ()) = List.map strip (Chaos.run_all ~seed:7L ()))

(* ------------------------------------------------------------------ *)

let () =
  Qcheck_seed.announce ();
  Alcotest.run "eden_resilience"
    [
      ( "channel",
        [
          Alcotest.test_case "drop" `Quick test_channel_drop;
          Alcotest.test_case "ack lost + retry" `Quick test_channel_ack_lost_then_retry;
          Alcotest.test_case "duplicate delivery" `Quick test_channel_duplicate_is_exactly_once;
          Alcotest.test_case "delayed delivery" `Quick test_channel_delay;
          Alcotest.test_case "crash restart" `Quick test_channel_crash_restart;
          Alcotest.test_case "partition" `Quick test_channel_partition;
          Alcotest.test_case "random faults deterministic" `Quick
            test_channel_random_faults_deterministic;
        ] );
      ( "breaker",
        [
          Alcotest.test_case "disabled by default" `Quick test_breaker_disabled_by_default;
          Alcotest.test_case "trips and quarantines" `Quick test_breaker_trips_and_quarantines;
          Alcotest.test_case "half-open recovery" `Quick test_breaker_half_open_recovery;
          Alcotest.test_case "half-open refail" `Quick test_breaker_half_open_refail;
          Alcotest.test_case "config validation" `Quick test_breaker_config_validation;
        ] );
      ( "soft state",
        [
          Alcotest.test_case "snapshot/restore roundtrip" `Quick test_snapshot_restore_roundtrip;
          Alcotest.test_case "restart wipes but forwards" `Quick test_restart_wipes_but_forwards;
        ] );
      ( "controller",
        [
          Alcotest.test_case "retry deterministic" `Quick test_retry_is_deterministic;
          Alcotest.test_case "exhaustion marks divergent" `Quick
            test_retry_exhaustion_marks_divergent;
          Alcotest.test_case "rejection rolls back, names divergent" `Quick
            test_rejection_rolls_back_and_names_divergent;
          Alcotest.test_case "rejected first push undone to unset" `Quick
            test_rejected_first_push_undone_to_unset;
          Alcotest.test_case "duplicates do not double-bump" `Quick
            test_duplicates_do_not_double_bump;
          Alcotest.test_case "reconcile after restart" `Quick test_reconcile_after_restart;
          Alcotest.test_case "reconcile replaces an action under another key" `Quick
            test_reconcile_replaces_action_under_other_key;
          Alcotest.test_case "partition/heal convergence" `Quick
            test_partition_heal_convergence;
          Alcotest.test_case "reconcile restores rule match order" `Quick
            test_reconcile_restores_rule_order;
          Alcotest.test_case "program_stage keeps the generation" `Quick
            test_program_stage_keeps_generation;
          Alcotest.test_case "reports carry resilience columns" `Quick
            test_reports_include_resilience_columns;
          Alcotest.test_case "stats equal the scrape" `Quick test_stats_equal_scrape;
        ] );
      ("config model", [ Qcheck_seed.qcheck prop_enclave_follows_next ]);
      ( "chaos",
        [
          Alcotest.test_case "scenarios pass under CI seed" `Quick test_chaos_scenarios_pass;
          Alcotest.test_case "runs are deterministic" `Quick test_chaos_deterministic;
          Alcotest.test_case "faults only in the fault storm" `Quick
            test_chaos_faults_only_in_the_storm;
        ] );
    ]
