(** Chaos harness: scripted fault scenarios with invariant checks.

    Each scenario builds a small simulated fleet (netsim hosts with
    OS-placed enclaves, one controller reaching them over fallible
    {!Eden_controller.Channel}s), injects a deterministic fault schedule
    under a fixed seed, and asserts the system's consistency story
    (paper §2.2, §3.5) as named checks:

    - the desired generation is monotone and every enclave's acked
      watermark stays at or below it;
    - no packet can ever match a half-installed action — every rule on
      every enclave (partitioned ones included) names a fully installed
      action at every observation point;
    - a partitioned or crashed enclave keeps forwarding (stale policy or
      default path) while the controller cannot reach it;
    - after the fault heals, one {!Eden_controller.Controller.reconcile}
      round converges the fleet without restarting the controller;
    - duplicate delivery and retried lost acks are exactly-once: the
      generation bumps once per logical change and nothing is installed
      twice.

    Scenarios are pure functions of the seed — the same seed replays the
    same run, which is what CI pins. *)

type check = { ck_name : string; ck_ok : bool; ck_detail : string }

type report = {
  r_scenario : string;
  r_seed : int64;
  r_checks : check list;  (** In execution order. *)
  r_ops_sent : int;
  r_faults_injected : int;
  r_retries : int;
  r_restarts : int;
  r_enclave_faults : int;
      (** [eden_enclave_faults_total] summed over every host's scrape at
          the end of the run (a restart resets the count). *)
}

val passed : report -> bool
val all_passed : report list -> bool

val scenario_names : string list
(** ["partition-during-pias-push"; "crash-mid-wcmp-update";
    "duplicate-installs"; "fault-storm-breaker"]. *)

val run : ?seed:int64 -> string -> (report, string) result
(** Run one scenario by name (default seed 42). *)

val run_all : ?seed:int64 -> unit -> report list
(** Run every scenario under the same seed. *)

val print_report : report -> unit
val print : report list -> unit
(** Human-readable report on stdout, one line per check plus a
    pass/fail tally. *)
