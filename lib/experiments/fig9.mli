(** Case study 1 — flow scheduling (paper §5.1, Fig. 9).

    A worker serves a request–response workload whose response sizes
    follow the web-search distribution, at ~70% load, while a background
    source keeps the client's downlink busy.  Six configurations:
    {baseline, PIAS, SFF} × {native, Eden}; "baseline (Eden)" runs the
    action function but discards its output, isolating pure data-path
    overhead.  Reported: average and 95th-percentile FCT for small
    (<10 KB) and intermediate (10 KB–1 MB) flows, with 95% confidence
    intervals over independent runs. *)

type scheme = Baseline | Pias | Sff

val scheme_to_string : scheme -> string

type engine = Native | Eden

val engine_to_string : engine -> string

type params = {
  runs : int;  (** independent seeds (paper: 10) *)
  duration : Eden_base.Time.t;  (** request generation window per run *)
  load : float;  (** offered load on the client link (paper: ~0.7) *)
  link_rate_bps : float;
  ecn : bool;
      (** Run over DCTCP (ECN-marking links + reacting senders) — the
          transport PIAS actually deploys on; an ablation beyond the
          paper's vanilla-TCP testbed. *)
  seed : int64;
}

val default_params : params
(** 5 runs × 300 ms at 70% of 1 Gbps — scaled down from the paper's
    10 Gbps testbed to keep a full sweep fast; shapes are preserved. *)

type bucket_result = {
  avg_us : float;
  avg_ci95 : float;
  p95_us : float;
  count : int;
}

type result = {
  scheme : scheme;
  engine : engine;
  small : bucket_result;
  intermediate : bucket_result;
}

type scenario = {
  net : Eden_netsim.Net.t;
  requests : Eden_workloads.Reqresp.t;
  background : Eden_netsim.Tcp.Sender.t list;  (** the two long-running flows *)
  horizon : Eden_base.Time.t;  (** arrivals stop at [duration]; the run ends here *)
}

val scenario : params -> scheme -> engine -> seed:int64 -> scenario
(** One run's network with its policy installed and its traffic
    scheduled, not yet run.  [run_config] runs each with
    [Net.run ~until:horizon]. *)

val run_config : params -> scheme -> engine -> result

val run_all : ?params:params -> unit -> result list
(** The six bars of Fig. 9, baseline first. *)

val print : result list -> unit
