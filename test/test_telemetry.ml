(* Telemetry layer (lib/telemetry) and its instrumentation hooks.

   Pins the histogram's log-linear bucket geometry (merge exactness
   depends on every instance agreeing on boundaries), checks that
   merging per-shard registries reproduces sequential totals on random
   Progen programs, freezes the flight recorder's seeded sampling and
   the exposition formats (Prometheus / JSON goldens, round-trip through
   the JSON parser), and exercises the bench-baseline comparator that
   backs bench/check_regress.exe. *)

module Tel = Eden_telemetry
module Counter = Tel.Counter
module Gauge = Tel.Gauge
module Histogram = Tel.Histogram
module Registry = Tel.Registry
module Trace = Tel.Trace
module Json = Tel.Json
module Export = Tel.Export
module Regress = Tel.Regress
module Enclave = Eden_enclave.Enclave
module Shard = Eden_enclave.Shard
module Program = Eden_bytecode.Program
module Verifier = Eden_bytecode.Verifier
module Addr = Eden_base.Addr
module Packet = Eden_base.Packet
module Metadata = Eden_base.Metadata
module Time = Eden_base.Time
module Rng = Eden_base.Rng

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)
let get_ok = function Ok v -> v | Error m -> Alcotest.failf "unexpected error: %s" m

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Histogram: pinned bucket geometry *)

let test_histogram_boundaries () =
  (* The first two octaves [0,16) are linear with width-1 buckets. *)
  for v = 0 to 15 do
    check_int (Printf.sprintf "bucket_of %d" v) v (Histogram.bucket_of v)
  done;
  check_int "negative clamps to 0" 0 (Histogram.bucket_of (-5));
  check_int "huge clamps to last" (Histogram.n_buckets - 1) (Histogram.bucket_of max_int);
  (* Log-linear region, pinned: 8 sub-buckets per octave. *)
  List.iter
    (fun (v, b) -> check_int (Printf.sprintf "bucket_of %d" v) b (Histogram.bucket_of v))
    [ (16, 16); (29, 22); (30, 23); (31, 23); (32, 24); (100, 36); (1000, 63) ];
  List.iter
    (fun (i, lo) ->
      check_int (Printf.sprintf "lower_bound %d" i) lo (Histogram.lower_bound i))
    [ (0, 0); (7, 7); (15, 15); (16, 16); (22, 28); (23, 30); (24, 32); (36, 96) ];
  (* The geometry is self-consistent: every bucket contains its own
     lower bound, and the previous value falls in an earlier bucket. *)
  for i = 0 to 100 do
    let lo = Histogram.lower_bound i in
    check_int "lower bound maps to its bucket" i (Histogram.bucket_of lo);
    if lo > 0 then
      check_bool "predecessor in an earlier bucket" true (Histogram.bucket_of (lo - 1) < i)
  done

let test_histogram_stats () =
  let h = Histogram.create () in
  check_int "empty percentile" 0 (Histogram.percentile h 99.0);
  List.iter (Histogram.observe h) [ 3; 3; 5; 100; 1000 ];
  check_int "count" 5 (Histogram.count h);
  check_int "sum" 1111 (Histogram.sum h);
  check_int "max" 1000 (Histogram.max_value h);
  check_bool "mean" true (Float.abs (Histogram.mean h -. 222.2) < 0.01);
  (* p50 of [3;3;5;100;1000] sits on 5 -> upper bound of bucket 5 is 6. *)
  check_int "p50" 6 (Histogram.percentile h 50.0);
  Histogram.observe_ns h 7.9;
  check_int "observe_ns truncates" 7 (Histogram.max_value (let x = Histogram.create () in Histogram.observe_ns x 7.9; x));
  Histogram.reset h;
  check_int "reset count" 0 (Histogram.count h);
  check_int "reset sum" 0 (Histogram.sum h)

(* A bucket's exclusive upper bound can exceed every observation in it;
   a reported percentile is clamped to the max, in the histogram and in
   the table rendering of a scrape alike. *)
let test_histogram_percentile_clamped () =
  let r = Registry.create () in
  let h = Registry.histogram r "same_ns" in
  for _ = 1 to 10 do
    Histogram.observe h 69
  done;
  check_int "p50" 69 (Histogram.percentile h 50.0);
  check_int "p99" 69 (Histogram.percentile h 99.0);
  let table = Export.to_table (Registry.scrape r) in
  check_bool table true
    (contains table "count=10 mean=69.0 p50=69 p99=69 max=69")

let test_histogram_merge () =
  (* Merging N instances is exactly the one-instance run: boundaries are
     a pure function of the index, so bucket-wise addition loses
     nothing. *)
  let rand = Random.State.make [| 0x7E1E |] in
  let parts = Array.init 4 (fun _ -> Histogram.create ()) in
  let whole = Histogram.create () in
  for _ = 1 to 10_000 do
    let v = Random.State.int rand 100_000 in
    Histogram.observe parts.(Random.State.int rand 4) v;
    Histogram.observe whole v
  done;
  let merged = Histogram.create () in
  Array.iter (fun p -> Histogram.merge_into merged p) parts;
  check_int "count" (Histogram.count whole) (Histogram.count merged);
  check_int "sum" (Histogram.sum whole) (Histogram.sum merged);
  check_int "max" (Histogram.max_value whole) (Histogram.max_value merged);
  check_bool "buckets" true (Histogram.buckets whole = Histogram.buckets merged)

(* ------------------------------------------------------------------ *)
(* Registry *)

let find_sample samples name =
  match List.find_opt (fun s -> s.Registry.s_name = name) samples with
  | Some s -> s
  | None -> Alcotest.failf "sample %s not scraped" name

let counter_value samples name =
  match (find_sample samples name).Registry.s_value with
  | Registry.Counter v -> v
  | _ -> Alcotest.failf "%s is not a counter" name

let test_registry_basic () =
  let r = Registry.create () in
  let c = Registry.counter r ~help:"h" "c_total" in
  let g = Registry.gauge r "g" in
  let h = Registry.histogram r "h_ns" in
  Counter.add c 3;
  Counter.inc c;
  Gauge.set g 2.5;
  Histogram.observe h 9;
  (* get-or-create returns the same cell; a kind clash is a bug. *)
  Counter.inc (Registry.counter r "c_total");
  check_int "shared cell" 5 (Counter.get c);
  check_bool "kind mismatch rejected" true
    (match Registry.gauge r "c_total" with
    | exception Invalid_argument _ -> true
    | _ -> false);
  let samples = Registry.scrape r in
  check_int "scrape size" 3 (List.length samples);
  check_string "registration order" "c_total"
    (List.nth samples 0).Registry.s_name;
  check_int "counter sampled" 5 (counter_value samples "c_total");
  Registry.reset r;
  check_int "reset" 0 (Counter.get c);
  check_int "reset histogram" 0 (Histogram.count h)

let test_registry_merge () =
  let mk na nb =
    let r = Registry.create () in
    Counter.add (Registry.counter r "m_total") na;
    Gauge.set (Registry.gauge r "m_gauge") (float_of_int na);
    Histogram.observe (Registry.histogram r "m_ns") nb;
    Registry.scrape r
  in
  let merged = Registry.merge [ mk 2 10; mk 5 100 ] in
  check_int "merged size" 3 (List.length merged);
  check_int "counters sum" 7 (counter_value merged "m_total");
  (match (find_sample merged "m_gauge").Registry.s_value with
  | Registry.Gauge v -> check_bool "gauges sum" true (v = 7.0)
  | _ -> Alcotest.fail "gauge kind");
  (match (find_sample merged "m_ns").Registry.s_value with
  | Registry.Histogram { count; sum; max; buckets } ->
    check_int "histogram count" 2 count;
    check_int "histogram sum" 110 sum;
    check_int "histogram max" 100 max;
    check_int "histogram buckets" 2 (List.length buckets)
  | _ -> Alcotest.fail "histogram kind")

(* ------------------------------------------------------------------ *)
(* Flight recorder *)

let drive tr n =
  (* Feed n packet ticks; record a fixed stage breakdown into sampled
     slots and return the sampled packet ids, oldest first. *)
  let sampled = ref [] in
  for i = 1 to n do
    if Trace.begin_packet tr ~now:(Time.us i) ~pkt_id:(Int64.of_int i) then begin
      sampled := Int64.of_int i :: !sampled;
      Trace.set_classify tr 10.0;
      Trace.set_match tr 5.0;
      Trace.set_action tr "act" 20.0;
      Trace.finish tr ~verdict:Trace.Forwarded ~total_ns:40.0
    end
  done;
  List.rev !sampled

let test_trace_sampling_deterministic () =
  let seed = Rng.stream_seed 42L 3 in
  let mk () = Trace.create ~seed ~every:8 ~capacity:64 () in
  let a = drive (mk ()) 200 in
  let b = drive (mk ()) 200 in
  check_bool "same seed, same samples" true (a = b);
  check_int "1-in-8 of 200" 25 (List.length a);
  (* Sampled ticks are exactly [every] apart: the phase is fixed. *)
  (match a with
  | p0 :: p1 :: _ -> check_bool "phase spacing" true (Int64.sub p1 p0 = 8L)
  | _ -> Alcotest.fail "no samples");
  (* clear restarts the phase: a cleared recorder replays identically. *)
  let tr = mk () in
  ignore (drive tr 200);
  Trace.clear tr;
  check_int "cleared" 0 (List.length (Trace.events tr));
  check_bool "replay after clear" true (drive tr 200 = a)

let test_trace_ring_and_events () =
  let tr = Trace.create ~every:1 ~capacity:4 () in
  ignore (drive tr 10);
  check_int "recorded counts all" 10 (Trace.recorded tr);
  let evs = Trace.events tr in
  check_int "ring keeps capacity" 4 (List.length evs);
  check_bool "newest first" true
    (List.map (fun e -> e.Trace.ev_pkt_id) evs = [ 10L; 9L; 8L; 7L ]);
  let e = List.hd evs in
  check_bool "stages recorded" true
    (e.Trace.ev_classify_ns = 10.0 && e.Trace.ev_match_ns = 5.0
    && e.Trace.ev_action = "act" && e.Trace.ev_action_ns = 20.0
    && e.Trace.ev_total_ns = 40.0 && e.Trace.ev_verdict = Trace.Forwarded);
  (* Stage setters without an open slot must be harmless no-ops. *)
  let idle = Trace.create ~every:1_000_000 ~capacity:4 () in
  ignore (Trace.begin_packet idle ~now:Time.zero ~pkt_id:1L);
  Trace.set_classify idle 1.0;
  Trace.finish idle ~verdict:Trace.Dropped ~total_ns:1.0;
  check_int "nothing recorded" 0 (Trace.recorded idle)

let test_trace_on_enclave () =
  let run () =
    let e = Enclave.create ~host:1 ~seed:11L () in
    get_ok (Eden_functions.Pias.install ~variant:`Compiled e ~thresholds:[| 4000L |]);
    Enclave.set_trace e (Some (Trace.create ~seed:11L ~every:4 ~capacity:16 ()));
    let flow =
      Addr.five_tuple ~src:(Addr.endpoint 1 1000) ~dst:(Addr.endpoint 2 80) ~proto:Addr.Tcp
    in
    for i = 1 to 40 do
      ignore
        (Enclave.process e ~now:(Time.us i)
           (Packet.make ~id:(Int64.of_int i) ~flow ~kind:Packet.Data ~payload:1000 ()))
    done;
    Option.get (Enclave.trace e)
  in
  let tr = run () in
  check_int "1-in-4 of 40" 10 (Trace.recorded tr);
  List.iter
    (fun e ->
      check_string "action attributed" "pias" e.Trace.ev_action;
      check_bool "total covers stages" true
        (e.Trace.ev_total_ns
         >= e.Trace.ev_classify_ns +. e.Trace.ev_match_ns +. e.Trace.ev_action_ns -. 0.01);
      check_bool "verdict" true (e.Trace.ev_verdict = Trace.Forwarded))
    (Trace.events tr);
  (* Same enclave seed, same stream: the dump is replayable. *)
  let ids t = List.map (fun e -> e.Trace.ev_pkt_id) (Trace.events t) in
  check_bool "deterministic" true (ids tr = ids (run ()))

(* A goto chain: [jump] in table 0 sends the packet to table 1, where
   PIAS runs, both interpreted.  The action stage carries both
   invocations, named in walk order; the match stage, which the cost
   model does not charge, stays 0 as it does for a single action. *)
let jump_spec ~next =
  let src =
    "fun (packet : Packet, msg : Message, _global : Global) ->\n\
    \  packet.GotoTable <- _global.Next"
  in
  let ast =
    match Eden_lang.Parser.parse_action ~name:"jump" src with
    | Ok a -> a
    | Error e -> Alcotest.failf "parse: %s" (Eden_lang.Parser.error_to_string e)
  in
  let schema =
    Eden_lang.Schema.with_standard_packet ~global:[ Eden_lang.Schema.field "Next" ] ()
  in
  match Eden_lang.Compile.compile schema ast with
  | Ok p ->
    ( { Enclave.i_name = "jump"; i_impl = Enclave.Interpreted p; i_msg_sources = [] },
      Int64.of_int next )
  | Error e -> Alcotest.failf "compile: %s" (Eden_lang.Compile.error_to_string e)

let test_trace_goto_chain () =
  let traced_event ~chain =
    let e = Enclave.create ~host:1 ~seed:11L () in
    get_ok (Enclave.install_action e (Eden_functions.Pias.spec ~name:"pias" ()));
    get_ok (Enclave.set_global_array e ~action:"pias" "Thresholds" [| 4000L |]);
    let any = Eden_base.Class_name.Pattern.any in
    (if chain then begin
       let t1 = Enclave.add_table e in
       ignore (get_ok (Enclave.add_table_rule e ~table:t1 ~pattern:any ~action:"pias" ()));
       let spec, next = jump_spec ~next:t1 in
       get_ok (Enclave.install_action e spec);
       get_ok (Enclave.set_global e ~action:"jump" "Next" next);
       ignore (get_ok (Enclave.add_table_rule e ~pattern:any ~action:"jump" ()))
     end
     else ignore (get_ok (Enclave.add_table_rule e ~pattern:any ~action:"pias" ())));
    Enclave.set_trace e (Some (Trace.create ~every:1 ~capacity:4 ()));
    let flow =
      Addr.five_tuple ~src:(Addr.endpoint 1 1000) ~dst:(Addr.endpoint 2 80) ~proto:Addr.Tcp
    in
    ignore
      (Enclave.process e ~now:(Time.us 1)
         (Packet.make ~id:1L ~flow ~kind:Packet.Data ~payload:1000 ()));
    match Trace.events (Option.get (Enclave.trace e)) with
    | [ ev ] -> ev
    | evs -> Alcotest.failf "expected one event, got %d" (List.length evs)
  in
  let single = traced_event ~chain:false and chained = traced_event ~chain:true in
  check_string "single action named" "pias" single.Trace.ev_action;
  check_bool "single action: no match time" true (single.Trace.ev_match_ns = 0.0);
  check_string "chain named in walk order" "jump>pias" chained.Trace.ev_action;
  check_bool "chain: no match time" true (chained.Trace.ev_match_ns = 0.0);
  check_bool "chain: both invocations in the action stage" true
    (chained.Trace.ev_action_ns > single.Trace.ev_action_ns);
  check_bool "chain: stages within the total" true
    (chained.Trace.ev_total_ns
    >= chained.Trace.ev_classify_ns +. chained.Trace.ev_match_ns
       +. chained.Trace.ev_action_ns -. 0.01)

(* ------------------------------------------------------------------ *)
(* Per-shard merge vs sequential totals (Progen differential) *)

let rename_progen_slots (p : Program.t) =
  let slots = Array.map (fun s -> s) p.Program.scalar_slots in
  slots.(0) <- { (slots.(0)) with Program.s_name = "Size" };
  slots.(1) <- { (slots.(1)) with Program.s_name = "Priority" };
  { p with Program.scalar_slots = slots }

let install_progen p arrays =
  let e = Enclave.create ~host:1 () in
  Enclave.set_budget_ns e 1e12;
  get_ok
    (Enclave.install_action e
       { Enclave.i_name = p.Program.name; i_impl = Enclave.Interpreted p; i_msg_sources = [] });
  get_ok (Enclave.set_global_array e ~action:p.Program.name "A" (Array.copy arrays.(0)));
  get_ok (Enclave.set_global_array e ~action:p.Program.name "B" (Array.copy arrays.(1)));
  ignore
    (get_ok
       (Enclave.add_table_rule e
          ~pattern:(Option.get (Eden_base.Class_name.Pattern.of_string "*.*.*"))
          ~action:p.Program.name ()));
  e

let uses_rand (p : Program.t) =
  Array.exists (function Eden_bytecode.Opcode.Rand -> true | _ -> false) p.Program.code

let test_shard_merge_totals () =
  let rand = Random.State.make [| 0x7E13 |] in
  let mk_pkt i =
    Packet.make ~id:(Int64.of_int i)
      ~flow:
        (Addr.five_tuple
           ~src:(Addr.endpoint 1 (1000 + (i mod 8)))
           ~dst:(Addr.endpoint 2 80) ~proto:Addr.Tcp)
      ~kind:Packet.Data ~seq:i
      ~payload:(100 + (37 * i mod 1400))
      ~metadata:Metadata.empty ()
  in
  let events = Array.init 48 (fun i -> Shard.Ev_packet (Time.us (10 * (i + 1)), mk_pkt i)) in
  let cases = ref 0 and merged_cases = ref 0 in
  while !cases < 25 do
    let raw, _scalars, arrays = Progen.gen_structured rand in
    let p = Progen.narrow_unstored (rename_progen_slots raw) in
    get_ok (Result.map_error Verifier.error_to_string (Verifier.verify p));
    (* Shard RNG streams differ from the sequential enclave's by
       construction, so only deterministic programs can be compared. *)
    if not (uses_rand p) then begin
      incr cases;
      let seq = install_progen p arrays in
      Array.iter
        (function
          | Shard.Ev_packet (now, pkt) -> ignore (Enclave.process seq ~now pkt)
          | _ -> ())
        events;
      let seq_samples = Enclave.scrape seq in
      let source = install_progen p arrays in
      let s = get_ok (Shard.create ~shards:3 ~parallel:false source) in
      (* A program that stores to global state runs on one replica;
         the others exercise the merge across three. *)
      let serial = (Program.footprint p).Program.concurrency = `Serial in
      check_int "replicas" (if serial then 1 else 3) (Shard.shards s);
      if not serial then incr merged_cases;
      ignore (Shard.process_stream s events);
      check_int "no worker errors" 0 (Shard.worker_errors s);
      let merged = Shard.scrape s in
      (* Cluster totals must equal the sequential run's for everything
         that does not depend on per-replica cache warmth... *)
      List.iter
        (fun name ->
          check_int name (counter_value seq_samples name) (counter_value merged name))
        [
          "eden_enclave_packets_total";
          "eden_enclave_invocations_total";
          "eden_enclave_dropped_total";
          "eden_enclave_faults_total";
          "eden_enclave_interp_steps_total";
        ];
      (* ... and each replica cache still sees every packet exactly once:
         the hit/miss split shifts, the lookup total cannot. *)
      let lookups samples =
        counter_value samples "eden_enclave_flow_cache_hits_total"
        + counter_value samples "eden_enclave_flow_cache_misses_total"
      in
      check_int "cache lookups" (lookups seq_samples) (lookups merged);
      Shard.stop s
    end
  done;
  if !merged_cases < 12 then
    Alcotest.failf "only %d of 25 programs were merged across replicas" !merged_cases

(* ------------------------------------------------------------------ *)
(* Exposition goldens *)

let golden_registry () =
  let r = Registry.create () in
  Counter.add (Registry.counter r ~help:"test counter" "t_total") 42;
  Gauge.set (Registry.gauge r ~help:"a gauge" "t_gauge") 1.5;
  let h = Registry.histogram r ~help:"a hist" "t_ns" in
  Histogram.observe h 3;
  Histogram.observe h 100;
  Registry.scrape r

let test_prometheus_golden () =
  let expected =
    "# HELP t_total test counter\n# TYPE t_total counter\nt_total 42\n"
    ^ "# HELP t_gauge a gauge\n# TYPE t_gauge gauge\nt_gauge 1.5\n"
    ^ "# HELP t_ns a hist\n# TYPE t_ns histogram\n"
    ^ "t_ns_bucket{le=\"4\"} 1\nt_ns_bucket{le=\"104\"} 2\nt_ns_bucket{le=\"+Inf\"} 2\n"
    ^ "t_ns_sum 103\nt_ns_count 2\n"
  in
  check_string "prometheus exposition" expected (Export.to_prometheus (golden_registry ()))

let test_json_golden_roundtrip () =
  let samples = golden_registry () in
  let expected =
    "{\"metrics\":[{\"name\":\"t_total\",\"help\":\"test counter\",\"kind\":\"counter\",\"value\":42},"
    ^ "{\"name\":\"t_gauge\",\"help\":\"a gauge\",\"kind\":\"gauge\",\"value\":1.5},"
    ^ "{\"name\":\"t_ns\",\"help\":\"a hist\",\"kind\":\"histogram\",\"count\":2,\"sum\":103,\"max\":100,"
    ^ "\"buckets\":[{\"le\":4,\"count\":1},{\"le\":104,\"count\":1}]}]}"
  in
  let str = Export.to_json_string samples in
  check_string "json exposition" expected str;
  (* Round-trip: the document reparses and the values survive. *)
  let j = get_ok (Json.parse str) in
  let metrics = Option.get (Json.to_list (Option.get (Json.member "metrics" j))) in
  check_int "metric count" 3 (List.length metrics);
  let counter = List.hd metrics in
  check_bool "name" true (Json.member "name" counter = Some (Json.Str "t_total"));
  check_bool "value" true
    (Option.bind (Json.member "value" counter) Json.to_int = Some 42);
  (* The human table renders every sample once. *)
  let table = Export.to_table samples in
  List.iter
    (fun s -> check_bool (s.Registry.s_name ^ " in table") true (contains table s.Registry.s_name))
    samples

(* ------------------------------------------------------------------ *)
(* Regress comparator *)

let row ?(section = "micro") ?(quick = true) ?steps name ns =
  {
    Regress.r_section = section;
    r_name = name;
    r_quick = quick;
    r_ns_per_op = ns;
    r_steps = steps;
  }

let baseline ?(cores = 1) ?(tol = 2.0) rows =
  {
    Regress.b_cores = cores;
    b_default_tol = tol;
    b_tols = [];
    b_core_sensitive = Regress.default_core_sensitive;
    b_min_ns = Regress.default_min_ns;
    b_rows = rows;
  }

let test_regress_pass_and_fail () =
  let rows = [ row ~steps:24 "a" 100.0; row "b" 50.0 ] in
  let b = baseline rows in
  (* A fresh identical run passes. *)
  let ok = Regress.compare b rows ~cores:1 in
  check_int "no regressions" 0 ok.Regress.regressions;
  check_int "all compared" 2 ok.Regress.compared;
  (* A perturbed timing beyond baseline*(1+tol) regresses. *)
  let bad = Regress.compare b [ row ~steps:24 "a" 100.0; row "b" 151.0 ] ~cores:1 in
  check_int "timing regression" 1 bad.Regress.regressions;
  (* Inside the band: fine. *)
  let near = Regress.compare b [ row ~steps:24 "a" 100.0; row "b" 149.0 ] ~cores:1 in
  check_int "inside tolerance" 0 near.Regress.regressions;
  (* A steps mismatch is deterministic and always regresses, even when
     the timing is fine. *)
  let steps = Regress.compare b [ row ~steps:25 "a" 100.0; row "b" 50.0 ] ~cores:1 in
  check_int "steps regression" 1 steps.Regress.regressions;
  check_bool "steps finding" true
    (List.exists
       (function Regress.Steps_mismatch _ -> true | _ -> false)
       steps.Regress.findings);
  (* Missing baseline row regresses; a new row does not. *)
  let missing = Regress.compare b [ row ~steps:24 "a" 100.0 ] ~cores:1 in
  check_int "missing row" 1 missing.Regress.regressions;
  let extra = Regress.compare b (rows @ [ row "c" 10.0 ]) ~cores:1 in
  check_int "new row is not a regression" 0 extra.Regress.regressions;
  check_bool "new row reported" true
    (List.exists (function Regress.New_row _ -> true | _ -> false) extra.Regress.findings)

let test_regress_core_skip_and_floor () =
  (* Core-sensitive sections recorded on a bigger box are skipped loudly
     on a smaller one — including their missing rows. *)
  let b =
    baseline ~cores:8
      [ row "a" 100.0; row ~section:"parallel" "p/shards=4" 500.0 ]
  in
  let r = Regress.compare b [ row "a" 100.0 ] ~cores:1 in
  check_int "no regression" 0 r.Regress.regressions;
  check_bool "skip is loud" true (List.mem "parallel" r.Regress.skipped_sections);
  check_bool "skip renders" true (contains (Regress.render r) "SKIPPED");
  (* Same machine (or bigger): the section is compared again. *)
  let r8 = Regress.compare b [ row "a" 100.0 ] ~cores:8 in
  check_int "missing parallel row counts on equal cores" 1 r8.Regress.regressions;
  (* Sub-noise-floor rows never produce timing findings, only steps. *)
  let b2 = baseline [ row ~steps:3 "tiny" 2.0 ] in
  let noisy = Regress.compare b2 [ row ~steps:3 "tiny" 60.0 ] ~cores:1 in
  check_int "below min_ns: timing ignored" 0 noisy.Regress.regressions;
  let wrong = Regress.compare b2 [ row ~steps:4 "tiny" 2.0 ] ~cores:1 in
  check_int "below min_ns: steps still checked" 1 wrong.Regress.regressions

let test_regress_json_roundtrip () =
  let b =
    {
      (baseline ~cores:2 [ row ~steps:24 "a" 100.25; row ~section:"parallel" "p" 7.5 ]) with
      Regress.b_tols = [ ("micro", 1.5) ];
    }
  in
  let j = get_ok (Json.parse (Json.to_string_pretty (Regress.baseline_to_json b))) in
  let b2 = get_ok (Regress.parse_baseline j) in
  check_bool "baseline round-trips" true (b = b2);
  (* And the bench --json shape (bare array, null steps) parses. *)
  let rows =
    get_ok
      (Result.bind
         (Json.parse
            "[{\"section\": \"micro\", \"name\": \"x\", \"params\": {\"quick\": false}, \
             \"ns_per_op\": 12.5, \"steps\": null}]")
         Regress.parse_rows)
  in
  check_bool "bench rows parse" true (rows = [ row ~quick:false "x" 12.5 ])

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "telemetry"
    [
      ( "histogram",
        [
          Alcotest.test_case "pinned boundaries" `Quick test_histogram_boundaries;
          Alcotest.test_case "stats" `Quick test_histogram_stats;
          Alcotest.test_case "percentile clamped to max" `Quick test_histogram_percentile_clamped;
          Alcotest.test_case "merge equals sequential" `Quick test_histogram_merge;
        ] );
      ( "registry",
        [
          Alcotest.test_case "cells and scrape" `Quick test_registry_basic;
          Alcotest.test_case "merge" `Quick test_registry_merge;
        ] );
      ( "trace",
        [
          Alcotest.test_case "sampling determinism" `Quick test_trace_sampling_deterministic;
          Alcotest.test_case "ring and events" `Quick test_trace_ring_and_events;
          Alcotest.test_case "enclave integration" `Quick test_trace_on_enclave;
          Alcotest.test_case "goto chain" `Quick test_trace_goto_chain;
        ] );
      ( "shard-merge",
        [ Alcotest.test_case "progen totals" `Quick test_shard_merge_totals ] );
      ( "export",
        [
          Alcotest.test_case "prometheus golden" `Quick test_prometheus_golden;
          Alcotest.test_case "json golden + roundtrip" `Quick test_json_golden_roundtrip;
        ] );
      ( "regress",
        [
          Alcotest.test_case "pass and fail" `Quick test_regress_pass_and_fail;
          Alcotest.test_case "core skip and noise floor" `Quick test_regress_core_skip_and_floor;
          Alcotest.test_case "json roundtrip" `Quick test_regress_json_roundtrip;
        ] );
    ]
