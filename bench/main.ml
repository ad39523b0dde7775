(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation (§5) plus micro-benchmarks and ablations.

   Usage:
     dune exec bench/main.exe                 -- everything
     dune exec bench/main.exe -- fig9 fig11   -- selected sections
     dune exec bench/main.exe -- quick        -- everything, scaled down
     dune exec bench/main.exe -- micro --json BENCH_micro.json

   Sections: table1 table2 listings footprint micro analysis parallel
             telemetry fig9 fig10 fig11 fig12 resilience ablations

   [--json FILE] additionally writes the measured rows of the Bechamel
   sections (micro, analysis, resilience), the parallel scaling sweep
   and the telemetry overhead runs to FILE as a JSON array of {section,
   name, params, ns_per_op, steps} objects, so CI can diff runs against
   bench/baseline.json (bench/check_regress.exe) without scraping the
   human tables. *)

module Time = Eden_base.Time
module Metadata = Eden_base.Metadata
module Addr = Eden_base.Addr
module Packet = Eden_base.Packet
module Enclave = Eden_enclave.Enclave
module Config = Eden_enclave.Config
module Breaker = Eden_enclave.Breaker
module Interp = Eden_bytecode.Interp
module P = Eden_bytecode.Program
module Stage = Eden_stage.Stage
module Builtin = Eden_stage.Builtin
module Channel = Eden_controller.Channel
module Controller = Eden_controller.Controller
open Eden_experiments

let section_header title =
  Printf.printf "\n%s\n%s\n%s\n" (String.make 78 '=') title (String.make 78 '=')

(* ------------------------------------------------------------------ *)
(* JSON result sink (--json FILE) *)

let json_rows : (string * string * float * int option) list ref = ref []
let bench_quick = ref false

let add_json ~section ?steps name ns = json_rows := (section, name, ns, steps) :: !json_rows

let write_json path =
  let rows = List.rev !json_rows in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "[\n";
  let n = List.length rows in
  List.iteri
    (fun i (section, name, ns, steps) ->
      Buffer.add_string buf
        (Printf.sprintf
           "  {\"section\": %S, \"name\": %S, \"params\": {\"quick\": %b}, \
            \"ns_per_op\": %.3f, \"steps\": %s}%s\n"
           section name !bench_quick ns
           (match steps with Some s -> string_of_int s | None -> "null")
           (if i < n - 1 then "," else "")))
    rows;
  Buffer.add_string buf "]\n";
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "\njson: %d rows written to %s\n" n path

(* ------------------------------------------------------------------ *)
(* Generic table printing *)

let print_table rows =
  match rows with
  | [] -> ()
  | header :: _ ->
    let cols = List.length header in
    let width c =
      List.fold_left (fun acc row -> max acc (String.length (List.nth row c))) 0 rows
    in
    let widths = List.init cols width in
    let print_row row =
      List.iteri
        (fun i cell -> Printf.printf "%-*s  " (List.nth widths i) cell)
        row;
      print_newline ()
    in
    print_row header;
    Printf.printf "%s\n" (String.make (List.fold_left ( + ) (2 * cols) widths) '-');
    List.iter print_row (List.tl rows)

(* ------------------------------------------------------------------ *)
(* Table 1 *)

let table1 () =
  section_header "Table 1: network functions and their data-plane requirements";
  print_table (Eden_functions.Catalog.to_table ())

(* ------------------------------------------------------------------ *)
(* Table 2: stage classification capabilities *)

let table2 () =
  section_header "Table 2: classification capabilities of the built-in stages";
  let stages =
    [ Builtin.memcached (); Builtin.http (); Builtin.storage (); Builtin.flow () ]
  in
  let rows =
    [ "Stage"; "Classifiers"; "Meta-data" ]
    :: List.map
         (fun st ->
           let info = Stage.Api.get_stage_info st in
           [
             info.Stage.stage_name;
             "<" ^ String.concat ", " info.Stage.classifier_fields ^ ">";
             "{msg_id"
             ^ (match info.Stage.metadata_fields with
               | [] -> "}"
               | fs -> ", " ^ String.concat ", " fs ^ "}");
           ])
         stages
  in
  print_table rows

(* ------------------------------------------------------------------ *)
(* Micro-benchmarks (Bechamel, on this machine's real interpreter) *)

let make_interp_env p =
  Interp.make_env p
    ~scalars:
      (Array.map
         (fun (s : P.scalar_slot) ->
           match s.P.s_name with
           | "Size" -> 1058L
           | "PayloadSize" -> 1000L
           | "FlowSize" -> 500_000L
           | "OpSize" -> 65_536L
           | "IsRead" -> 1L
           | "Tenant" -> 1L
           | "DstPort" -> 80L
           | "SrcHost" -> 1L
           | _ -> 0L)
         p.P.scalar_slots)
    ~arrays:
      (Array.map
         (fun (a : P.array_slot) ->
           match a.P.a_name with
           | "Thresholds" | "Limits" -> [| 10_240L; 1_048_576L |]
           | "Paths" -> [| 1L; 909L; 2L; 91L |]
           | "QueueMap" -> [| 0L; 1L |]
           | "Knocks" -> [| 1111L; 2222L; 3333L |]
           | "State" -> Array.make 16 0L
           | "ReplicaLabels" -> [| 301L; 302L |]
           | "Table" -> Array.init 64 (fun i -> Int64.of_int (i * 7))
           | _ -> [||])
         p.P.array_slots)

let pias_process_enclave variant =
  let e = Enclave.create ~host:1 () in
  (match Eden_functions.Pias.install ~variant e ~thresholds:[| 10_240L; 1_048_576L |] with
  | Ok () -> ()
  | Error msg -> invalid_arg msg);
  e

(* Compiled WCMP over three equal paths: its [rand] draws on every
   packet, so the allocation check covers the generator as well. *)
let wcmp_process_enclave () =
  let e = Enclave.create ~host:1 () in
  (match
     Eden_functions.Wcmp.install ~variant:`Compiled e
       ~matrix:(Eden_functions.Wcmp.ecmp_matrix ~labels:[ 1; 2; 3 ])
   with
  | Ok () -> ()
  | Error msg -> invalid_arg msg);
  e

(* perfbench's first-table action, [packet.GotoTable <- _global.Next],
   compiled: two steps, so its [process] time is almost all invocation
   overhead (rule lookup, marshal plan, engine entry and exit). *)
let jump_process_enclave () =
  let ok = function Ok x -> x | Error msg -> invalid_arg msg in
  let program =
    let src =
      "fun (packet : Packet, msg : Message, _global : Global) ->\n\
      \  packet.GotoTable <- _global.Next"
    in
    let ast =
      ok
        (Result.map_error Eden_lang.Parser.error_to_string
           (Eden_lang.Parser.parse_action ~name:"jump" src))
    in
    let schema =
      Eden_lang.Schema.with_standard_packet ~global:[ Eden_lang.Schema.field "Next" ] ()
    in
    ok
      (Result.map_error Eden_lang.Compile.error_to_string
         (Eden_lang.Compile.compile schema ast))
  in
  let e = Enclave.create ~host:1 () in
  ok
    (Enclave.install_action e
       { Enclave.i_name = "jump"; i_impl = Enclave.Compiled program; i_msg_sources = [] });
  ok (Enclave.set_global e ~action:"jump" "Next" 1L);
  ignore
    (ok (Enclave.add_table_rule e ~pattern:Eden_base.Class_name.Pattern.any ~action:"jump" ()));
  e

let bench_packet () =
  Packet.make ~id:1L
    ~flow:
      (Addr.five_tuple ~src:(Addr.endpoint 1 1000) ~dst:(Addr.endpoint 2 80)
         ~proto:Addr.Tcp)
    ~kind:Packet.Data ~payload:1000 ()

(* Bench loops send the same packet objects again and again, and
   [process] leaves the merged metadata on a packet.  [send] first puts
   back the stage metadata the bench packets are made with, so every
   send looks like a newly arrived packet of the same message. *)
let send e ~now pkt =
  pkt.Packet.metadata <- Metadata.empty;
  Enclave.process e ~now pkt

let run_bechamel tests =
  let open Bechamel in
  let ols = Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |] in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg instances (Test.make_grouped ~name:"micro" tests) in
  let results = List.map (fun i -> Analyze.all ols i raw) instances in
  let merged = Analyze.merge ols instances results in
  let clock_label = Measure.label Toolkit.Instance.monotonic_clock in
  let tbl = Hashtbl.find merged clock_label in
  Hashtbl.fold
    (fun name ols acc ->
      match Analyze.OLS.estimates ols with
      | Some (est :: _) -> (name, est) :: acc
      | Some [] | None -> acc)
    tbl []
  |> List.sort compare

(* Instructions a program retires on the bench environment — attached to
   the JSON rows so ns/op can be read as ns/step. *)
let program_steps p =
  let env = make_interp_env p in
  match Interp.run p ~env ~now:(Eden_base.Time.us 5) ~rng:(Eden_base.Rng.create 3L) with
  | Ok s -> s.Interp.steps
  | Error (_, s) -> s.Interp.steps

(* Steady-state allocation of an action invocation, on either engine:
   after the class memo and marshal plans are warm, [process] allocates
   nothing for marshalling, table lookup or the engine.  Scalars move
   unboxed from the packet, the message and the globals into the
   machine's I/O slots and back, and [State] stores them unboxed, so
   compiled and interpreted PIAS allocate what the no-policy baseline
   does (0.4 words more through [process_batch], whose result list and
   decision records are per batch).  Compiled WCMP draws from the
   machine's generator on every packet, which allocates nothing, and
   its chosen path is written back as one of the route-label options
   [Packet.label] shares, so it too allocates what the baseline does.
   The budget of 2 words over the baseline fails on a single stray
   3-word [int64] box, closure or 2-word option on the per-packet path;
   a boxing [rand] (14 words per draw) fails it. *)
let invocation_words_budget = 2.0

(* The no-policy path itself has an absolute bound: flow classification
   runs once per flow and the merged metadata once per message, the flow
   lookup is one probe and the trace verdict is built only for a sampled
   packet, so a packet that repeats its predecessor's flow and metadata
   allocates 6 words: the decision record and the loop's boxed
   timestamp.  The cost model only bumps int cells.  The budget of 8
   fails on a single stray 3-word box; classifying every packet again
   costs about 200. *)
let no_policy_words_budget = 8.0

(* A packet that opens a new flow pays for its flow record (the
   flow table is one array of records, so an entry allocates nothing
   more), the list of its flow-stage classes (the enclave's flow row is
   filled from the five-tuple's ints and the compiled tests read it
   unboxed, so classifying allocates nothing else) and its merged
   metadata: one record, plus the boxed flow id as message id since
   these packets carry no stage metadata; the flow's classes are stored
   in merged order, so the merge conses nothing onto them.  Over
   churn-like flow-stage rules (32 source-port and 8 destination-port
   buckets) that is about 29 words with the no-policy baseline's 6.  The
   budget has ~20% headroom; a boxed row (34 words) or a merge that
   rebuilds the flow's classes (about 45) fails it, and building and
   interpreting a descriptor per flow costs about 300. *)
let new_flow_words_budget = 35.0

let new_flow_enclave () =
  let e = Enclave.create ~host:1 () in
  let buckets ruleset field ~lo ~hi ~n =
    let width = (hi - lo + n) / n in
    for b = 0 to n - 1 do
      let a = Int64.of_int (lo + (b * width)) in
      let range = Eden_stage.Classifier.Range (a, Int64.add a (Int64.of_int (width - 1))) in
      match
        Stage.Api.create_stage_rule (Enclave.flow_stage e) ~ruleset
          ~classifier:[ (field, range) ]
          ~class_name:(Printf.sprintf "B%d" b) ~metadata_fields:[]
      with
      | Ok _ -> ()
      | Error msg -> invalid_arg msg
    done
  in
  buckets "sport" Builtin.Field.src_port ~lo:1024 ~hi:65_535 ~n:32;
  buckets "dport" Builtin.Field.dst_port ~lo:1 ~hi:65_535 ~n:8;
  e

let words_per_new_flow () =
  let e = new_flow_enclave () in
  (* Flow [i]'s five-tuple; unique for every [i] below 2^16 * 64k. *)
  let packet i =
    Packet.make ~id:(Int64.of_int i)
      ~flow:
        (Addr.five_tuple
           ~src:(Addr.endpoint (1 + (i / 64_000)) (1024 + (i mod 64_000)))
           ~dst:(Addr.endpoint 2 (1 + (i * 7_919 mod 65_535)))
           ~proto:Addr.Tcp)
      ~kind:Packet.Data ~payload:1000 ()
  in
  let warm = 1_000 and n = 20_000 in
  let pkts = Array.init (warm + n) packet in
  for i = 0 to warm - 1 do
    ignore (Enclave.process e ~now:(Eden_base.Time.us i) pkts.(i))
  done;
  let before = Gc.minor_words () in
  for i = warm to warm + n - 1 do
    ignore (Enclave.process e ~now:(Eden_base.Time.us i) pkts.(i))
  done;
  (Gc.minor_words () -. before) /. float_of_int n

(* The simulator's own allocation: minor words per host-transmitted
   packet over a short Fig. 9 Baseline/Native run (no enclave, so netsim,
   TCP and the workload are all that allocate), about 47.  Simulated
   time stays in integer ticks from transmit to ACK, random draws and
   route and flow lookups allocate nothing, so what is left is the
   packet and its id, [Packet.make]'s optional arguments (boxed in this
   dev profile only), one queue cell per buffer, flight and NIC entry,
   the send-time entry and the RTO closure.  The budget has the ~20%
   headroom of [no_policy_words_budget]; a boxed time per calendar
   event (about five events per packet, 3 words each) fails it, and
   boxed times, draws and lookups throughout cost about 122. *)
let sim_words_budget = 56.0

let sim_words_per_packet () =
  let params = { Fig9.default_params with Fig9.runs = 1; duration = Time.ms 60 } in
  let sc = Fig9.scenario params Fig9.Baseline Fig9.Native ~seed:params.Fig9.seed in
  let before = Gc.minor_words () in
  Eden_netsim.Net.run ~until:sc.Fig9.horizon sc.Fig9.net;
  let words = Gc.minor_words () -. before in
  let tx =
    List.fold_left
      (fun acc h ->
        acc
        + Eden_telemetry.Counter.get
            (Eden_telemetry.Registry.counter (Eden_netsim.Host.telemetry h)
               "eden_host_tx_packets_total"))
      0
      (Eden_netsim.Net.hosts sc.Fig9.net)
  in
  words /. float_of_int tx

let allocation_check () =
  let words_per_packet e =
    let pkt = bench_packet () in
    for i = 1 to 1_000 do
      ignore (send e ~now:(Eden_base.Time.us i) pkt)
    done;
    let n = 10_000 in
    let before = Gc.minor_words () in
    for i = 1 to n do
      ignore (send e ~now:(Eden_base.Time.us (1_000 + i)) pkt)
    done;
    (Gc.minor_words () -. before) /. float_of_int n
  in
  let base = words_per_packet (Enclave.create ~host:1 ()) in
  let compiled = words_per_packet (pias_process_enclave `Compiled) in
  let delta = compiled -. base in
  Printf.printf
    "\nallocation (minor words/packet): no-policy %.1f (budget %.0f), compiled pias %.1f, \
     delta %.1f (budget %.0f)\n"
    base no_policy_words_budget compiled delta invocation_words_budget;
  if base > no_policy_words_budget then begin
    Printf.printf
      "ALLOCATION REGRESSION: the no-policy data path allocates %.1f words/packet (budget \
       %.0f)\n"
      base no_policy_words_budget;
    exit 1
  end;
  if delta > invocation_words_budget then begin
    Printf.printf
      "ALLOCATION REGRESSION: the cached compiled data path allocates %.1f words/packet \
       over the no-policy baseline\n"
      delta;
    exit 1
  end;
  let wcmp = words_per_packet (wcmp_process_enclave ()) in
  Printf.printf
    "allocation (minor words/packet): compiled wcmp %.1f, delta %.1f (budget %.0f)\n" wcmp
    (wcmp -. base) invocation_words_budget;
  if wcmp -. base > invocation_words_budget then begin
    Printf.printf
      "ALLOCATION REGRESSION: compiled WCMP allocates %.1f words/packet over the no-policy \
       baseline\n"
      (wcmp -. base);
    exit 1
  end;
  (* The batched entry point must stay on the same budget: its
     per-packet grouping state is two preallocated refs, so the only
     extra allocation over [process] is the result list and decision
     records it returns. *)
  let batch_words_per_packet e =
    let pkts = List.init 32 (fun _ -> bench_packet ()) in
    let arrive pkt = pkt.Packet.metadata <- Metadata.empty in
    for i = 1 to 100 do
      List.iter arrive pkts;
      ignore (Enclave.process_batch e ~now:(Eden_base.Time.us i) pkts)
    done;
    let rounds = 400 in
    let before = Gc.minor_words () in
    for i = 1 to rounds do
      List.iter arrive pkts;
      ignore (Enclave.process_batch e ~now:(Eden_base.Time.us (100 + i)) pkts)
    done;
    (Gc.minor_words () -. before) /. float_of_int (rounds * 32)
  in
  let batched = batch_words_per_packet (pias_process_enclave `Compiled) in
  Printf.printf
    "allocation (minor words/packet): compiled pias via process_batch %.1f, delta %.1f \
     (budget %.0f)\n"
    batched (batched -. base) invocation_words_budget;
  if batched -. base > invocation_words_budget then begin
    Printf.printf
      "ALLOCATION REGRESSION: process_batch allocates %.1f words/packet over the \
       no-policy baseline\n"
      (batched -. base);
    exit 1
  end;
  let interpreted = words_per_packet (pias_process_enclave `Interpreted) in
  Printf.printf
    "allocation (minor words/packet): interpreted pias %.1f, delta %.1f (budget %.0f)\n"
    interpreted (interpreted -. base) invocation_words_budget;
  if interpreted -. base > invocation_words_budget then begin
    Printf.printf
      "ALLOCATION REGRESSION: the interpreted data path allocates %.1f words/packet over the \
       no-policy baseline\n"
      (interpreted -. base);
    exit 1
  end;
  let new_flow = words_per_new_flow () in
  Printf.printf
    "allocation (minor words/packet): new flow, 32 + 8 port-bucket flow rules %.1f (budget \
     %.0f)\n"
    new_flow new_flow_words_budget;
  if new_flow > new_flow_words_budget then begin
    Printf.printf
      "ALLOCATION REGRESSION: a packet opening a new flow allocates %.1f words (budget %.0f)\n"
      new_flow new_flow_words_budget;
    exit 1
  end;
  let sim = sim_words_per_packet () in
  Printf.printf
    "allocation (minor words/packet): Fig. 9 baseline/native simulation %.1f (budget %.0f)\n"
    sim sim_words_budget;
  if sim > sim_words_budget then begin
    Printf.printf
      "ALLOCATION REGRESSION: the simulator allocates %.1f words per host-transmitted \
       packet (budget %.0f)\n"
      sim sim_words_budget;
    exit 1
  end

let micro () =
  section_header "Micro-benchmarks: real interpreter cost on this machine (Bechamel)";
  let open Bechamel in
  let interp_test name program =
    let env = make_interp_env program in
    let rng = Eden_base.Rng.create 3L in
    Test.make ~name:("interp/" ^ name)
      (Staged.stage (fun () ->
           ignore (Interp.run program ~env ~now:(Eden_base.Time.us 5) ~rng)))
  in
  let compiled_test name program =
    match Eden_bytecode.Compiled.compile program with
    | Error e -> invalid_arg (Eden_bytecode.Verifier.error_to_string e)
    | Ok cp ->
      let env = make_interp_env program in
      let rng = Eden_base.Rng.create 3L in
      Test.make ~name:("compiled/" ^ name)
        (Staged.stage (fun () ->
             ignore (Eden_bytecode.Compiled.exec cp ~env ~now:(Eden_base.Time.us 5) ~rng)))
  in
  let ei = pias_process_enclave `Interpreted in
  let en = pias_process_enclave `Native in
  let ec = pias_process_enclave `Compiled in
  let ej = jump_process_enclave () in
  let e0 = Enclave.create ~host:1 () in
  let pkt = bench_packet () in
  let stage = Builtin.memcached () in
  (match
     Stage.Api.create_stage_rule stage ~ruleset:"r1"
       ~classifier:[ (Builtin.Field.msg_type, Eden_stage.Classifier.eq_str "GET") ]
       ~class_name:"GET" ~metadata_fields:[ "msg_size" ]
   with
  | Ok _ -> ()
  | Error msg -> invalid_arg msg);
  let descriptor = Builtin.memcached_descriptor ~op:`Get ~key:"user:1" ~size:1024 in
  let scratch_test name program =
    let env = make_interp_env program in
    let scratch = Interp.make_scratch program in
    let rng = Eden_base.Rng.create 3L in
    Test.make ~name:("interp/" ^ name ^ " (scratch)")
      (Staged.stage (fun () ->
           ignore (Interp.run ~scratch program ~env ~now:(Eden_base.Time.us 5) ~rng)))
  in
  let engine_subjects =
    [
      ("pias", Eden_functions.Pias.program ());
      ("wcmp", Eden_functions.Wcmp.program ());
      ("pulsar", Eden_functions.Pulsar.program ());
      ("port_knocking", Eden_functions.Port_knocking.program ());
    ]
  in
  let tests =
    List.map (fun (n, p) -> interp_test n p) engine_subjects
    @ [ scratch_test "pias" (Eden_functions.Pias.program ()) ]
    @ List.map (fun (n, p) -> compiled_test n p) engine_subjects
    @ [
        Test.make ~name:"enclave/process interpreted pias"
          (Staged.stage (fun () -> ignore (send ei ~now:(Eden_base.Time.us 1) pkt)));
        Test.make ~name:"enclave/process compiled pias"
          (Staged.stage (fun () -> ignore (send ec ~now:(Eden_base.Time.us 1) pkt)));
        Test.make ~name:"enclave/process compiled jump"
          (Staged.stage (fun () -> ignore (send ej ~now:(Eden_base.Time.us 1) pkt)));
        Test.make ~name:"enclave/process native pias"
          (Staged.stage (fun () -> ignore (send en ~now:(Eden_base.Time.us 1) pkt)));
        Test.make ~name:"enclave/process no-policy"
          (Staged.stage (fun () -> ignore (send e0 ~now:(Eden_base.Time.us 1) pkt)));
        Test.make ~name:"stage/classify memcached"
          (Staged.stage (fun () -> ignore (Stage.classify stage descriptor)));
        Test.make ~name:"compiler/compile pias"
          (Staged.stage (fun () ->
               ignore
                 (Eden_lang.Compile.compile Eden_functions.Pias.schema
                    Eden_functions.Pias.action)));
      ]
  in
  let results = run_bechamel tests in
  let steps_of name =
    List.find_map
      (fun (n, p) ->
        if
          String.equal name ("micro/interp/" ^ n)
          || String.equal name ("micro/compiled/" ^ n)
          || String.equal name ("micro/interp/" ^ n ^ " (scratch)")
        then Some (program_steps p)
        else None)
      engine_subjects
  in
  Printf.printf "%-42s %14s\n" "benchmark" "ns/iteration";
  Printf.printf "%s\n" (String.make 58 '-');
  List.iter
    (fun (name, ns) ->
      add_json ~section:"micro" ?steps:(steps_of name) name ns;
      Printf.printf "%-42s %14.1f\n" name ns)
    results;
  (* Interpreted-vs-compiled: the tentpole's payoff, per function. *)
  Printf.printf "\ncompiled engine vs checked interpreter (same programs, same envs):\n";
  List.iter
    (fun (n, _) ->
      match
        ( List.assoc_opt ("micro/interp/" ^ n) results,
          List.assoc_opt ("micro/compiled/" ^ n) results )
      with
      | Some i, Some c when c > 0.0 ->
        Printf.printf "  %-16s interp %8.1f ns -> compiled %8.1f ns  (%.1fx)\n" n i c
          (i /. c)
      | _ -> ())
    engine_subjects;
  (* Calibration: ns per interpreter step for PIAS. *)
  (match List.assoc_opt "micro/interp/pias" results with
  | Some ns -> (
    let p = Eden_functions.Pias.program () in
    let env = make_interp_env p in
    match Interp.run p ~env ~now:(Eden_base.Time.us 5) ~rng:(Eden_base.Rng.create 3L) with
    | Ok stats ->
      Printf.printf
        "\ncalibration: PIAS runs %d steps -> measured %.2f ns/step (cost model: %.1f)\n"
        stats.Interp.steps
        (ns /. float_of_int stats.Interp.steps)
        Eden_enclave.Cost.os_model.Eden_enclave.Cost.per_step_ns
    | Error _ -> ())
  | None -> ());
  (* Class-memo behaviour under a many-flow workload: each table's memo
     keeps one entry per class, bounded by [flow_cache_capacity], so a
     stream of many flows over few classes resolves from it. *)
  let e = pias_process_enclave `Compiled in
  let n_flows = 64 in
  let pkts =
    Array.init n_flows (fun i ->
        Packet.make ~id:(Int64.of_int i)
          ~flow:
            (Addr.five_tuple ~src:(Addr.endpoint 1 (1000 + i)) ~dst:(Addr.endpoint 2 80)
               ~proto:Addr.Tcp)
          ~kind:Packet.Data ~payload:1000 ())
  in
  for i = 0 to 9_999 do
    ignore (send e ~now:(Eden_base.Time.us (i + 1)) pkts.(i mod n_flows))
  done;
  let c = Enclave.counters e in
  Printf.printf
    "\nclass memo (capacity %d): 10k packets over %d flows -> %d hits, %d misses, %d \
     evictions (the memo keys on classes; metadata-less flows share one)\n"
    (Enclave.flow_cache_capacity e) n_flows c.Enclave.cache_hits c.Enclave.cache_misses
    c.Enclave.cache_evictions;
  allocation_check ()

(* ------------------------------------------------------------------ *)
(* Install-time analysis: analyzer cost, and the interpreter on the
   analysed subjects *)

(* A synthetic subject where array loads dominate: a 64-entry table
   scan.  The paper functions touch their arrays a handful of times per
   packet, so the per-access bounds check drowns in interpreter
   dispatch; this one makes it visible. *)
let table_scan_program () =
  let a =
    let open Eden_lang.Dsl in
    action "table_scan"
      (let_mut "i" (int 0) @@ fun i ->
       let_mut "acc" (int 0) @@ fun acc ->
       while_ (i < glob_arr_len "Table")
         (assign "acc" (acc + glob_arr "Table" i) ^^ assign "i" (i + int 1))
       ^^ set_pkt "Priority" (acc % int 8))
  in
  let schema =
    Eden_lang.Schema.with_standard_packet
      ~global_arrays:[ Eden_lang.Schema.array ~min_length:64 "Table" ] ()
  in
  match Eden_lang.Compile.compile schema a with
  | Ok p -> p
  | Error e -> invalid_arg (Eden_lang.Compile.error_to_string e)

let analysis () =
  section_header "Install-time analysis: analyzer cost";
  let open Bechamel in
  let analyze_test name schema action =
    Test.make ~name:("analyze/" ^ name)
      (Staged.stage (fun () -> ignore (Eden_analysis.Analyze.run schema action)))
  in
  let interp_test name p =
    let env = make_interp_env p in
    let scratch = Interp.make_scratch p in
    let rng = Eden_base.Rng.create 3L in
    Test.make ~name:(Printf.sprintf "interp/%s (checked)" name)
      (Staged.stage (fun () ->
           ignore (Interp.run ~scratch p ~env ~now:(Eden_base.Time.us 5) ~rng)))
  in
  let subjects =
    [
      ("wcmp", Eden_functions.Wcmp.program ());
      ("pias", Eden_functions.Pias.program ());
      ("port_knocking", Eden_functions.Port_knocking.program ());
      ("table_scan", table_scan_program ());
    ]
  in
  let tests =
    analyze_test "wcmp" Eden_functions.Wcmp.schema Eden_functions.Wcmp.action
    :: analyze_test "pias" Eden_functions.Pias.schema Eden_functions.Pias.action
    :: analyze_test "sff" Eden_functions.Sff.schema Eden_functions.Sff.action
    :: List.map (fun (n, p) -> interp_test n p) subjects
  in
  let results = run_bechamel tests in
  Printf.printf "%-42s %14s\n" "benchmark" "ns/iteration";
  Printf.printf "%s\n" (String.make 58 '-');
  List.iter
    (fun (name, ns) ->
      add_json ~section:"analysis" name ns;
      Printf.printf "%-42s %14.1f\n" name ns)
    results

(* ------------------------------------------------------------------ *)
(* Ablations *)

let ablation_message_vs_packet_wcmp quick =
  Printf.printf "\nAblation: packet-level vs message-level WCMP (Fig. 2's two functions)\n";
  let params =
    if quick then { Fig10.default_params with runs = 2; duration = Time.ms 100 }
    else { Fig10.default_params with runs = 3 }
  in
  let pkt = Fig10.run_config params Fig10.Wcmp Fig10.Eden in
  let message_goodput =
    let open Eden_netsim in
    let run seed =
      let net = Net.create ~seed () in
      let sa = Net.add_switch net in
      let sb = Net.add_switch net in
      let h0 = Net.add_host net in
      let h1 = Net.add_host net in
      let p0 = Net.connect_host net h0 sa ~rate_bps:20e9 () in
      Switch.set_dst_route sa ~dst:(Host.id h0) ~ports:[ p0 ];
      let p1 = Net.connect_host net h1 sb ~rate_bps:20e9 () in
      Switch.set_dst_route sb ~dst:(Host.id h1) ~ports:[ p1 ];
      let fa, fb = Net.connect_switches net sa sb ~rate_bps:10e9 () in
      let sl_a, _ = Net.connect_switches net sa sb ~rate_bps:1e9 () in
      Switch.set_label_route sa ~label:1 ~port:fa;
      Switch.set_label_route sa ~label:2 ~port:sl_a;
      Switch.set_label_route sb ~label:1 ~port:p1;
      Switch.set_label_route sb ~label:2 ~port:p1;
      Switch.set_dst_route sb ~dst:(Host.id h0) ~ports:[ fb ];
      Switch.set_dst_route sa ~dst:(Host.id h1) ~ports:[ fa ];
      let e = Enclave.create ~placement:Enclave.Nic ~host:(Host.id h0) ~seed () in
      (match
         Eden_functions.Wcmp.install ~variant:`Message e ~matrix:[| 1L; 909L; 2L; 91L |]
       with
      | Ok () -> ()
      | Error msg -> invalid_arg msg);
      Host.set_enclave h0 e;
      (* Message-level balancing needs many concurrent messages; run 16
         flows (each flow = one message under enclave classification). *)
      let flows =
        List.init 16 (fun _ -> Net.open_flow net ~src:(Host.id h0) ~dst:(Host.id h1) ())
      in
      List.iter
        (fun f ->
          Tcp.Sender.send_message f.Net.f_sender 80_000_000;
          Tcp.Sender.close f.Net.f_sender)
        flows;
      Net.run ~until:params.Fig10.duration net;
      let bytes =
        List.fold_left
          (fun acc f -> acc + Tcp.Receiver.bytes_delivered f.Net.f_receiver)
          0 flows
      in
      Eden_base.Stats.mbps ~bytes_transferred:bytes ~duration:params.Fig10.duration
    in
    (run 77L +. run 78L) /. 2.0
  in
  Printf.printf "  per-packet WCMP : %8.0f Mbps (max balance, TCP reordering)\n"
    pkt.Fig10.goodput_mbps;
  Printf.printf "  per-message WCMP: %8.0f Mbps (no reordering, coarser balance)\n"
    message_goodput

let ablation_concurrency () =
  Printf.printf "\nAblation: concurrency level derived from access annotations (§3.4.4)\n";
  let e = Enclave.create ~host:1 () in
  let install name f = match f with Ok () -> ignore name | Error m -> invalid_arg m in
  install "pias" (Eden_functions.Pias.install e ~thresholds:[| 10_240L |]);
  install "sff" (Eden_functions.Sff.install e ~thresholds:[| 10_240L |]);
  install "wcmp" (Eden_functions.Wcmp.install e ~matrix:[| 1L; 1000L |]);
  install "knock"
    (Eden_functions.Port_knocking.install e ~knocks:[ 1; 2 ] ~protected_port:22
       ~max_hosts:4);
  List.iter
    (fun name ->
      match Enclave.concurrency_of e name with
      | Some level ->
        Printf.printf "  %-16s %s\n" name
          (match level with
          | `Parallel -> "parallel (read-only state)"
          | `Per_message -> "per-message (writes message state)"
          | `Serial -> "serial (writes global state)")
      | None -> ())
    [ "sff"; "wcmp"; "pias"; "port_knocking" ]

let ablation_fault_isolation () =
  Printf.printf "\nAblation: fault isolation — a faulty action cannot take the host down\n";
  let e = Enclave.create ~host:1 () in
  (* An action that loops forever: the step budget terminates it. *)
  let looping =
    let open Eden_lang.Dsl in
    action "looper" (while_ tru (set_pkt "Priority" (int 1)))
  in
  let p =
    match
      Eden_lang.Compile.compile ~step_limit:2_000
        (Eden_lang.Schema.with_standard_packet ())
        looping
    with
    | Ok p -> p
    | Error e -> invalid_arg (Eden_lang.Compile.error_to_string e)
  in
  (match
     Enclave.install_action e
       { Enclave.i_name = "looper"; i_impl = Enclave.Interpreted p; i_msg_sources = [] }
   with
  | Ok () -> ()
  | Error msg -> invalid_arg msg);
  (match
     Enclave.add_table_rule e ~pattern:Eden_base.Class_name.Pattern.any ~action:"looper" ()
   with
  | Ok _ -> ()
  | Error msg -> invalid_arg msg);
  let pkt = bench_packet () in
  let forwarded = ref 0 in
  for i = 1 to 1000 do
    match send e ~now:(Time.us i) pkt with
    | Enclave.Forward _ -> incr forwarded
    | Enclave.Dropped _ -> ()
  done;
  let c = Enclave.counters e in
  Printf.printf
    "  1000 packets through an infinitely-looping action: %d forwarded, %d faults recorded\n"
    !forwarded c.Enclave.faults;
  match Enclave.faults e with
  | { Enclave.fr_fault = Eden_bytecode.Interp.Step_limit_exceeded _; _ } :: _ ->
    Printf.printf "  every invocation was cut off by the %d-step budget (fail-open)\n" 2_000
  | _ -> Printf.printf "  unexpected fault kind\n"

let ablation_reorder_tolerant_tcp quick =
  Printf.printf
    "\nAblation: vanilla vs reorder-tolerant TCP under per-packet WCMP (paper 5.2, [53])\n";
  let base =
    if quick then { Fig10.default_params with runs = 2; duration = Time.ms 100 }
    else { Fig10.default_params with runs = 3 }
  in
  List.iter
    (fun threshold ->
      let params = { base with Fig10.dupack_threshold = threshold } in
      let r = Fig10.run_config params Fig10.Wcmp Fig10.Eden in
      Printf.printf "  dupack threshold %3d: %8.0f Mbps (retx/run %d)\n" threshold
        r.Fig10.goodput_mbps r.Fig10.retransmissions)
    [ 3; 10; 50 ];
  Printf.printf "  (min-cut of the topology: 11000 Mbps)\n"

let ablation_batching () =
  Printf.printf "\nAblation: IO batching amortizes classification (paper 6)\n";
  let overhead batch =
    let e = pias_process_enclave `Interpreted in
    let f =
      Addr.five_tuple ~src:(Addr.endpoint 1 1000) ~dst:(Addr.endpoint 2 80) ~proto:Addr.Tcp
    in
    let n = 20_000 in
    let i = ref 0 in
    while !i < n do
      let batch_pkts =
        List.init (min batch (n - !i)) (fun k ->
            Packet.make ~id:(Int64.of_int (!i + k)) ~flow:f ~kind:Packet.Data
              ~payload:1000 ())
      in
      ignore (Enclave.process_batch e ~now:(Time.us !i) batch_pkts);
      i := !i + batch
    done;
    Eden_enclave.Cost.overhead_pct (Enclave.cost_model e) (Enclave.cost e)
  in
  List.iter
    (fun b -> Printf.printf "  batch %3d: total overhead %5.2f%%\n" b (overhead b))
    [ 1; 8; 32 ]

let ablation_pias_over_dctcp quick =
  Printf.printf
    "\nAblation: PIAS over vanilla TCP vs DCTCP (PIAS's native transport)\n";
  let base =
    if quick then
      { Fig9.default_params with runs = 2; duration = Time.ms 120; link_rate_bps = 10e9 }
    else { Fig9.default_params with runs = 3; link_rate_bps = 10e9 }
  in
  List.iter
    (fun ecn ->
      let r = Fig9.run_config { base with Fig9.ecn } Fig9.Pias Fig9.Eden in
      Printf.printf "  %-12s small avg %6.0fus p95 %6.0fus | inter avg %6.0fus p95 %6.0fus\n"
        (if ecn then "DCTCP" else "vanilla TCP")
        r.Fig9.small.Fig9.avg_us r.Fig9.small.Fig9.p95_us r.Fig9.intermediate.Fig9.avg_us
        r.Fig9.intermediate.Fig9.p95_us)
    [ false; true ]

let ablations quick =
  section_header "Ablations";
  ablation_message_vs_packet_wcmp quick;
  ablation_reorder_tolerant_tcp quick;
  ablation_pias_over_dctcp quick;
  ablation_batching ();
  ablation_concurrency ();
  ablation_fault_isolation ()

(* ------------------------------------------------------------------ *)
(* Resilience: the robustness machinery must be free on the fault-free
   hot path.  Three measured claims:

   - the per-action circuit breaker, OFF by default, adds nothing to
     [process]; enabled-but-healthy it adds only the admit/record pair,
     and a quarantined action is *cheaper* than a healthy one (the whole
     point of quarantine is not paying for a failing invocation);
   - a control-plane op through the fallible channel costs only op-id
     memoization over the direct enclave call, and the full controller
     broadcast (retry wrapper + desired state + two-phase commit) stays
     in the same order of magnitude — none of it is per-packet;
   - the breaker's bookkeeping allocates nothing: the enabled-healthy
     data path stays within a few words of the disabled one, asserted
     like the main allocation budget. *)

let breaker_allocation_budget = 8.0

let resilience () =
  section_header "Resilience: fault machinery off the fault-free hot path";
  let open Bechamel in
  let pkt = bench_packet () in
  let e_off = pias_process_enclave `Compiled in
  let e_on = pias_process_enclave `Compiled in
  Enclave.set_breaker e_on (Some Breaker.default);
  (* An action that faults on every invocation (division by a zeroed
     global), so the breaker trips and steady state is the quarantined
     fall-through. *)
  let e_quar =
    let open Eden_lang in
    let schema = Schema.with_standard_packet ~global:[ Schema.field "D" ] () in
    let act = Dsl.(action "divider" (set_pkt "Priority" (int 6 / glob "D"))) in
    let program =
      match Compile.compile schema act with
      | Ok p -> p
      | Error e -> invalid_arg (Compile.error_to_string e)
    in
    let e = Enclave.create ~host:9 () in
    let ok = function Ok _ -> () | Error msg -> invalid_arg msg in
    ok
      (Enclave.install_action e
         { Enclave.i_name = "divider"; i_impl = Enclave.Compiled program; i_msg_sources = [] });
    ok (Enclave.set_global e ~action:"divider" "D" 0L);
    ok (Enclave.add_table_rule e ~pattern:Eden_base.Class_name.Pattern.any ~action:"divider" ());
    e
  in
  Enclave.set_breaker e_quar
    (Some { Breaker.default with Breaker.br_cooldown = Eden_base.Time.ms 100_000 });
  for i = 1 to 100 do
    ignore (send e_quar ~now:(Eden_base.Time.us i) pkt)
  done;
  assert (Enclave.breaker_state e_quar "divider" = Some `Open);
  let e_direct = pias_process_enclave `Compiled in
  let ch = Channel.create (pias_process_enclave `Compiled) in
  let ch_op_id = ref 0L in
  let ctl = Controller.create () in
  Controller.register_enclave ctl (Enclave.create ~host:7 ());
  (match Controller.install_action_everywhere ctl (Eden_functions.Pias.spec ()) with
  | Ok () -> ()
  | Error msg -> invalid_arg msg);
  let tests =
    [
      Test.make ~name:"process/breaker off (default)"
        (Staged.stage (fun () -> ignore (send e_off ~now:(Eden_base.Time.us 1) pkt)));
      Test.make ~name:"process/breaker on, healthy"
        (Staged.stage (fun () -> ignore (send e_on ~now:(Eden_base.Time.us 1) pkt)));
      Test.make ~name:"process/breaker on, quarantined"
        (Staged.stage (fun () ->
             ignore (send e_quar ~now:(Eden_base.Time.us 200) pkt)));
      Test.make ~name:"control/set_global direct"
        (Staged.stage (fun () ->
             ignore (Enclave.set_global e_direct ~action:"pias" "K" 1L)));
      Test.make ~name:"control/set_global via channel"
        (Staged.stage (fun () ->
             ch_op_id := Int64.add !ch_op_id 1L;
             ignore
               (Channel.send ch ~op_id:!ch_op_id ~gen:1
                  (Config.Set_global { action = "pias"; name = "K"; value = 1L }))));
      Test.make ~name:"control/set_global_everywhere"
        (Staged.stage (fun () ->
             ignore (Controller.set_global_everywhere ctl ~action:"pias" "K" 1L)));
    ]
  in
  let results = run_bechamel tests in
  List.iter
    (fun (name, ns) ->
      Printf.printf "  %-40s %10.1f ns/op\n" name ns;
      add_json ~section:"resilience" name ns)
    results;
  (* Allocation: enabling the breaker must not put allocation on the
     per-packet path. *)
  let words_per_packet e =
    for i = 1 to 1_000 do
      ignore (send e ~now:(Eden_base.Time.us i) pkt)
    done;
    let n = 10_000 in
    let before = Gc.minor_words () in
    for i = 1 to n do
      ignore (send e ~now:(Eden_base.Time.us (1_000 + i)) pkt)
    done;
    (Gc.minor_words () -. before) /. float_of_int n
  in
  let off = words_per_packet e_off in
  let on = words_per_packet e_on in
  let delta = on -. off in
  Printf.printf
    "\nallocation (minor words/packet): breaker off %.1f, breaker on %.1f, delta %.1f \
     (budget %.0f)\n"
    off on delta breaker_allocation_budget;
  if delta > breaker_allocation_budget then begin
    Printf.printf
      "ALLOCATION REGRESSION: the enabled-healthy breaker path allocates %.1f \
       words/packet over the disabled one\n"
      delta;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Parallel sharded data path: throughput scaling across worker domains
   (Shard).  Packets are prebuilt and fed fire-and-forget through the
   SPSC rings; wall-clock over the whole stream gives pps.  On a
   single-core container the sweep still runs (workers park on condvars,
   the feeder blocks on full rings) but shows no speedup, so the scaling
   assertion below is gated on the machine actually having cores. *)

let parallel_bench quick =
  section_header "Parallel sharded data path (RSS-style flow sharding)";
  let module Shard = Eden_enclave.Shard in
  let n_packets = if quick then 20_000 else 120_000 in
  let shard_counts = [ 1; 2; 4; 8 ] in
  let pool_mask = 4095 in
  let mk_flow i =
    Addr.five_tuple
      ~src:(Addr.endpoint 1 (1000 + (i mod 64)))
      ~dst:(Addr.endpoint 2 80) ~proto:Addr.Tcp
  in
  let mk_pool md_of =
    Array.init (pool_mask + 1) (fun i ->
        Packet.make ~id:(Int64.of_int i) ~flow:(mk_flow i) ~kind:Packet.Data ~seq:i
          ~payload:(200 + (113 * i mod 1200))
          ~metadata:(md_of i) ())
  in
  let plain_pool = mk_pool (fun _ -> Metadata.empty) in
  let storage_pool =
    (* Pulsar only fires on storage-stage classes; give it its own
       workload of READ/WRITE ops spread over 64 messages and 3 tenants. *)
    mk_pool (fun i ->
        let op = if i mod 2 = 0 then "READ" else "WRITE" in
        let md = Metadata.with_msg_id (Int64.of_int (100 + (i mod 64))) Metadata.empty in
        let md =
          Metadata.add_class
            (Eden_base.Class_name.v ~stage:"storage" ~ruleset:"ops" ~name:op)
            md
        in
        let md = Metadata.add "operation" (Metadata.str op) md in
        let md = Metadata.add "tenant" (Metadata.int (i mod 3)) md in
        Metadata.add "msg_size" (Metadata.int (512 * (1 + (i mod 7)))) md)
  in
  let sff_pool =
    mk_pool (fun i -> Eden_functions.Sff.metadata_for ~size:(512 * (1 + (i mod 9))))
  in
  let subjects =
    [
      ( "wcmp",
        (fun e v ->
          Eden_functions.Wcmp.install
            ~variant:(match v with `Interp -> `Packet | `Compiled -> `Compiled)
            e
            ~matrix:(Eden_functions.Wcmp.ecmp_matrix ~labels:[ 1; 2; 3 ])),
        plain_pool );
      ( "pias",
        (fun e v ->
          Eden_functions.Pias.install
            ~variant:(match v with `Interp -> `Interpreted | `Compiled -> `Compiled)
            e ~thresholds:[| 10_240L; 1_048_576L |]),
        plain_pool );
      ( "pulsar",
        (fun e v ->
          Eden_functions.Pulsar.install
            ~variant:(match v with `Interp -> `Interpreted | `Compiled -> `Compiled)
            e ~queue_map:[| 1; 2; 3 |]),
        storage_pool );
      ( "sff",
        (fun e v ->
          Eden_functions.Sff.install
            ~variant:(match v with `Interp -> `Interpreted | `Compiled -> `Compiled)
            e ~thresholds:[| 1024L; 4096L |]),
        sff_pool );
    ]
  in
  let measure install pool variant shards =
    let e = Enclave.create ~host:1 () in
    (match install e variant with Ok () -> () | Error msg -> invalid_arg msg);
    match Eden_enclave.Shard.create ~shards ~parallel:true e with
    | Error msg -> invalid_arg msg
    | Ok s ->
      let now = ref 0 in
      let feed n =
        for _ = 1 to n do
          incr now;
          Shard.feed s ~now:(Time.us !now) pool.(!now land pool_mask)
        done;
        Shard.drain s
      in
      feed 2_000;
      let t0 = Unix.gettimeofday () in
      feed n_packets;
      let dt = Unix.gettimeofday () -. t0 in
      let c = Shard.counters s in
      if c.Enclave.packets < n_packets then invalid_arg "parallel bench lost packets";
      Shard.stop s;
      float_of_int n_packets /. dt
  in
  Printf.printf "throughput (Mpps), %d-packet stream, %d flows/messages:\n\n" n_packets 64;
  Printf.printf "%-20s" "function/engine";
  List.iter (fun n -> Printf.printf "%10s" (Printf.sprintf "%d shard%s" n (if n = 1 then "" else "s"))) shard_counts;
  Printf.printf "%12s\n" "4v1 speedup";
  Printf.printf "%s\n" (String.make 72 '-');
  let speedups = Hashtbl.create 8 in
  List.iter
    (fun (name, install, pool) ->
      List.iter
        (fun (vlabel, variant) ->
          let pps =
            List.map
              (fun shards ->
                let pps = measure install pool variant shards in
                add_json ~section:"parallel"
                  (Printf.sprintf "parallel/%s/%s/shards=%d" name vlabel shards)
                  (1e9 /. pps);
                (shards, pps))
              shard_counts
          in
          let p1 = List.assoc 1 pps and p4 = List.assoc 4 pps in
          Hashtbl.replace speedups (name, vlabel) (p4 /. p1);
          Printf.printf "%-20s" (name ^ "/" ^ vlabel);
          List.iter (fun (_, p) -> Printf.printf "%10.2f" (p /. 1e6)) pps;
          Printf.printf "%11.2fx\n" (p4 /. p1))
        [ ("interp", `Interp); ("compiled", `Compiled) ])
    subjects;
  let cores = Domain.recommended_domain_count () in
  let sp = try Hashtbl.find speedups ("pias", "compiled") with Not_found -> 0.0 in
  if cores >= 4 then begin
    Printf.printf "\ncompiled PIAS at 4 shards: %.2fx vs 1 shard (%d cores, require >= 1.6x)\n"
      sp cores;
    if sp < 1.6 then begin
      Printf.printf
        "PARALLEL SCALING REGRESSION: compiled PIAS speedup %.2fx at 4 shards < 1.6x\n" sp;
      exit 1
    end
  end
  else
    Printf.printf
      "\ncompiled PIAS at 4 shards: %.2fx vs 1 shard — scaling assertion skipped: only %d \
       core%s available, 4-domain speedup is not measurable here\n"
      sp cores (if cores = 1 then "" else "s")

(* ------------------------------------------------------------------ *)
(* Telemetry overhead: the fully instrumented data path (stage-timing
   histograms on, flight recorder attached at 1-in-64) vs the bare one
   (timing off, no recorder; the plain counters are part of the data
   path and stay on in both).  The budget is the DESIGN.md contract:
   instrumentation must cost < 3% of compiled-PIAS throughput.  1 shard
   runs inline (serial replay — a clean per-packet cost comparison
   anywhere); 4 shards run real domains and are measured only when the
   machine has the cores, like the parallel sweep. *)

let telemetry_overhead_budget_pct = 3.0

let telemetry_bench quick =
  section_header "Telemetry: instrumented vs bare data path (compiled PIAS)";
  let module Shard = Eden_enclave.Shard in
  let n_packets = if quick then 30_000 else 100_000 in
  let pool_mask = 4095 in
  let pool =
    Array.init (pool_mask + 1) (fun i ->
        Packet.make ~id:(Int64.of_int i)
          ~flow:
            (Addr.five_tuple
               ~src:(Addr.endpoint 1 (1000 + (i mod 64)))
               ~dst:(Addr.endpoint 2 80) ~proto:Addr.Tcp)
          ~kind:Packet.Data ~payload:1000 ())
  in
  (* Bare and instrumented trials interleave on ONE shard instance
     (set_timing / attach_traces are toggled between trials), so the two
     best-of-5 times see the same memory layout, the same cache warmth
     and the same share of machine noise — comparing two separately
     created instances on a busy box swamps a 3% budget with variance. *)
  let measure_pair ~shards =
    let e = pias_process_enclave `Compiled in
    match Shard.create ~shards ~parallel:(shards > 1) e with
    | Error msg -> invalid_arg msg
    | Ok s ->
      let now = ref 0 in
      let feed n =
        for _ = 1 to n do
          incr now;
          Shard.feed s ~now:(Time.us !now) pool.(!now land pool_mask)
        done;
        Shard.drain s
      in
      let time_one instrumented =
        Shard.set_timing s instrumented;
        if instrumented then Shard.attach_traces s ~every:64 ()
        else Shard.detach_traces s;
        feed 2_000;
        let t0 = Unix.gettimeofday () in
        feed n_packets;
        Unix.gettimeofday () -. t0
      in
      let best_bare = ref infinity and best_inst = ref infinity in
      for _ = 1 to 5 do
        let b = time_one false in
        if b < !best_bare then best_bare := b;
        let i = time_one true in
        if i < !best_inst then best_inst := i
      done;
      Shard.stop s;
      let n = float_of_int n_packets in
      (n /. !best_bare, n /. !best_inst)
  in
  let cores = Domain.recommended_domain_count () in
  let configs = if cores >= 4 then [ 1; 4 ] else [ 1 ] in
  let overhead_pct (bare, inst) = (bare -. inst) /. bare *. 100.0 in
  let suspects =
    List.filter_map
      (fun shards ->
        let ((bare, inst) as pair) = measure_pair ~shards in
        let overhead = overhead_pct pair in
        add_json ~section:"telemetry"
          (Printf.sprintf "telemetry/pias/compiled/shards=%d/bare" shards)
          (1e9 /. bare);
        add_json ~section:"telemetry"
          (Printf.sprintf "telemetry/pias/compiled/shards=%d/instrumented" shards)
          (1e9 /. inst);
        Printf.printf
          "  %d shard%s: bare %.2f Mpps, instrumented %.2f Mpps, overhead %+.2f%% (budget %.0f%%)\n"
          shards
          (if shards = 1 then " " else "s")
          (bare /. 1e6) (inst /. 1e6) overhead telemetry_overhead_budget_pct;
        if overhead > telemetry_overhead_budget_pct then Some shards else None)
      configs
  in
  if cores < 4 then
    Printf.printf "  (4-shard run skipped: only %d core%s available)\n" cores
      (if cores = 1 then "" else "s");
  (* A busy machine can fake an overshoot; only fail when it reproduces. *)
  List.iter
    (fun shards ->
      let overhead = overhead_pct (measure_pair ~shards) in
      Printf.printf "  %d shard(s) re-measured: overhead %+.2f%%\n" shards overhead;
      if overhead > telemetry_overhead_budget_pct then begin
        Printf.printf
          "TELEMETRY OVERHEAD REGRESSION: instrumentation costs %.2f%% of compiled PIAS \
           throughput at %d shard(s) (budget %.0f%%), reproduced on re-measurement\n"
          overhead shards telemetry_overhead_budget_pct;
        exit 1
      end)
    suspects

(* ------------------------------------------------------------------ *)
(* Driver *)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec split sections json = function
    | [] -> (List.rev sections, json)
    | "--json" :: file :: rest -> split sections (Some file) rest
    | "--json" :: [] -> invalid_arg "--json requires a file argument"
    | a :: rest -> split (a :: sections) json rest
  in
  let args, json_file = split [] None args in
  let quick = List.mem "quick" args in
  bench_quick := quick;
  let sections = List.filter (fun a -> a <> "quick") args in
  let want s = sections = [] || List.mem s sections in
  let t0 = Unix.gettimeofday () in
  if want "table1" then table1 ();
  if want "table2" then table2 ();
  if want "listings" then begin
    section_header "Program listings (paper Figs. 2, 3, 4/7)";
    Listings.print ()
  end;
  if want "footprint" then begin
    section_header "Interpreter footprint (paper 5.4)";
    Footprint.print (Footprint.run ())
  end;
  if want "micro" then micro ();
  if want "analysis" then analysis ();
  if want "parallel" then parallel_bench quick;
  if want "telemetry" then telemetry_bench quick;
  if want "fig9" then begin
    section_header "Figure 9 (case study 1: flow scheduling)";
    let params =
      if quick then
        { Fig9.default_params with runs = 2; duration = Time.ms 120; link_rate_bps = 10e9 }
      else { Fig9.default_params with link_rate_bps = 10e9 }
    in
    Fig9.print (Fig9.run_all ~params ())
  end;
  if want "fig10" then begin
    section_header "Figure 10 (case study 2: WCMP load balancing)";
    let params =
      if quick then { Fig10.default_params with runs = 2; duration = Time.ms 100 }
      else Fig10.default_params
    in
    Fig10.print (Fig10.run_all ~params ())
  end;
  if want "fig11" then begin
    section_header "Figure 11 (case study 3: Pulsar rate control)";
    let params =
      if quick then { Fig11.default_params with duration = Time.ms 250 }
      else Fig11.default_params
    in
    Fig11.print (Fig11.run_all ~params ())
  end;
  if want "fig12" then begin
    section_header "Figure 12 (CPU overheads)";
    let params =
      if quick then { Fig12.default_params with duration = Time.ms 80 }
      else Fig12.default_params
    in
    Fig12.print (Fig12.run ~params ())
  end;
  if want "resilience" then resilience ();
  if want "ablations" then ablations quick;
  (match json_file with Some f -> write_json f | None -> ());
  Printf.printf "\nTotal wall time: %.1fs\n" (Unix.gettimeofday () -. t0)
