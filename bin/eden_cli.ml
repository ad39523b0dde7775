(* The Eden command-line interface.

   A front door to the library: inspect the function catalog and stages,
   compile and disassemble action functions, and run the paper's
   experiments with custom parameters. *)

open Cmdliner
module Time = Eden_base.Time
open Eden_experiments

(* ------------------------------------------------------------------ *)
(* Common options *)

let duration_ms =
  let doc = "Simulated duration per run, in milliseconds." in
  Arg.(value & opt int 0 & info [ "d"; "duration-ms" ] ~doc ~docv:"MS")

let runs =
  let doc = "Number of independent runs (seeds)." in
  Arg.(value & opt int 0 & info [ "r"; "runs" ] ~doc ~docv:"N")

let override_duration ms default = if ms > 0 then Time.ms ms else default
let override_runs n default = if n > 0 then n else default

(* ------------------------------------------------------------------ *)
(* catalog / stages / listings / footprint *)

let catalog_cmd =
  let run () =
    List.iter
      (fun row -> print_endline (String.concat " | " row))
      (Eden_functions.Catalog.to_table ())
  in
  Cmd.v (Cmd.info "catalog" ~doc:"Print the network-function catalog (paper Table 1)")
    Term.(const run $ const ())

let stages_cmd =
  let run () =
    List.iter
      (fun st ->
        Format.printf "%a@." Eden_stage.Stage.pp st)
      [
        Eden_stage.Builtin.memcached ();
        Eden_stage.Builtin.http ();
        Eden_stage.Builtin.storage ();
        Eden_stage.Builtin.flow ();
      ]
  in
  Cmd.v
    (Cmd.info "stages" ~doc:"Print the built-in stages' classification abilities (Table 2)")
    Term.(const run $ const ())

let listings_cmd =
  let run () = Listings.print () in
  Cmd.v
    (Cmd.info "listings"
       ~doc:"Print the paper's action functions (Figs. 2/3/7) and their bytecode")
    Term.(const run $ const ())

let footprint_cmd =
  let run () = Footprint.print (Footprint.run ()) in
  Cmd.v
    (Cmd.info "footprint" ~doc:"Interpreter footprint of the paper functions (paper 5.4)")
    Term.(const run $ const ())

(* ------------------------------------------------------------------ *)
(* compile: show the pipeline for one named function *)

let functions =
  [
    ("wcmp", (Eden_functions.Wcmp.action, Eden_functions.Wcmp.schema));
    ("message-wcmp", (Eden_functions.Wcmp.message_action, Eden_functions.Wcmp.schema));
    ("pias", (Eden_functions.Pias.action, Eden_functions.Pias.schema));
    ("sff", (Eden_functions.Sff.action, Eden_functions.Sff.schema));
    ("pulsar", (Eden_functions.Pulsar.action, Eden_functions.Pulsar.schema));
    ( "port-knocking",
      (Eden_functions.Port_knocking.action, Eden_functions.Port_knocking.schema) );
    ( "replica-select",
      (Eden_functions.Replica_select.action, Eden_functions.Replica_select.schema) );
  ]

let compile_cmd =
  let fn_arg =
    let doc =
      Printf.sprintf "Function to compile: %s."
        (String.concat ", " (List.map fst functions))
    in
    Arg.(required & pos 0 (some (enum functions)) None & info [] ~doc ~docv:"FUNCTION")
  in
  let run (action, schema) =
    Printf.printf "-- source --\n%s\n\n" (Eden_lang.Pretty.action_to_string action);
    match Eden_lang.Compile.compile schema action with
    | Ok program ->
      Format.printf "-- bytecode --@.%a@." Eden_bytecode.Program.pp program;
      (match Eden_bytecode.Verifier.analyse program with
      | Ok an ->
        Printf.printf "verified; max operand stack %d values\n"
          an.Eden_bytecode.Verifier.an_max_stack;
        List.iter
          (fun pc -> Printf.printf "warning: unreachable instruction at pc %d\n" pc)
          an.Eden_bytecode.Verifier.an_unreachable
      | Error e ->
        Printf.printf "verifier: %s\n" (Eden_bytecode.Verifier.error_to_string e));
      `Ok ()
    | Error e -> `Error (false, Eden_lang.Compile.error_to_string e)
  in
  Cmd.v
    (Cmd.info "compile" ~doc:"Compile an action function and print its bytecode")
    Term.(ret (const run $ fn_arg))

let parse_cmd =
  let file_arg =
    Arg.(required & pos 0 (some file) None
         & info [] ~doc:"Action-function source file (F#-style syntax)." ~docv:"FILE")
  in
  let run_packets =
    Arg.(value & opt int 0
         & info [ "run" ]
             ~doc:"Also install the function on a fresh enclave and push $(docv) \
                   synthetic 1000-byte data packets through it, printing the \
                   resulting priorities and state."
             ~docv:"N")
  in
  let run file n_packets =
    let ic = open_in file in
    let n = in_channel_length ic in
    let src = really_input_string ic n in
    close_in ic;
    match Eden_lang.Parser.parse_action ~name:(Filename.remove_extension (Filename.basename file)) src with
    | Error e -> `Error (false, Eden_lang.Parser.error_to_string e)
    | Ok action -> (
      Printf.printf "-- parsed --\n%s\n\n" (Eden_lang.Pretty.action_to_string action);
      let schema = Eden_lang.Schema.infer action in
      match Eden_lang.Compile.compile schema action with
      | Error e -> `Error (false, Eden_lang.Compile.error_to_string e)
      | Ok program -> (
        Format.printf "-- bytecode --@.%a@." Eden_bytecode.Program.pp program;
        Printf.printf "wire format: %d bytes\n"
          (String.length (Eden_bytecode.Codec.encode program));
        if n_packets <= 0 then `Ok ()
        else begin
          let module Enclave = Eden_enclave.Enclave in
          let module Packet = Eden_base.Packet in
          let module Addr = Eden_base.Addr in
          let e = Enclave.create ~host:1 () in
          match
            Enclave.install_action e
              { Enclave.i_name = program.Eden_bytecode.Program.name;
                i_impl = Enclave.Interpreted program; i_msg_sources = [] }
          with
          | Error msg -> `Error (false, msg)
          | Ok () ->
            ignore
              (Enclave.add_table_rule e ~pattern:Eden_base.Class_name.Pattern.any
                 ~action:program.Eden_bytecode.Program.name ());
            let flow =
              Addr.five_tuple ~src:(Addr.endpoint 1 1000) ~dst:(Addr.endpoint 2 80)
                ~proto:Addr.Tcp
            in
            Printf.printf "\n-- run --\n";
            for i = 1 to n_packets do
              let pkt =
                Packet.make ~id:(Int64.of_int i) ~flow ~kind:Packet.Data ~payload:1000 ()
              in
              let verdict =
                match Enclave.process e ~now:(Time.us i) pkt with
                | Enclave.Forward _ -> "forward"
                | Enclave.Dropped _ -> "DROP"
              in
              Printf.printf "packet %3d: %s priority=%d%s\n" i verdict
                pkt.Packet.priority
                (match pkt.Packet.route_label with
                | Some l -> Printf.sprintf " label=%d" l
                | None -> "")
            done;
            let c = Enclave.counters e in
            Printf.printf
              "counters: %d packets, %d invocations, %d faults, %d interpreter steps\n"
              c.Enclave.packets c.Enclave.invocations c.Enclave.faults
              c.Enclave.interp_steps;
            `Ok ()
        end))
  in
  Cmd.v
    (Cmd.info "parse"
       ~doc:"Parse an action function from a source file, compile, disassemble and \
             optionally execute it")
    Term.(ret (const run $ file_arg $ run_packets))

(* ------------------------------------------------------------------ *)
(* analyze: the install-time static analysis pipeline *)

let analyze_cmd =
  let target_arg =
    let doc =
      Printf.sprintf
        "Built-in function (%s) or a source file (F#-style syntax)."
        (String.concat ", " (List.map fst functions))
    in
    Arg.(required & pos 0 (some string) None & info [] ~doc ~docv:"FUNCTION|FILE")
  in
  let resolve target =
    match List.assoc_opt target functions with
    | Some (action, schema) -> Ok (action, schema)
    | None ->
      if not (Sys.file_exists target) then
        Error
          (Printf.sprintf "%s: not a built-in function and no such file" target)
      else begin
        let ic = open_in target in
        let n = in_channel_length ic in
        let src = really_input_string ic n in
        close_in ic;
        match
          Eden_lang.Parser.parse_action
            ~name:(Filename.remove_extension (Filename.basename target))
            src
        with
        | Error e -> Error (Eden_lang.Parser.error_to_string e)
        | Ok action -> Ok (action, Eden_lang.Schema.infer action)
      end
  in
  let run target =
    match resolve target with
    | Error msg -> `Error (false, msg)
    | Ok (action, schema) -> (
      match Eden_analysis.Analyze.run schema action with
      | Error e -> `Error (false, Eden_analysis.Analyze.error_to_string e)
      | Ok report ->
        Format.printf "%a@." Eden_analysis.Report.pp report;
        `Ok ())
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Run the install-time static analysis on an action function: effect \
          footprint and concurrency class, AST optimization, a report of the \
          array accesses proved in bounds (every access is still checked at \
          run time) and worst-case cost versus each placement's admission \
          budget")
    Term.(ret (const run $ target_arg))

(* ------------------------------------------------------------------ *)
(* Experiments *)

let fig9_cmd =
  let load =
    Arg.(value & opt float 0.7 & info [ "load" ] ~doc:"Offered load (0,1)." ~docv:"L")
  in
  let run runs_n ms load =
    let params =
      {
        Fig9.default_params with
        runs = override_runs runs_n Fig9.default_params.Fig9.runs;
        duration = override_duration ms Fig9.default_params.Fig9.duration;
        load;
        link_rate_bps = 10e9;
      }
    in
    Fig9.print (Fig9.run_all ~params ())
  in
  Cmd.v (Cmd.info "fig9" ~doc:"Case study 1: flow scheduling FCTs (paper Fig. 9)")
    Term.(const run $ runs $ duration_ms $ load)

let fig10_cmd =
  let run runs_n ms =
    let params =
      {
        Fig10.default_params with
        runs = override_runs runs_n Fig10.default_params.Fig10.runs;
        duration = override_duration ms Fig10.default_params.Fig10.duration;
      }
    in
    Fig10.print (Fig10.run_all ~params ())
  in
  Cmd.v (Cmd.info "fig10" ~doc:"Case study 2: ECMP vs WCMP goodput (paper Fig. 10)")
    Term.(const run $ runs $ duration_ms)

let fig11_cmd =
  let run ms =
    let params =
      { Fig11.default_params with duration = override_duration ms Fig11.default_params.Fig11.duration }
    in
    Fig11.print (Fig11.run_all ~params ())
  in
  Cmd.v (Cmd.info "fig11" ~doc:"Case study 3: Pulsar rate control (paper Fig. 11)")
    Term.(const run $ duration_ms)

let fig12_cmd =
  let run ms =
    let params =
      { Fig12.default_params with duration = override_duration ms Fig12.default_params.Fig12.duration }
    in
    Fig12.print (Fig12.run ~params ())
  in
  Cmd.v (Cmd.info "fig12" ~doc:"CPU overheads of the Eden data path (paper Fig. 12)")
    Term.(const run $ duration_ms)

let chaos_cmd =
  let seed =
    Arg.(
      value & opt int64 42L
      & info [ "seed" ] ~doc:"Fault-schedule seed; the same seed replays the same run."
          ~docv:"SEED")
  in
  let list =
    Arg.(value & flag & info [ "list" ] ~doc:"List the scenario names and exit.")
  in
  let scenario =
    Arg.(
      value & pos 0 (some string) None
      & info [] ~docv:"SCENARIO" ~doc:"Run only this scenario (default: all).")
  in
  let run list seed scenario =
    if list then begin
      List.iter print_endline Chaos.scenario_names;
      `Ok ()
    end
    else
      let reports =
        match scenario with
        | None -> Ok (Chaos.run_all ~seed ())
        | Some name -> Result.map (fun r -> [ r ]) (Chaos.run ~seed name)
      in
      match reports with
      | Error msg -> `Error (false, msg)
      | Ok reports ->
        Chaos.print reports;
        if Chaos.all_passed reports then `Ok () else exit 1
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Run the scripted fault scenarios (partition, crash, duplicate delivery, fault \
          storm) and check the convergence invariants")
    Term.(ret (const run $ list $ seed $ scenario))

(* ------------------------------------------------------------------ *)
(* stats: run a synthetic workload and scrape the telemetry registry *)

let stats_cmd =
  let module Tel = Eden_telemetry in
  let module Enclave = Eden_enclave.Enclave in
  let module Shard = Eden_enclave.Shard in
  let module Packet = Eden_base.Packet in
  let module Addr = Eden_base.Addr in
  let packets =
    Arg.(value & opt int 10_000
         & info [ "p"; "packets" ] ~doc:"Synthetic data packets to push." ~docv:"N")
  in
  let flows =
    Arg.(value & opt int 32
         & info [ "flows" ] ~doc:"Distinct five-tuples the packets cycle over." ~docv:"F")
  in
  let shards =
    Arg.(value & opt int 0
         & info [ "shards" ]
             ~doc:"Run the sharded data path with $(docv) worker domains (0: the plain \
                   single-enclave path)."
             ~docv:"K")
  in
  let format =
    let formats = [ ("human", `Human); ("prom", `Prom); ("json", `Json) ] in
    Arg.(value & opt (enum formats) `Human
         & info [ "format" ] ~doc:"Output format: human, prom or json." ~docv:"FMT")
  in
  let json_flag =
    Arg.(value & flag & info [ "json" ] ~doc:"Shorthand for --format=json.")
  in
  let trace_every =
    Arg.(value & opt int 0
         & info [ "trace" ]
             ~doc:"Attach a flight recorder sampling 1 in $(docv) packets and dump it \
                   after the metrics (0: off)."
             ~docv:"EVERY")
  in
  let seed =
    Arg.(value & opt int64 7L & info [ "seed" ] ~doc:"Workload seed." ~docv:"SEED")
  in
  let mk_packet ~flows ~seq =
    let flow =
      Addr.five_tuple
        ~src:(Addr.endpoint 1 (1000 + (seq mod flows)))
        ~dst:(Addr.endpoint 2 80) ~proto:Addr.Tcp
    in
    Packet.make ~id:(Int64.of_int seq) ~flow ~kind:Packet.Data ~payload:1000 ()
  in
  let render fmt samples =
    match fmt with
    | `Human -> print_string (Tel.Export.to_table samples)
    | `Prom -> print_string (Tel.Export.to_prometheus samples)
    | `Json -> print_endline (Tel.Export.to_json_string samples)
  in
  let run packets flows shards fmt json_flag trace_every seed =
    let fmt = if json_flag then `Json else fmt in
    if packets < 1 then `Error (false, "--packets must be >= 1")
    else if flows < 1 then `Error (false, "--flows must be >= 1")
    else begin
      let e = Enclave.create ~host:1 ~seed () in
      match Eden_functions.Pias.install ~variant:`Compiled e ~thresholds:[| 10_240L; 1_048_576L |] with
      | Error msg -> `Error (false, msg)
      | Ok () ->
        if shards > 0 then begin
          match Shard.create ~shards e with
          | Error msg -> `Error (false, msg)
          | Ok sh ->
            if trace_every > 0 then Shard.attach_traces sh ~every:trace_every ();
            for i = 1 to packets do
              Shard.feed sh ~now:(Time.us i) (mk_packet ~flows ~seq:i)
            done;
            Shard.drain sh;
            let samples = Shard.scrape sh in
            render fmt samples;
            if trace_every > 0 then
              for w = 0 to Shard.shards sh - 1 do
                match Shard.worker_trace sh w with
                | Some tr ->
                  Format.printf "@.-- flight recorder (shard %d) --@.%a@." w Tel.Trace.pp_dump tr
                | None -> ()
              done;
            Shard.stop sh;
            `Ok ()
        end
        else begin
          Enclave.set_timing e true;
          if trace_every > 0 then
            Enclave.set_trace e
              (Some (Tel.Trace.create ~seed ~every:trace_every ~capacity:256 ()));
          for i = 1 to packets do
            ignore (Enclave.process e ~now:(Time.us i) (mk_packet ~flows ~seq:i))
          done;
          render fmt (Enclave.scrape e);
          (match Enclave.trace e with
          | Some tr -> Format.printf "@.-- flight recorder --@.%a@." Tel.Trace.pp_dump tr
          | None -> ());
          `Ok ()
        end
    end
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Push a synthetic PIAS workload through an enclave (optionally sharded), then \
          print the telemetry registry as a table, Prometheus exposition or JSON, with \
          an optional flight-recorder dump")
    Term.(ret (const run $ packets $ flows $ shards $ format $ json_flag $ trace_every $ seed))

(* ------------------------------------------------------------------ *)

let main_cmd =
  let doc = "Eden: end-host network functions (SIGCOMM 2015), reproduced in OCaml" in
  let info = Cmd.info "eden" ~version:"1.0.0" ~doc in
  Cmd.group info
    [
      catalog_cmd;
      stages_cmd;
      listings_cmd;
      footprint_cmd;
      compile_cmd;
      analyze_cmd;
      parse_cmd;
      fig9_cmd;
      fig10_cmd;
      fig11_cmd;
      fig12_cmd;
      chaos_cmd;
      stats_cmd;
    ]

let () = exit (Cmd.eval main_cmd)
