(* Sharded data path (Shard / Spsc / Rng.stream_seed).

   The heart of this suite is the differential harness: a sharded run
   (parallel or inline serial replay) must be observationally identical
   to the sequential enclave on the paper's example functions, the
   builtin native/bytecode functions, and hundreds of random
   verifier-accepted programs (Progen, shared with test_compiled).
   Around it: pinned RNG stream derivation, SPSC ring semantics
   (ordering, wraparound, blocking backpressure), the replica count the
   concurrency class sets (a serial action runs the enclave on one
   replica, matching the sequential enclave packet for packet), epoch
   visibility of [set_global] mid-stream, and the flow-stage rule-sets
   each replica mirrors. *)

module Enclave = Eden_enclave.Enclave
module Shard = Eden_enclave.Shard
module Spsc = Eden_enclave.Spsc
module Program = Eden_bytecode.Program
module Op = Eden_bytecode.Opcode
module Verifier = Eden_bytecode.Verifier
module Addr = Eden_base.Addr
module Packet = Eden_base.Packet
module Metadata = Eden_base.Metadata
module Class_name = Eden_base.Class_name
module Time = Eden_base.Time
module Rng = Eden_base.Rng
module Stage = Eden_stage.Stage
module Ruleset = Eden_stage.Ruleset
module Classifier = Eden_stage.Classifier
module Builtin = Eden_stage.Builtin

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let get_ok = function Ok v -> v | Error m -> Alcotest.failf "unexpected error: %s" m
let pat_all = Option.get (Class_name.Pattern.of_string "*.*.*")

(* Shard RNG streams differ from the sequential enclave's single stream,
   so only programs that never draw randomness compare against it. *)
let uses_rand (p : Program.t) =
  Array.exists (function Op.Rand -> true | _ -> false) p.Program.code

let concurrency (p : Program.t) = (Program.footprint p).Program.concurrency

(* ------------------------------------------------------------------ *)
(* Rng.stream_seed: pinned values — shard RNG streams are part of the
   reproducibility contract, so the exact derivation is frozen here. *)

let hex = Printf.sprintf "%Lx"

let test_stream_seed_pinned () =
  let seed = 0xEDE1L in
  let expect =
    [|
      0x90d809d82eb4f5e3L; 0xdea5ebc575501235L; 0x661f1aeb9ba1ec22L; 0xd4dba194b0bc17b6L;
    |]
  in
  Array.iteri
    (fun i e ->
      let got = Rng.stream_seed seed i in
      if got <> e then
        Alcotest.failf "stream_seed %d: expected %s got %s" i (hex e) (hex got))
    expect;
  (* First draws of stream 0 are pinned too: a change in [create] or the
     SplitMix constants must not slip past this test. *)
  let r = Rng.create (Rng.stream_seed seed 0) in
  let d0 = Rng.int64 r in
  let d1 = Rng.int64 r in
  if d0 <> 0x26651bb4f826e758L || d1 <> 0x7d1a0ce55568d09bL then
    Alcotest.failf "stream 0 draws: got %s %s" (hex d0) (hex d1)

let test_stream_seed_props () =
  (* Distinct indices give distinct seeds, and re-derivation is pure. *)
  let seen = Hashtbl.create 128 in
  for i = 0 to 63 do
    let s = Rng.stream_seed 42L i in
    if Hashtbl.mem seen s then Alcotest.failf "stream_seed collision at %d" i;
    Hashtbl.replace seen s ()
  done;
  check_bool "deterministic" true (Rng.stream_seed 42L 7 = Rng.stream_seed 42L 7);
  check_bool "negative index rejected" true
    (match Rng.stream_seed 42L (-1) with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* SPSC ring *)

let test_spsc_basic () =
  let q = Spsc.create ~dummy:(-1) 5 in
  check_int "capacity rounds up to a power of two" 8 (Spsc.capacity q);
  let buf = Array.make 8 (-1) in
  check_int "empty pop" 0 (Spsc.pop_batch q buf);
  (* Fill, overflow refused, drain in order — several times so the
     monotonic counters wrap the slot array repeatedly. *)
  let next = ref 0 in
  for _round = 0 to 5 do
    for _ = 1 to 8 do
      check_bool "push accepted" true (Spsc.try_push q !next);
      incr next
    done;
    check_bool "push on full refused" false (Spsc.try_push q 999_999);
    check_int "length" 8 (Spsc.length q);
    let small = Array.make 3 (-1) in
    let n = Spsc.pop_batch q small in
    check_int "batch limited by buffer" 3 n;
    let n2 = Spsc.pop_batch q buf in
    check_int "drained the rest" 5 n2;
    let got = Array.to_list (Array.sub small 0 3) @ Array.to_list (Array.sub buf 0 5) in
    let base = !next - 8 in
    List.iteri (fun i v -> check_int "FIFO order" (base + i) v) got
  done;
  check_int "no backpressure yet" 0 (Spsc.backpressure_waits q)

let test_spsc_concurrent () =
  (* Two domains, tiny ring, a consumer that refuses to drain until the
     ring is full and then sleeps: the producer must take the blocking
     path (spin budget << 50 ms), so backpressure_waits is guaranteed
     positive, and every item still arrives in order. *)
  let q = Spsc.create ~dummy:(-1) 8 in
  let total = 20_000 in
  let producer = Domain.spawn (fun () -> for i = 0 to total - 1 do Spsc.push q i done) in
  while Spsc.length q < Spsc.capacity q do
    Domain.cpu_relax ()
  done;
  Unix.sleepf 0.05;
  let buf = Array.make 64 (-1) in
  let received = ref 0 in
  while !received < total do
    let n = Spsc.pop_batch_wait q buf in
    for i = 0 to n - 1 do
      check_int "stream order" (!received + i) buf.(i)
    done;
    received := !received + n
  done;
  Domain.join producer;
  check_int "everything arrived" total !received;
  check_bool "producer parked at least once" true (Spsc.backpressure_waits q > 0)

(* ------------------------------------------------------------------ *)
(* Shard.classification and the replica count *)

let scalar name entity access local =
  { Program.s_name = name; s_entity = entity; s_access = access; s_local = local }

let mk_prog ?(arrays = [||]) ~slots code =
  Program.make ~name:"t" ~code ~scalar_slots:slots ~array_slots:arrays
    ~n_locals:(Array.length slots + 2) ()

(* Size (Packet RO, local 0) / Total (Global RW, local 1): a global
   accumulator [Total := Total + Size]. *)
let delta_prog () =
  mk_prog
    ~slots:
      [|
        scalar "Size" Program.Packet Program.Read_only 0;
        scalar "Total" Program.Global Program.Read_write 1;
      |]
    [| Op.Load 1; Op.Load 0; Op.Add; Op.Store 1; Op.Halt |]

let const_store_prog () =
  mk_prog
    ~slots:[| scalar "G" Program.Global Program.Read_write 0 |]
    [| Op.Push 7L; Op.Store 0; Op.Halt |]

let array_write_prog () =
  mk_prog ~slots:[||]
    ~arrays:
      [|
        {
          Program.a_name = "B";
          a_entity = Program.Global;
          a_access = Program.Read_write;
          a_min_len = 1;
        };
      |]
    [| Op.Push 0L; Op.Push 5L; Op.Gastore 0; Op.Halt |]

(* [Shard.classification] is each action's concurrency class, and the
   class sets the replica count: 4 requested, 4 built unless some action
   is serial, then 1. *)
let test_shardclass () =
  let check name want ps =
    let e = Enclave.create ~host:1 () in
    List.iter
      (fun (p : Program.t) ->
        get_ok
          (Enclave.install_action e
             {
               Enclave.i_name = p.Program.name;
               i_impl = Enclave.Interpreted p;
               i_msg_sources = [];
             }))
      ps;
    let s = get_ok (Shard.create ~shards:4 ~parallel:false e) in
    let got = List.map snd (Shard.classification s) in
    if got <> want then
      Alcotest.failf "%s: expected [%s] got [%s]" name
        (String.concat "; " (List.map Program.concurrency_to_string want))
        (String.concat "; " (List.map Program.concurrency_to_string got));
    check_int (name ^ ": replicas") (if List.mem `Serial want then 1 else 4) (Shard.shards s);
    Shard.stop s
  in
  (* The paper's functions carry no global writes: the requested
     replicas. *)
  check "pias" [ `Per_message ] [ Eden_functions.Pias.program () ];
  check "pulsar" [ `Parallel ] [ Eden_functions.Pulsar.program () ];
  check "wcmp" [ `Parallel ] [ Eden_functions.Wcmp.program () ];
  (* Any global write is serial: accumulator, constant or array store. *)
  check "accumulator" [ `Serial ] [ delta_prog () ];
  check "constant store" [ `Serial ] [ const_store_prog () ];
  check "array write" [ `Serial ] [ array_write_prog () ];
  (* One serial action keeps the whole enclave on one replica. *)
  check "pias next to a constant store" [ `Per_message; `Serial ]
    [ Eden_functions.Pias.program (); const_store_prog () ]

(* ------------------------------------------------------------------ *)
(* Differential harness *)

let mk_flow i =
  Addr.five_tuple
    ~src:(Addr.endpoint 1 (1000 + (i mod 8)))
    ~dst:(Addr.endpoint 2 80) ~proto:Addr.Tcp

(* The mixed stream of test_compiled: every third packet metadata-less
   (classified by the enclave's own flow stage), the rest carrying
   storage-stage classes, msg ids, tenant and op size. *)
let mk_metadata i =
  if i mod 3 = 0 then Metadata.empty
  else begin
    let op = if i mod 2 = 0 then "READ" else "WRITE" in
    let md = Metadata.with_msg_id (Int64.of_int (100 + (i mod 4))) Metadata.empty in
    let md =
      Metadata.add_class (Class_name.v ~stage:"storage" ~ruleset:"ops" ~name:op) md
    in
    let md = Metadata.add "operation" (Metadata.str op) md in
    let md = Metadata.add "tenant" (Metadata.int (i mod 3)) md in
    Metadata.add "msg_size" (Metadata.int (512 * (1 + (i mod 7)))) md
  end

let mk_packet ?metadata i =
  let metadata = match metadata with Some m -> m | None -> mk_metadata i in
  Packet.make ~id:(Int64.of_int i) ~flow:(mk_flow i) ~kind:Packet.Data ~seq:i
    ~payload:(200 + (113 * i mod 1200))
    ~metadata ()

let decision_str = function
  | Enclave.Forward { queue; charge } ->
    Printf.sprintf "forward queue=%s charge=%d"
      (match queue with Some q -> string_of_int q | None -> "-")
      charge
  | Enclave.Dropped why -> "dropped: " ^ why

(* A stream is regenerated for every run: enclaves mutate packets in
   place, so each run needs private but identical copies.  [gen i]
   returns the i-th event. *)
type stream = { len : int; gen : int -> Shard.event }

let materialize stream =
  let pkts = Array.make stream.len None in
  let events =
    Array.init stream.len (fun i ->
        let ev = stream.gen i in
        (match ev with Shard.Ev_packet (_, p) -> pkts.(i) <- Some p | _ -> ());
        ev)
  in
  (events, pkts)

let packet_stream ?metadata n =
  { len = n; gen = (fun i -> Shard.Ev_packet (Time.us (10 * (i + 1)), mk_packet ?metadata i)) }

(* Sequential reference: the events applied in order to a plain enclave. *)
let run_seq enclave stream =
  let events, pkts = materialize stream in
  let res =
    Array.map
      (function
        | Shard.Ev_packet (now, pkt) -> Some (Enclave.process enclave ~now pkt)
        | Shard.Ev_set_global { action; name; value } ->
          get_ok (Enclave.set_global enclave ~action name value);
          None
        | Shard.Ev_set_global_array { action; name; values } ->
          get_ok (Enclave.set_global_array enclave ~action name values);
          None)
      events
  in
  (res, pkts)

let run_shard ?ring_capacity ?batch ~shards ~parallel source stream k =
  let s = get_ok (Shard.create ?ring_capacity ?batch ~shards ~parallel source) in
  let events, pkts = materialize stream in
  let res = Shard.process_stream s events in
  check_int "no worker errors" 0 (Shard.worker_errors s);
  let out = k s (res, pkts) in
  Shard.stop s;
  out

let check_same_run name (ra, pa) (rb, pb) =
  Array.iteri
    (fun i da ->
      let db = rb.(i) in
      (match (da, db) with
      | None, None -> ()
      | Some da, Some db when da = db -> ()
      | _ ->
        let str = function None -> "<ctl>" | Some d -> decision_str d in
        Alcotest.failf "%s ev %d: decisions differ: %s vs %s" name i (str da) (str db));
      match (pa.(i), pb.(i)) with
      | None, None -> ()
      | Some (a : Packet.t), Some (b : Packet.t) ->
        if a.Packet.priority <> b.Packet.priority then
          Alcotest.failf "%s pkt %d: priority %d vs %d" name i a.Packet.priority
            b.Packet.priority;
        if a.Packet.route_label <> b.Packet.route_label then
          Alcotest.failf "%s pkt %d: route labels differ" name i
      | _ -> Alcotest.failf "%s ev %d: packet presence differs" name i)
    ra

(* Counters comparable across sharded and sequential runs — cache
   hit/miss splits are excluded on purpose (per-shard caches warm
   independently), everything decision-relevant is included. *)
let check_same_counters name (a : Enclave.counters) (b : Enclave.counters) =
  check_int (name ^ " packets") a.Enclave.packets b.Enclave.packets;
  check_int (name ^ " dropped") a.Enclave.dropped b.Enclave.dropped;
  check_int (name ^ " invocations") a.Enclave.invocations b.Enclave.invocations;
  check_int (name ^ " native") a.Enclave.native_invocations b.Enclave.native_invocations;
  check_int (name ^ " compiled") a.Enclave.compiled_invocations
    b.Enclave.compiled_invocations;
  check_int (name ^ " faults") a.Enclave.faults b.Enclave.faults;
  check_int (name ^ " steps") a.Enclave.interp_steps b.Enclave.interp_steps

(* Deterministic actions: sharded (parallel, at several widths) must
   match the plain sequential enclave exactly. *)
let differential_vs_seq name source stream =
  let seq_res = run_seq source stream in
  let seq_counters = Enclave.counters source in
  List.iter
    (fun shards ->
      run_shard ~shards ~parallel:true source stream (fun s run ->
          check_same_run (Printf.sprintf "%s/%d" name shards) seq_res run;
          check_same_counters (Printf.sprintf "%s/%d" name shards) seq_counters
            (Shard.counters s)))
    [ 1; 2; 4 ]

(* Rand-using actions: per-shard RNG streams differ from the sequential
   enclave's by construction, so the reference is the inline serial
   replay of the same sharded configuration — plus a determinism check
   (two parallel runs agree). *)
let differential_vs_replay name source stream =
  List.iter
    (fun shards ->
      let replay =
        run_shard ~shards ~parallel:false source stream (fun s run ->
            (run, Shard.counters s))
      in
      let replay_run, replay_counters = replay in
      run_shard ~shards ~parallel:true source stream (fun s run ->
          check_same_run (Printf.sprintf "%s/%d par=replay" name shards) replay_run run;
          check_same_counters (Printf.sprintf "%s/%d" name shards) replay_counters
            (Shard.counters s));
      run_shard ~shards ~parallel:true source stream (fun _ run ->
          check_same_run (Printf.sprintf "%s/%d rerun" name shards) replay_run run))
    [ 1; 2; 4 ]

(* Enclaves with a serial action: the sharded run gets one replica
   whatever is requested, and matches the sequential enclave packet for
   packet, counters and the final [globals] and [arrays] of [action]
   included.  Every run starts from a fresh [mk ()]: the sequential run
   moves the global state a snapshot would copy.  Returns the sequential
   counters. *)
let differential_serial ?(globals = []) ?(arrays = []) name mk ~action stream =
  let seq = mk () in
  let seq_res = run_seq seq stream in
  let seq_counters = Enclave.counters seq in
  List.iter
    (fun shards ->
      let name = Printf.sprintf "%s/%d" name shards in
      run_shard ~shards ~parallel:true (mk ()) stream (fun s run ->
          check_int (name ^ " replicas") 1 (Shard.shards s);
          check_same_run name seq_res run;
          check_same_counters name seq_counters (Shard.counters s);
          List.iter
            (fun g ->
              if Shard.get_global s ~action g <> Enclave.get_global seq ~action g then
                Alcotest.failf "%s: global %s differs from seq" name g)
            globals;
          List.iter
            (fun a ->
              if Shard.get_global_array s ~action a <> Enclave.get_global_array seq ~action a
              then Alcotest.failf "%s: global array %s differs from seq" name a)
            arrays))
    [ 1; 2; 4 ];
  seq_counters

(* ------------------------------------------------------------------ *)
(* The .eden examples, compiled from source exactly as the CLI does. *)

let load_example file =
  (* cwd is _build/default/test under `dune runtest`, the project root
     under `dune exec`. *)
  let candidates =
    [ "../examples/actions"; "examples/actions"; "../../examples/actions" ]
  in
  let dir =
    match List.find_opt (fun d -> Sys.file_exists (Filename.concat d (file ^ ".eden"))) candidates with
    | Some d -> d
    | None -> Alcotest.failf "%s.eden not found from %s" file (Sys.getcwd ())
  in
  let path = Filename.concat dir (file ^ ".eden") in
  let ic = open_in path in
  let n = in_channel_length ic in
  let src = really_input_string ic n in
  close_in ic;
  match Eden_lang.Parser.parse_action ~name:file src with
  | Error e -> Alcotest.failf "%s: parse: %s" file (Eden_lang.Parser.error_to_string e)
  | Ok action -> (
    let schema = Eden_lang.Schema.infer action in
    match Eden_lang.Compile.compile schema action with
    | Error e -> Alcotest.failf "%s: compile: %s" file (Eden_lang.Compile.error_to_string e)
    | Ok program -> program)

let install_program e impl program globals arrays =
  get_ok
    (Enclave.install_action e
       { Enclave.i_name = program.Program.name; i_impl = impl program; i_msg_sources = [] });
  List.iter
    (fun (n, v) -> get_ok (Enclave.set_global e ~action:program.Program.name n v))
    globals;
  List.iter
    (fun (n, v) -> get_ok (Enclave.set_global_array e ~action:program.Program.name n v))
    arrays;
  ignore (get_ok (Enclave.add_table_rule e ~pattern:pat_all ~action:program.Program.name ()))

let example_sources name =
  match name with
  | "threshold_priority" -> ([], [ ("Cuts", [| 1_000L; 5_000L; 20_000L |]) ])
  | "flow_meter" -> ([ ("RatePerUs", 8L); ("BucketDepth", 30_000L) ], [])
  | "weighted_paths" -> ([], [ ("Routes", [| 1L; 60L; 2L; 30L; 3L; 10L |]) ])
  | _ -> assert false

let run_example name impl =
  let program = load_example name in
  check_bool (name ^ " not serial") true (concurrency program <> `Serial);
  let globals, arrays = example_sources name in
  let source = Enclave.create ~host:1 () in
  install_program source impl program globals arrays;
  let stream = packet_stream ~metadata:Metadata.empty 400 in
  if uses_rand program then differential_vs_replay name source stream
  else differential_vs_seq name source stream

let test_examples_interpreted () =
  List.iter
    (fun n -> run_example n (fun p -> Enclave.Interpreted p))
    [ "threshold_priority"; "flow_meter"; "weighted_paths" ]

let test_examples_compiled () =
  List.iter
    (fun n -> run_example n (fun p -> Enclave.Compiled p))
    [ "threshold_priority"; "flow_meter"; "weighted_paths" ]

(* ------------------------------------------------------------------ *)
(* Builtin functions over the mixed stream (stage metadata + bare flows) *)

let test_builtin_functions () =
  let stream = packet_stream 300 in
  let with_source install k =
    let e = Enclave.create ~host:1 () in
    get_ok (install e);
    k e
  in
  List.iter
    (fun variant ->
      with_source
        (fun e -> Eden_functions.Pias.install ~variant e ~thresholds:[| 1500L; 6000L |])
        (fun e -> differential_vs_seq "pias" e stream);
      with_source
        (fun e -> Eden_functions.Pulsar.install ~variant e ~queue_map:[| 1; 2; 3 |])
        (fun e -> differential_vs_seq "pulsar" e stream))
    [ `Interpreted; `Compiled ];
  (* SFF reads flow_size metadata; feed it its own stream. *)
  let sff_stream =
    {
      len = 300;
      gen =
        (fun i ->
          let md = Eden_functions.Sff.metadata_for ~size:(512 * (1 + (i mod 9))) in
          Shard.Ev_packet (Time.us (10 * (i + 1)), mk_packet ~metadata:md i));
    }
  in
  List.iter
    (fun variant ->
      with_source
        (fun e -> Eden_functions.Sff.install ~variant e ~thresholds:[| 1024L; 4096L |])
        (fun e -> differential_vs_seq "sff" e sff_stream))
    [ `Interpreted; `Compiled ];
  (* WCMP's packet variant draws per-packet randomness: replay reference. *)
  let matrix = Eden_functions.Wcmp.ecmp_matrix ~labels:[ 1; 2; 3 ] in
  List.iter
    (fun variant ->
      with_source
        (fun e -> Eden_functions.Wcmp.install ~variant e ~matrix)
        (fun e -> differential_vs_replay "wcmp" e stream))
    [ `Packet; `Compiled ];
  (* Port knocking writes the global [State] array: serial, so one
     replica.  Three source hosts knock from many source ports, so their
     five-tuples would spread over every shard; a third of the packets go
     to the protected port. *)
  let knock_ports = [| 22; 7001; 7003; 22; 7001; 7002; 7003; 22; 80; 7002; 22; 7001 |] in
  let knock_stream =
    {
      len = 360;
      gen =
        (fun i ->
          let flow =
            Addr.five_tuple
              ~src:(Addr.endpoint (1 + (i mod 3)) (1000 + (i mod 97)))
              ~dst:(Addr.endpoint 2 knock_ports.(i / 3 mod Array.length knock_ports))
              ~proto:Addr.Tcp
          in
          Shard.Ev_packet
            ( Time.us (10 * (i + 1)),
              Packet.make ~id:(Int64.of_int i) ~flow ~kind:Packet.Data ~seq:i ~payload:200
                ~metadata:Metadata.empty () ));
    }
  in
  List.iter
    (fun variant ->
      let mk () =
        let e = Enclave.create ~host:1 () in
        get_ok
          (Eden_functions.Port_knocking.install ~variant e ~knocks:[ 7001; 7002; 7003 ]
             ~protected_port:22 ~max_hosts:8);
        e
      in
      let counters =
        differential_serial "port-knocking" mk ~action:"port_knocking" ~arrays:[ "State" ]
          knock_stream
      in
      check_bool "some protected packets dropped, some let through" true
        (counters.Enclave.dropped > 0 && counters.Enclave.dropped < knock_stream.len / 3))
    [ `Interpreted; `Compiled; `Native ]

(* Native PIAS has opaque effects, so it is serial: one replica, and the
   parallel run must match the sequential enclave packet for packet. *)
let test_native_serialized () =
  let e = Enclave.create ~host:1 () in
  get_ok (Eden_functions.Pias.install ~variant:`Native e ~thresholds:[| 1500L; 6000L |]);
  let stream = packet_stream 300 in
  let seq = run_seq e stream in
  let seq_counters = Enclave.counters e in
  check_bool "native engine exercised" true (seq_counters.Enclave.native_invocations > 0);
  run_shard ~shards:4 ~parallel:true e stream (fun s run ->
      check_bool "classified serial" true
        (List.assoc_opt "pias" (Shard.classification s) = Some `Serial);
      check_int "one replica" 1 (Shard.shards s);
      check_same_run "native-pias/4" seq run;
      check_same_counters "native-pias/4" seq_counters (Shard.counters s))

(* ------------------------------------------------------------------ *)
(* Random structured programs (Progen, shared with test_compiled) *)

let rename_progen_slots (p : Program.t) =
  (* Progen's packet slots are named for engine-level tests; map them to
     marshallable enclave packet fields (RO "Size", RW "Priority"). *)
  let slots = Array.map (fun s -> s) p.Program.scalar_slots in
  slots.(0) <- { (slots.(0)) with Program.s_name = "Size" };
  slots.(1) <- { (slots.(1)) with Program.s_name = "Priority" };
  { p with Program.scalar_slots = slots }

let fuzz_seed =
  match Sys.getenv_opt "EDEN_TEST_SEED" with Some s -> int_of_string s | None -> 0xEDE1

let test_random_programs () =
  let rand = Random.State.make [| fuzz_seed |] in
  let multi_replica = ref 0 in
  for case = 0 to 199 do
    let raw, _scalars, arrays = Progen.gen_structured rand in
    let p = Progen.narrow_unstored (rename_progen_slots raw) in
    (match Verifier.verify p with
    | Ok () -> ()
    | Error e ->
      Alcotest.failf "case %d: generator emitted unverifiable program: %s" case
        (Verifier.error_to_string e));
    let klass = concurrency p in
    if klass <> `Serial then incr multi_replica;
    let source = Enclave.create ~host:1 () in
    (* Step limits up to 10k would fail cost admission at the default
       budget; admission is not under test here. *)
    Enclave.set_budget_ns source 1e12;
    let impl = if case mod 2 = 0 then Enclave.Interpreted p else Enclave.Compiled p in
    install_program source (fun _ -> impl) p []
      [ ("A", arrays.(0)); ("B", arrays.(1)) ];
    (* Serial programs get a single-key stream; the others a multi-flow
       one. *)
    let stream =
      if klass = `Serial then
        {
          len = 24;
          gen =
            (fun i ->
              Shard.Ev_packet
                ( Time.us (10 * (i + 1)),
                  Packet.make ~id:(Int64.of_int i) ~flow:(mk_flow 0) ~kind:Packet.Data
                    ~seq:i
                    ~payload:(100 + (37 * i mod 1400))
                    ~metadata:Metadata.empty () ))
        }
      else packet_stream ~metadata:Metadata.empty 24
    in
    let name = Printf.sprintf "fuzz-%d(%s)" case (Program.concurrency_to_string klass) in
    let final_b s = Shard.get_global_array s ~action:"fuzz" "B" in
    (* Parallel vs serial replay at 2 shards, always — including the
       published global array. *)
    let replay_run, replay_b, replay_counters =
      run_shard ~shards:2 ~parallel:false source stream (fun s run ->
          (run, final_b s, Shard.counters s))
    in
    run_shard ~shards:2 ~parallel:true source stream (fun s run ->
        check_int (name ^ " replicas") (if klass = `Serial then 1 else 2) (Shard.shards s);
        check_same_run (name ^ " par=replay") replay_run run;
        check_same_counters name replay_counters (Shard.counters s);
        if final_b s <> replay_b then Alcotest.failf "%s: global array B differs" name);
    (* Deterministic programs additionally match the sequential enclave. *)
    if not (uses_rand p) then begin
      let seq_run = run_seq source stream in
      check_same_run (name ^ " replay=seq") replay_run seq_run;
      check_same_counters (name ^ " seq") replay_counters (Enclave.counters source);
      let seq_b = Enclave.get_global_array source ~action:"fuzz" "B" in
      if replay_b <> seq_b then Alcotest.failf "%s: global array B differs from seq" name
    end
  done;
  (* Programs that store nothing global must keep reaching the
     multi-replica path; a generator or classifier change that makes
     every case serial would otherwise pass unnoticed. *)
  if !multi_replica < 100 then
    Alcotest.failf "only %d of 200 random programs ran on 2 replicas" !multi_replica

(* ------------------------------------------------------------------ *)
(* A global accumulator is serial: one replica, the sequential total *)

let test_delta_merge () =
  let mk () =
    let e = Enclave.create ~host:1 () in
    install_program e (fun p -> Enclave.Interpreted p) (delta_prog ()) [ ("Total", 0L) ] [];
    e
  in
  let stream =
    {
      len = 501;
      gen =
        (fun i ->
          if i = 250 then
            (* Mid-stream overwrite: what accumulated before it is
               discarded. *)
            Shard.Ev_set_global { action = "t"; name = "Total"; value = 1_000_000L }
          else Shard.Ev_packet (Time.us (10 * (i + 1)), mk_packet ~metadata:Metadata.empty i))
    }
  in
  let seq = mk () in
  let _ = run_seq seq stream in
  let expect = Option.get (Enclave.get_global seq ~action:"t" "Total") in
  check_bool "sequential total moved past the overwrite" true (expect > 1_000_000L);
  List.iter
    (fun shards ->
      run_shard ~shards ~parallel:true (mk ()) stream (fun s _ ->
          check_bool
            (Printf.sprintf "classified serial (%d shards)" shards)
            true
            (List.assoc "t" (Shard.classification s) = `Serial);
          check_int "one replica" 1 (Shard.shards s);
          let total = Option.get (Shard.get_global s ~action:"t" "Total") in
          if total <> expect then
            Alcotest.failf "shards=%d: total %Ld, sequential %Ld" shards total expect;
          check_int "all packets" 500 (Shard.counters s).Enclave.packets))
    [ 1; 2; 4 ]

(* ------------------------------------------------------------------ *)
(* Epoch visibility: set_global lands between two packets of the stream
   and must be visible to exactly the packets after it, on every shard. *)

let epoch_prog () =
  mk_prog
    ~slots:
      [|
        scalar "Priority" Program.Packet Program.Read_write 0;
        scalar "Level" Program.Global Program.Read_only 1;
      |]
    [| Op.Load 1; Op.Store 0; Op.Halt |]

let test_epoch_visibility () =
  let p = epoch_prog () in
  let n = 120 and cut = 60 in
  let stream =
    {
      len = n + 1;
      gen =
        (fun i ->
          (* 5 stays inside the packet-priority clamp. *)
          if i = cut then Shard.Ev_set_global { action = "t"; name = "Level"; value = 5L }
          else Shard.Ev_packet (Time.us (10 * (i + 1)), mk_packet ~metadata:Metadata.empty i))
    }
  in
  List.iter
    (fun shards ->
      let source = Enclave.create ~host:1 () in
      install_program source (fun p -> Enclave.Interpreted p) p [ ("Level", 3L) ] [];
      run_shard ~shards ~parallel:true source stream (fun _ (res, pkts) ->
          Array.iteri
            (fun i pkt ->
              match pkt with
              | None -> check_bool "ctl event has no decision" true (res.(i) = None)
              | Some (pkt : Packet.t) ->
                let want = if i < cut then 3 else 5 in
                if pkt.Packet.priority <> want then
                  Alcotest.failf "shards=%d pkt %d: priority %d, want %d" shards i
                    pkt.Packet.priority want)
            pkts))
    [ 1; 2; 4; 8 ]

(* ------------------------------------------------------------------ *)
(* Flow-stage rule-sets: every replica classifies as the source does.
   A custom flow-stage class [enclave.sport.LOW] (source ports
   1000-1003) sends packets to one action, [enclave.flows.ALL] the rest
   to another; without the built-in ALL rule the rest match nothing. *)

let test_flow_stage_mirrored () =
  let mk ~keep_all () =
    let e = Enclave.create ~host:1 () in
    let stage = Enclave.flow_stage e in
    ignore
      (get_ok
         (Stage.Api.create_stage_rule stage ~ruleset:"sport"
            ~classifier:[ (Builtin.Field.src_port, Classifier.Range (1000L, 1003L)) ]
            ~class_name:"LOW" ~metadata_fields:[]));
    if not keep_all then
      List.iter
        (fun (r : Ruleset.rule) ->
          ignore
            (Stage.Api.remove_stage_rule stage ~ruleset:"flows" ~rule_id:r.Ruleset.rule_id))
        (Ruleset.rules (Option.get (Stage.find_ruleset stage "flows")));
    List.iter
      (fun (name, level, pattern) ->
        get_ok
          (Enclave.install_action e
             {
               Enclave.i_name = name;
               i_impl = Enclave.Interpreted { (epoch_prog ()) with Program.name };
               i_msg_sources = [];
             });
        get_ok (Enclave.set_global e ~action:name "Level" level);
        ignore
          (get_ok
             (Enclave.add_table_rule e
                ~pattern:(Option.get (Class_name.Pattern.of_string pattern))
                ~action:name ())))
      [ ("low", 5L, "enclave.sport.LOW"); ("all", 1L, "enclave.flows.ALL") ];
    e
  in
  let stream = packet_stream ~metadata:Metadata.empty 200 in
  List.iter
    (fun keep_all ->
      let name = if keep_all then "flow-stage" else "flow-stage without ALL" in
      let _, pkts = run_seq (mk ~keep_all ()) stream in
      let priority = Option.map (fun (p : Packet.t) -> p.Packet.priority) in
      let priorities = List.sort_uniq compare (List.filter_map priority (Array.to_list pkts)) in
      check_bool (name ^ ": the custom class decides some packets, not all") true
        (List.length priorities = 2 && List.mem 5 priorities);
      differential_vs_seq name (mk ~keep_all ()) stream)
    [ true; false ]

(* ------------------------------------------------------------------ *)
(* Ring overflow / backpressure at the Shard level: a tiny ring and a
   long stream force the feeder onto the blocking path; nothing may be
   lost or reordered per key. *)

let test_shard_backpressure () =
  let source = Enclave.create ~host:1 () in
  get_ok (Eden_functions.Pias.install ~variant:`Compiled source ~thresholds:[| 1500L; 6000L |]);
  let stream = packet_stream 4000 in
  let seq = run_seq source stream in
  run_shard ~ring_capacity:4 ~batch:2 ~shards:2 ~parallel:true source stream (fun s run ->
      check_same_run "backpressure" seq run;
      check_int "all packets" 4000 (Shard.counters s).Enclave.packets;
      check_bool "backpressure counted, never lost" true (Shard.backpressure_waits s >= 0))

(* ------------------------------------------------------------------ *)
(* Global-writing bytecode action: one replica, exact sequential run *)

let test_serialized_shared_store () =
  let mk () =
    let e = Enclave.create ~host:1 () in
    install_program e (fun p -> Enclave.Interpreted p) (const_store_prog ()) [ ("G", 0L) ] [];
    e
  in
  let stream = packet_stream ~metadata:Metadata.empty 200 in
  ignore (differential_serial "const-store" mk ~action:"t" ~globals:[ "G" ] stream);
  run_shard ~shards:4 ~parallel:true (mk ()) stream (fun s _ ->
      check_bool "classified serial" true (List.assoc "t" (Shard.classification s) = `Serial);
      check_bool "global converged" true (Shard.get_global s ~action:"t" "G" = Some 7L);
      check_int "every invocation ran" 200 (Shard.counters s).Enclave.invocations)

(* ------------------------------------------------------------------ *)
(* Flow-cache statistics and capacity *)

let test_flow_cache_stats () =
  check_int "default capacity" 4096 (Enclave.flow_cache_capacity (Enclave.create ~host:1 ()));
  check_bool "zero capacity rejected" true
    (match Enclave.create ~flow_cache_capacity:0 ~host:1 () with
    | exception Invalid_argument _ -> true
    | _ -> false);
  let e = Enclave.create ~flow_cache_capacity:2 ~host:1 () in
  let p = epoch_prog () in
  install_program e (fun p -> Enclave.Interpreted p) p [ ("Level", 1L) ] [];
  (* Three stage classes, two packets each, all on one flow, capacity 2.
     Each packet carries two classes: its stage class and the flow
     stage's [enclave.flows.ALL].  The class memo holds one entry per
     class and is cleared when a new class finds it full:
     - "a": both classes are new, one miss; the memo is full at two;
     - "b", resolved before ALL: the full memo is cleared (2
       evictions), then takes "b" and ALL again, one miss;
     - "c": likewise (2 more evictions), one miss;
     - the second packet of each finds both of its classes memoised,
       one hit.
     So 3 misses, 3 hits, 4 evictions.  (Metadata-less flows all share
     one flow-stage class, so distinct classes need explicit metadata
     classes.) *)
  let md name =
    Metadata.add_class (Class_name.v ~stage:"app" ~ruleset:"kind" ~name) Metadata.empty
  in
  List.iteri
    (fun i kind ->
      let pkt =
        Packet.make ~id:(Int64.of_int i) ~flow:(mk_flow 0) ~kind:Packet.Data
          ~payload:100 ~metadata:(md kind) ()
      in
      ignore (Enclave.process e ~now:(Time.us (i + 1)) pkt))
    [ "a"; "a"; "b"; "b"; "c"; "c" ];
  let c = Enclave.counters e in
  check_int "misses" 3 c.Enclave.cache_misses;
  check_int "hits" 3 c.Enclave.cache_hits;
  check_int "evictions" 4 c.Enclave.cache_evictions

(* ------------------------------------------------------------------ *)
(* Lifecycle *)

let test_stop () =
  let source = Enclave.create ~host:1 () in
  get_ok (Eden_functions.Pias.install source ~thresholds:[| 1500L |]);
  let s = get_ok (Shard.create ~shards:2 ~parallel:true source) in
  let _ = Shard.process_stream s (fst (materialize (packet_stream 10))) in
  Shard.stop s;
  Shard.stop s;
  check_bool "streams rejected after stop" true
    (match Shard.process_stream s [||] with
    | exception Invalid_argument _ -> true
    | _ -> false);
  check_bool "shards bounds" true (Result.is_error (Shard.create ~shards:0 source));
  check_bool "shards upper bound" true (Result.is_error (Shard.create ~shards:65 source))

(* ------------------------------------------------------------------ *)

let () =
  Printf.printf "random-program seed: %d (set EDEN_TEST_SEED to override)\n%!" fuzz_seed;
  Alcotest.run "parallel"
    [
      ( "rng-streams",
        [
          Alcotest.test_case "pinned derivation" `Quick test_stream_seed_pinned;
          Alcotest.test_case "distinct + pure" `Quick test_stream_seed_props;
        ] );
      ( "spsc",
        [
          Alcotest.test_case "order, wraparound, overflow" `Quick test_spsc_basic;
          Alcotest.test_case "two-domain backpressure" `Quick test_spsc_concurrent;
        ] );
      ("shardclass", [ Alcotest.test_case "classification" `Quick test_shardclass ]);
      ( "differential",
        [
          Alcotest.test_case "examples (interpreted)" `Quick test_examples_interpreted;
          Alcotest.test_case "examples (compiled)" `Quick test_examples_compiled;
          Alcotest.test_case "builtin functions" `Quick test_builtin_functions;
          Alcotest.test_case "native pias serialized" `Quick test_native_serialized;
          Alcotest.test_case "200 random programs" `Slow test_random_programs;
        ] );
      ( "state",
        [
          Alcotest.test_case "delta merge" `Quick test_delta_merge;
          Alcotest.test_case "epoch visibility" `Quick test_epoch_visibility;
          Alcotest.test_case "serialized shared store" `Quick test_serialized_shared_store;
          Alcotest.test_case "flow-cache stats" `Quick test_flow_cache_stats;
          Alcotest.test_case "flow-stage rule-sets mirrored" `Quick test_flow_stage_mirrored;
        ] );
      ( "runtime",
        [
          Alcotest.test_case "ring backpressure" `Quick test_shard_backpressure;
          Alcotest.test_case "stop" `Quick test_stop;
        ] );
    ]
