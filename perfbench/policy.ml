(* The system under test for the data-path workloads: one enclave, its
   controller and the application stages, programmed entirely through
   the controller (verify, analyse, compile, tables, rules).

   The policy spreads four catalogue functions over two tables:

     table 0   memcached.op.GET -> sff      storage.*.* -> pulsar
               *.*.*            -> jump     (sets GotoTable = _global.Next)
     table 1   memcached.*.*    -> wcmp     *.*.*       -> pias

   The [churn] variant adds high-cardinality rule-sets (32 key-prefix
   classes at the memcached stage, 32 x 8 port buckets at the enclave's
   flow stage, over 16k class vectors in all, four times what a 4096-entry
   match-action cache holds) and a schedule of controller pushes. *)

module Metadata = Eden_base.Metadata
module Pattern = Eden_base.Class_name.Pattern
module Stage = Eden_stage.Stage
module Classifier = Eden_stage.Classifier
module Builtin = Eden_stage.Builtin
module Enclave = Eden_enclave.Enclave
module Controller = Eden_controller.Controller
module F = Eden_functions

type engine = Compiled | Interpreted

type t = {
  ctl : Controller.t;
  enclave : Enclave.t;
  memcached : Stage.t;
  storage : Stage.t;
  mutable pushes_ns : int list;  (* wall time of every [*_everywhere] call *)
  mutable install_ns : int;  (* the whole policy push *)
}

let ok what = function
  | Ok x -> x
  | Error msg -> failwith (Printf.sprintf "perfbench: %s failed: %s" what msg)

let pattern s = match Pattern.of_string s with Some p -> p | None -> invalid_arg s

let jump_program =
  lazy
    (let src =
       "fun (packet : Packet, msg : Message, _global : Global) ->\n\
       \  packet.GotoTable <- _global.Next"
     in
     let ast =
       match Eden_lang.Parser.parse_action ~name:"jump" src with
       | Ok a -> a
       | Error e -> failwith (Eden_lang.Parser.error_to_string e)
     in
     let schema =
       Eden_lang.Schema.with_standard_packet ~global:[ Eden_lang.Schema.field "Next" ] ()
     in
     match Eden_lang.Compile.compile schema ast with
     | Ok p -> p
     | Error e -> failwith (Eden_lang.Compile.error_to_string e))

let specs engine =
  let v = match engine with Compiled -> `Compiled | Interpreted -> `Interpreted in
  let jump = Lazy.force jump_program in
  [
    F.Sff.spec ~variant:v ();
    F.Pulsar.spec ~variant:v ();
    {
      Enclave.i_name = "jump";
      i_impl =
        (match engine with
        | Compiled -> Enclave.Compiled jump
        | Interpreted -> Enclave.Interpreted jump);
      i_msg_sources = [];
    };
    F.Wcmp.spec ~variant:(match engine with Compiled -> `Compiled | Interpreted -> `Packet) ();
    F.Pias.spec ~variant:v ();
  ]

let thresholds = [| 10_240L; 1_048_576L |]
let thresholds_alt = [| 4_096L; 65_536L; 1_048_576L |]
let wcmp_paths = [| 1L; 500L; 2L; 300L; 3L; 200L |]
let queue_map = Array.init Traffic.tenants Int64.of_int

let timed t f =
  let t0 = Clock.ns () in
  let r = f () in
  t.pushes_ns <- (Clock.ns () - t0) :: t.pushes_ns;
  r

let port_buckets field ~lo ~hi ~n =
  let width = (hi - lo + n) / n in
  List.init n (fun b ->
      let a = lo + (b * width) in
      ( [ (field, Classifier.Range (Int64.of_int a, Int64.of_int (a + width - 1))) ],
        Printf.sprintf "B%d" b,
        [] ))

let program_stages t ~churn =
  let prog stage ruleset rules =
    ok "program_stage" (Controller.program_stage t.ctl ~stage ~ruleset ~rules)
  in
  let eq f v = [ (f, Classifier.eq_str v) ] in
  let mc_md = [ Builtin.Field.msg_size; Builtin.Field.key_hash ] in
  prog "memcached" "op"
    [
      (eq Builtin.Field.msg_type "GET", "GET", mc_md);
      (eq Builtin.Field.msg_type "PUT", "PUT", mc_md);
    ];
  let st_md = [ Builtin.Field.operation; Builtin.Field.msg_size; Builtin.Field.tenant ] in
  prog "storage" "io"
    [
      (eq Builtin.Field.operation "READ", "READ", st_md);
      (eq Builtin.Field.operation "WRITE", "WRITE", st_md);
    ];
  if churn then begin
    prog "memcached" "shard"
      (List.init 32 (fun i ->
           ( [ (Builtin.Field.key, Classifier.Prefix (Printf.sprintf "s%d:" i)) ],
             Printf.sprintf "S%d" i,
             [] )));
    prog "enclave" "sport" (port_buckets Builtin.Field.src_port ~lo:1024 ~hi:65_535 ~n:32);
    prog "enclave" "dport" (port_buckets Builtin.Field.dst_port ~lo:1 ~hi:65_535 ~n:8)
  end

let push_policy t engine =
  let ctl = t.ctl in
  List.iter
    (fun spec -> ok "install" (timed t (fun () -> Controller.install_action_everywhere ctl spec)))
    (specs engine);
  ignore (ok "add_table" (timed t (fun () -> Controller.add_table_everywhere ctl)));
  let arr action name v =
    ok "set_global_array"
      (timed t (fun () -> Controller.set_global_array_everywhere ctl ~action name v))
  in
  arr "pias" "Thresholds" thresholds;
  arr "sff" "Thresholds" thresholds;
  arr "pulsar" "QueueMap" queue_map;
  arr "wcmp" "Paths" wcmp_paths;
  ok "set_global" (timed t (fun () -> Controller.set_global_everywhere ctl ~action:"jump" "Next" 1L));
  let rule table p action =
    ok "add_rule"
      (timed t (fun () -> Controller.add_rule_everywhere ctl ~table ~pattern:(pattern p) ~action ()))
  in
  rule 0 "memcached.op.GET" "sff";
  rule 0 "storage.*.*" "pulsar";
  rule 0 "*.*.*" "jump";
  rule 1 "memcached.*.*" "wcmp";
  rule 1 "*.*.*" "pias"

(* Fresh enclave + controller + stages, policy pushed; no traffic yet. *)
let create ?(churn = false) ~engine ~seed () =
  let t0 = Clock.ns () in
  let enclave = Enclave.create ~host:1 ~seed:(Int64.add seed 17L) () in
  let ctl = Controller.create ~seed () in
  Controller.register_enclave ctl enclave;
  let memcached = Builtin.memcached () and storage = Builtin.storage () in
  List.iter (Controller.register_stage ctl) [ memcached; storage; Enclave.flow_stage enclave ];
  let t = { ctl; enclave; memcached; storage; pushes_ns = []; install_ns = 0 } in
  program_stages t ~churn;
  push_policy t engine;
  t.install_ns <- Clock.ns () - t0;
  t

(* [churn]'s control schedule: every [push_every] packets one push, in a
   rotation of ten: a global scalar and a global array (alternating
   threshold ladders) in turn, then a new, more specific table-1 rule,
   which invalidates every match-action cache.  Between invalidations the
   cache fills past its capacity, so it also evicts. *)
let push_every = 2_500

let control_push t k =
  let ctl = t.ctl in
  match k mod 10 with
  | 0 | 2 | 4 | 6 | 8 ->
    ok "set_global" (timed t (fun () -> Controller.set_global_everywhere ctl ~action:"jump" "Next" 1L))
  | 1 | 3 | 5 | 7 ->
    let v = if k mod 4 = 1 then thresholds_alt else thresholds in
    ok "set_global_array"
      (timed t (fun () -> Controller.set_global_array_everywhere ctl ~action:"pias" "Thresholds" v))
  | _ ->
    let p = pattern (Printf.sprintf "memcached.shard.S%d" (k / 10 mod 32)) in
    ok "add_rule"
      (timed t (fun () -> Controller.add_rule_everywhere ctl ~table:1 ~pattern:p ~action:"pias" ()))

let classify t (m : Traffic.msg) =
  match m.Traffic.m_app with
  | Traffic.Plain -> Metadata.empty
  | Traffic.Memcached -> Stage.classify ?msg_id:m.Traffic.m_msg_id t.memcached m.Traffic.m_desc
  | Traffic.Storage -> Stage.classify ?msg_id:m.Traffic.m_msg_id t.storage m.Traffic.m_desc

(* The host's bookkeeping when a flow ends: release the enclave's flow id
   and the message's state. *)
let close_flow t (p : Eden_base.Packet.t) md =
  Enclave.note_flow_closed t.enclave p.Eden_base.Packet.flow;
  match Metadata.msg_id md with
  | Some id -> Enclave.note_message_end t.enclave ~msg_id:id
  | None -> ()

let scrape_counter samples name =
  List.fold_left
    (fun acc (s : Eden_telemetry.Registry.sample) ->
      match s.Eden_telemetry.Registry.s_value with
      | Eden_telemetry.Registry.Counter n when String.equal s.Eden_telemetry.Registry.s_name name ->
        acc + n
      | _ -> acc)
    0 samples
