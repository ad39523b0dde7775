(* The enclave's front half: per-flow memo of the flow-stage classes,
   the one-slot reuse of merged metadata and the per-table class memo
   behind the match-action lookup.

   The differential test runs a seeded stream over many flows and, in
   the middle of it, changes the flow stage's rules through every path
   (the stage API, the controller, and directly on a rule-set), changes
   table rules, closes and reopens flows, and restarts and restores the
   enclave.  Every packet's metadata and treatment must equal an oracle
   that classifies from scratch — [Metadata.union] of a fresh flow-stage
   [Stage.classify] and the stage metadata — and walks the tables with
   [Table.lookup], no cache involved.

   The footprint tests bound what each flow costs the enclave, so a memo
   that keeps per-flow metadata cannot slip in, and check that closed
   flows leave nothing behind.  The flow-table property checks the
   open-addressed flow table's ids against a map model.

   The class-memo tests check that the memo is bounded by the classes,
   not by the class vectors traffic builds from them, and that the
   earliest of a vector's per-class first matches is always the rule
   [Table.lookup] fires, equal-specificity ties included.

   The generation tests check which ops swap the tables the data path
   reads: an action or rule op does, and the next packet resolves afresh
   against the new rules; a binding op does not, and keeps every memo. *)

module Enclave = Eden_enclave.Enclave
module Config = Eden_enclave.Config
module Table = Eden_enclave.Table
module Stage = Eden_stage.Stage
module Ruleset = Eden_stage.Ruleset
module Classifier = Eden_stage.Classifier
module Builtin = Eden_stage.Builtin
module Controller = Eden_controller.Controller
module Addr = Eden_base.Addr
module Packet = Eden_base.Packet
module Metadata = Eden_base.Metadata
module Class_name = Eden_base.Class_name
module Rng = Eden_base.Rng
module Time = Eden_base.Time

let get_ok = function Ok v -> v | Error m -> Alcotest.failf "unexpected error: %s" m

let seed =
  match Sys.getenv_opt "EDEN_TEST_SEED" with
  | Some s -> Int64.of_string s
  | None -> 0x3e3017L

let pattern s = Option.get (Class_name.Pattern.of_string s)

(* ------------------------------------------------------------------ *)
(* Actions with a known effect, so the oracle can apply them by name. *)

let jump_program () =
  let src =
    "fun (packet : Packet, msg : Message, _global : Global) ->\n\
    \  packet.GotoTable <- _global.Next"
  in
  let ast =
    match Eden_lang.Parser.parse_action ~name:"jump" src with
    | Ok a -> a
    | Error e -> Alcotest.fail (Eden_lang.Parser.error_to_string e)
  in
  let schema =
    Eden_lang.Schema.with_standard_packet ~global:[ Eden_lang.Schema.field "Next" ] ()
  in
  match Eden_lang.Compile.compile schema ast with
  | Ok p -> p
  | Error e -> Alcotest.fail (Eden_lang.Compile.error_to_string e)

(* Priority from the message id and a stage field: the decision depends
   on the merged metadata, not only on the class vector. *)
let mix ~msg_id md =
  Int64.to_int
    (Int64.rem
       (Int64.add msg_id (Metadata.int_field Builtin.Field.msg_size ~default:5L md))
       8L)

type act = Prio of int | Mix | Drop | Jump

let acts =
  [ ("prio3", Prio 3); ("prio6", Prio 6); ("mix", Mix); ("drop", Drop); ("jump", Jump) ]

let native = function
  | Prio p -> fun ctx -> Enclave.Native_ctx.set_priority ctx p
  | Mix ->
    fun ctx ->
      Enclave.Native_ctx.set_priority ctx
        (mix ~msg_id:(Enclave.Native_ctx.msg_id ctx) (Enclave.Native_ctx.metadata ctx))
  | Drop -> Enclave.Native_ctx.set_drop
  | Jump -> assert false

let install e =
  List.iter
    (fun (name, act) ->
      let i_impl =
        match act with
        | Jump -> Enclave.Compiled (jump_program ())
        | _ -> Enclave.Native (native act)
      in
      get_ok (Enclave.install_action e { Enclave.i_name = name; i_impl; i_msg_sources = [] }))
    acts;
  get_ok (Enclave.set_global e ~action:"jump" "Next" 1L);
  let t1 = Enclave.add_table e in
  let rule table p action =
    ignore (get_ok (Enclave.add_table_rule e ~table ~pattern:(pattern p) ~action ()))
  in
  rule 0 "app.kind.GET" "prio3";
  rule 0 "enclave.ports.LOW" "prio6";
  rule 0 "enclave.direct.*" "drop";
  rule 0 "*.*.*" "jump";
  rule t1 "app.*.*" "mix";
  rule t1 "enclave.ctl.*" "prio3"

(* ------------------------------------------------------------------ *)
(* The oracle *)

(* The enclave numbers flows from 2^40 in order of first packet, forgets
   a closed flow's number and starts over on restart. *)
type ids = { tbl : int64 Addr.Flow_table.t; mutable next : int64 }

let flow_id ids flow =
  match Addr.Flow_table.find_opt ids.tbl flow with
  | Some id -> id
  | None ->
    let id = ids.next in
    ids.next <- Int64.add id 1L;
    Addr.Flow_table.replace ids.tbl flow id;
    id

let fresh_ids () = { tbl = Addr.Flow_table.create 64; next = Int64.shift_left 1L 40 }

type outcome = Dropped | Forwarded of int (* priority *)

let oracle e ids (pkt : Packet.t) =
  let stage_md = pkt.Packet.metadata in
  let flow_md =
    Stage.classify ~msg_id:(flow_id ids pkt.Packet.flow) (Enclave.flow_stage e)
      (Builtin.flow_descriptor pkt.Packet.flow)
  in
  let md = Metadata.union flow_md stage_md in
  let msg_id = Option.get (Metadata.msg_id md) in
  let classes = Metadata.classes md in
  let tables = Enclave.tables e in
  let lookup id =
    match List.find_opt (fun tbl -> Table.id tbl = id) tables with
    | None -> None
    | Some tbl ->
      Option.map (fun r -> List.assoc r.Table.action acts) (Table.lookup tbl classes)
  in
  let rec apply table prio =
    match lookup table with
    | None -> Forwarded prio
    | Some (Prio p) -> Forwarded p
    | Some Mix -> Forwarded (mix ~msg_id md)
    | Some Drop -> Dropped
    | Some Jump -> if table = 0 then apply 1 prio else Forwarded prio
  in
  (md, apply 0 pkt.Packet.priority)

let actual e (pkt : Packet.t) =
  let d = Enclave.process e ~now:(Time.us 1) pkt in
  ( pkt.Packet.metadata,
    match d with
    | Enclave.Dropped _ -> Dropped
    | Enclave.Forward _ -> Forwarded pkt.Packet.priority )

let show_md md =
  let value = function
    | Metadata.Int i -> Printf.sprintf "%Ld" i
    | Metadata.Str s -> Printf.sprintf "%S" s
  in
  Printf.sprintf "id=%s classes=[%s] fields={%s}"
    (match Metadata.msg_id md with Some i -> Int64.to_string i | None -> "-")
    (String.concat "," (List.map Class_name.to_string (Metadata.classes md)))
    (String.concat ";" (List.map (fun (k, v) -> k ^ "=" ^ value v) (Metadata.fields md)))

let show_outcome = function Dropped -> "dropped" | Forwarded p -> Printf.sprintf "prio %d" p

(* ------------------------------------------------------------------ *)
(* The stream *)

let app_stage () =
  let s =
    Stage.create ~name:"app" ~classifier_fields:[ Builtin.Field.msg_type ]
      ~metadata_fields:[ Builtin.Field.msg_type; Builtin.Field.msg_size ]
  in
  List.iter
    (fun kind ->
      ignore
        (get_ok
           (Stage.Api.create_stage_rule s ~ruleset:"kind"
              ~classifier:[ (Builtin.Field.msg_type, Classifier.eq_str kind) ]
              ~class_name:kind
              ~metadata_fields:[ Builtin.Field.msg_type; Builtin.Field.msg_size ])))
    [ "GET"; "PUT" ];
  s

let n_flows = 96

let flows =
  Array.init n_flows (fun i ->
      Addr.five_tuple
        ~src:(Addr.endpoint (1 + (i mod 5)) (1_000 + (i * 677 mod 60_000)))
        ~dst:(Addr.endpoint (2 + (i mod 7)) (1 + (i * 1_543 mod 65_000)))
        ~proto:Addr.Tcp)

let port_range field lo hi = [ (field, Classifier.Range (Int64.of_int lo, Int64.of_int hi)) ]

let test_differential () =
  Printf.printf "memo differential seed: %Ld (set EDEN_TEST_SEED to override)\n%!" seed;
  let rng = Rng.create seed in
  (* A small cache, so new class vectors overflow it between rule
     changes. *)
  let e = Enclave.create ~host:1 ~flow_cache_capacity:8 () in
  install e;
  let fs = Enclave.flow_stage e in
  let ctl = Controller.create ~seed () in
  Controller.register_enclave ctl e;
  Controller.register_stage ctl fs;
  (* A rule-set for the direct [Ruleset] edits; its first rule never
     matches TCP traffic. *)
  ignore
    (get_ok
       (Stage.Api.create_stage_rule fs ~ruleset:"direct"
          ~classifier:[ (Builtin.Field.proto, Classifier.eq_str "udp") ]
          ~class_name:"UDP" ~metadata_fields:[]));
  let direct = Option.get (Stage.find_ruleset fs "direct") in
  let app = app_stage () in
  let ids = ref (fresh_ids ()) in
  let api_rules = ref [ ("flows", 0) ] and direct_rules = ref [] and table_rules = ref [] in
  let ctl_pushes = ref 0 and restarts = ref 0 and closes = ref 0 and packets = ref 0 in
  let evictions = ref 0 in
  let plain = Metadata.empty in
  let last = ref None in
  let check (pkt : Packet.t) =
    let want_md, want = oracle e !ids pkt in
    let got_md, got = actual e pkt in
    incr packets;
    if show_md got_md <> show_md want_md || got <> want then
      Alcotest.failf "seed %Ld, packet %d: enclave gave %s, %s; oracle %s, %s" seed !packets
        (show_md got_md) (show_outcome got) (show_md want_md) (show_outcome want);
    last := Some pkt
  in
  let rand_port () = Rng.int rng 65_536 in
  let next_pkt_id = ref 0L in
  let send flow md =
    next_pkt_id := Int64.add !next_pkt_id 1L;
    check
      (Packet.make ~id:!next_pkt_id ~flow ~kind:Packet.Data
         ~payload:(1 + Rng.int rng 1400)
         ~metadata:md ())
  in
  for _step = 1 to 6_000 do
    match Rng.int rng 100 with
    | r when r < 80 ->
      (* One message: 1-4 packets carrying the same stage metadata. *)
      let flow = flows.(Rng.int rng n_flows) in
      let md =
        match Rng.int rng 3 with
        | 0 -> plain
        | 1 ->
          let kind = if Rng.bool rng then "GET" else "PUT" in
          Stage.classify app
            (Classifier.Descriptor.of_list
               [
                 (Builtin.Field.msg_type, Metadata.str kind);
                 (Builtin.Field.msg_size, Metadata.int (Rng.int rng 100_000));
               ])
        | _ ->
          (* Classes without a message id: the flow id names the message. *)
          let name = if Rng.bool rng then "GET" else "PUT" in
          Metadata.add_class (Class_name.v ~stage:"app" ~ruleset:"kind" ~name) plain
      in
      for _ = 1 to 1 + Rng.int rng 4 do
        send flow md
      done
    | r when r < 84 -> (
      (* Re-send the last packet as it left: its metadata is the merged
         result, which must merge to itself. *)
      match !last with
      | Some pkt ->
        pkt.Packet.priority <- 0;
        check pkt
      | None -> ())
    | r when r < 88 -> (
      (* Flow-stage rules through the stage API. *)
      match !api_rules with
      | (rs, id) :: rest when Rng.bool rng ->
        if not (Stage.Api.remove_stage_rule fs ~ruleset:rs ~rule_id:id) then
          Alcotest.failf "rule %s/%d not removed" rs id;
        api_rules := rest
      | _ ->
        let lo = rand_port () in
        let rs, cls = if Rng.bool rng then ("ports", "LOW") else ("flows", "ALL") in
        let classifier =
          if rs = "flows" then [] else port_range Builtin.Field.dst_port lo (lo + 20_000)
        in
        let id =
          get_ok
            (Stage.Api.create_stage_rule fs ~ruleset:rs ~classifier ~class_name:cls
               ~metadata_fields:[])
        in
        api_rules := (rs, id) :: !api_rules)
    | r when r < 90 ->
      (* Flow-stage rules through the controller. *)
      incr ctl_pushes;
      let lo = rand_port () in
      get_ok
        (Controller.program_stage ctl ~stage:"enclave" ~ruleset:"ctl"
           ~rules:
             [
               ( port_range Builtin.Field.src_port lo (lo + 30_000),
                 Printf.sprintf "C%d" !ctl_pushes,
                 [] );
             ])
    | r when r < 93 -> (
      (* Flow-stage rules edited directly on the stage's rule-set. *)
      match !direct_rules with
      | id :: rest when Rng.bool rng ->
        if not (Ruleset.remove_rule direct id) then
          Alcotest.failf "direct rule %d not removed" id;
        direct_rules := rest
      | _ ->
        let lo = rand_port () in
        (* The memo keeps classes only, so a flow-stage rule carrying a
           metadata field must be refused here as through the API. *)
        let gen = Stage.generation fs in
        (match
           Ruleset.add_rule direct ~classifier:[] ~class_name:"F"
             ~metadata_fields:[ Builtin.Field.src_port ]
         with
        | _ -> Alcotest.fail "flow-stage rule with a metadata field accepted"
        | exception Invalid_argument _ -> ());
        if Stage.generation fs <> gen then
          Alcotest.fail "refused rule moved the generation";
        let rule =
          Ruleset.add_rule direct
            ~classifier:(port_range Builtin.Field.dst_port lo (lo + 8_000))
            ~class_name:(Printf.sprintf "D%d" (Rng.int rng 3))
            ~metadata_fields:[]
        in
        direct_rules := rule.Ruleset.rule_id :: !direct_rules)
    | r when r < 95 -> (
      (* Table rules: a flow class that jumps straight to [mix]. *)
      match !table_rules with
      | id :: rest when Rng.bool rng ->
        if not (Enclave.remove_table_rule e id) then
          Alcotest.failf "table rule %d not removed" id;
        table_rules := rest
      | _ ->
        let p = Printf.sprintf "enclave.ctl.C%d" (1 + Rng.int rng (max 1 !ctl_pushes)) in
        let id = get_ok (Enclave.add_table_rule e ~pattern:(pattern p) ~action:"mix" ()) in
        table_rules := id :: !table_rules)
    | r when r < 99 ->
      (* Close a flow; its next packet reopens it under a new id. *)
      incr closes;
      let flow = flows.(Rng.int rng n_flows) in
      Enclave.note_flow_closed e flow;
      Addr.Flow_table.remove !ids.tbl flow
    | _ ->
      incr restarts;
      let sn = Enclave.snapshot e in
      evictions := !evictions + (Enclave.counters e).Enclave.cache_evictions;
      Enclave.restart e;
      get_ok (Enclave.restore e sn);
      (* Rule ids do not survive a restore. *)
      table_rules := [];
      ids := fresh_ids ()
  done;
  evictions := !evictions + (Enclave.counters e).Enclave.cache_evictions;
  Printf.printf "%d packets, %d controller pushes, %d closes, %d restarts, %d cache evictions\n"
    !packets !ctl_pushes !closes !restarts !evictions;
  Alcotest.(check bool) "every path exercised" true
    (!ctl_pushes > 0 && !closes > 0 && !restarts > 0 && !evictions > 0)

(* ------------------------------------------------------------------ *)
(* Footprint *)

(* Words the enclave holds per flow it has seen, measured by
   [Obj.reachable_words] over [n] unique flows that never close: the
   flow's entry, which holds its five-tuple packed, and its slots in the
   flow table (8.28 words).  17.82 words is the figure for the boxed
   [int64] flow id the memo replaced, when the table kept each flow's
   five-tuple; the memo may add at most one word.  Per-flow metadata
   would add at least four. *)
let words_per_flow_before_memo = 17.82

let test_footprint () =
  let n = 10_000 in
  let e = Enclave.create ~host:1 () in
  let pkts =
    Array.init n (fun i ->
        Packet.make ~id:(Int64.of_int i)
          ~flow:
            (Addr.five_tuple ~src:(Addr.endpoint 1 (1 + i)) ~dst:(Addr.endpoint 2 80)
               ~proto:Addr.Tcp)
          ~kind:Packet.Data ~payload:100 ())
  in
  let warm =
    Packet.make ~id:(-1L)
      ~flow:(Addr.five_tuple ~src:(Addr.endpoint 9 9) ~dst:(Addr.endpoint 9 9) ~proto:Addr.Tcp)
      ~kind:Packet.Data ~payload:1 ()
  in
  ignore (Enclave.process e ~now:(Time.us 1) warm);
  let before = Obj.reachable_words (Obj.repr e) in
  Array.iteri (fun i p -> ignore (Enclave.process e ~now:(Time.us (i + 2)) p)) pkts;
  let per_flow = float_of_int (Obj.reachable_words (Obj.repr e) - before) /. float_of_int n in
  Printf.printf "enclave words per flow: %.3f (bound %.2f)\n" per_flow
    (words_per_flow_before_memo +. 1.0);
  if per_flow > words_per_flow_before_memo +. 1.0 then
    Alcotest.failf "the enclave keeps %.3f words per flow, over %.2f + 1" per_flow
      words_per_flow_before_memo

(* Closed flows leave nothing behind: [n] flows opened and closed one
   after another, each closed before the next opens, leave the enclave
   within a few words of one that saw a single flow.  A table that kept
   tombstones, or anything of a closed flow, would grow with [n]. *)
let test_closed_flows_footprint () =
  let n = 100_000 in
  let packet i =
    Packet.make ~id:(Int64.of_int i)
      ~flow:
        (Addr.five_tuple
           ~src:(Addr.endpoint (1 + (i / 60_000)) (1 + (i mod 60_000)))
           ~dst:(Addr.endpoint 2 80) ~proto:Addr.Tcp)
      ~kind:Packet.Data ~payload:100 ()
  in
  let open_and_close e i =
    let pkt = packet i in
    ignore (Enclave.process e ~now:(Time.us (i + 1)) pkt);
    Enclave.note_flow_closed e pkt.Packet.flow
  in
  let one = Enclave.create ~host:1 () in
  open_and_close one 0;
  let many = Enclave.create ~host:1 () in
  for i = 0 to n - 1 do
    open_and_close many i
  done;
  let words e = Obj.reachable_words (Obj.repr e) in
  Printf.printf "enclave words after 1 closed flow: %d, after %d: %d\n" (words one) n
    (words many);
  if words many > words one + 16 then
    Alcotest.failf "%d closed flows leave %d words, over %d + 16" n (words many) (words one)

(* ------------------------------------------------------------------ *)
(* Flow table *)

(* The flow table against a model: a map from five-tuple to the message
   id [process] must leave on the flow's packets, and the counter that
   numbers new flows from 2^40.  Closing a flow drops it from the map,
   so its next packet takes a fresh id; a restart empties the map and
   resets the counter; a flow-stage rule changes no id.  Tuples come
   from structured pools as well as at random: sequential source ports
   from one host (a port scan) and one port on many hosts, the shapes
   that cluster a weak hash, and hosts and ports too wide to pack,
   which the table keeps aside.  [Thin] closes every other open flow and
   re-sends the rest, each of which must keep its id: the closes shift
   entries back over the holes, and a shift that stops early strands
   an entry past a free slot. *)
type flow_op =
  | F_send of Addr.five_tuple
  | F_close of Addr.five_tuple
  | F_scan of int * int  (* first source port, count *)
  | F_thin
  | F_restart
  | F_stage_rule of int  (* low end of a destination-port range *)

let scan_tuple port =
  Addr.five_tuple ~src:(Addr.endpoint 7 port) ~dst:(Addr.endpoint 2 443) ~proto:Addr.Tcp

let host_tuple host =
  Addr.five_tuple ~src:(Addr.endpoint host 5_000) ~dst:(Addr.endpoint 3 80) ~proto:Addr.Udp

let show_flow_op = function
  | F_send k -> Format.asprintf "send %a" Addr.pp_five_tuple k
  | F_close k -> Format.asprintf "close %a" Addr.pp_five_tuple k
  | F_scan (p, n) -> Printf.sprintf "scan %d+%d" p n
  | F_thin -> "thin"
  | F_restart -> "restart"
  | F_stage_rule lo -> Printf.sprintf "stage rule %d" lo

let gen_flow_tuple =
  QCheck.Gen.(
    frequency
      [
        (2, map scan_tuple (int_range 1_000 1_300));
        (2, map host_tuple (int_range 1 300));
        ( 1,
          map3
            (fun h p q ->
              Addr.five_tuple ~src:(Addr.endpoint h p) ~dst:(Addr.endpoint 4 q)
                ~proto:(if p land 1 = 0 then Addr.Tcp else Addr.Udp))
            (int_range 0 3) (int_range 0 15) (int_range 0 3) );
        ( 1,
          map2
            (fun h p ->
              Addr.five_tuple ~src:(Addr.endpoint h p) ~dst:(Addr.endpoint 4 80) ~proto:Addr.Tcp)
            (oneofl [ 5; -3; 1 lsl 40; max_int ])
            (oneofl [ 22; -1; 65_536; 1 lsl 20 ]) );
      ])

let gen_flow_ops =
  QCheck.Gen.(
    list_size (int_range 1 300)
      (frequency
         [
           (10, map (fun k -> F_send k) gen_flow_tuple);
           (4, map (fun k -> F_close k) gen_flow_tuple);
           (1, map2 (fun p n -> F_scan (p, n)) (int_range 1_000 1_300) (int_range 1 120));
           (1, return F_thin);
           (1, map (fun lo -> F_stage_rule lo) (int_range 0 60_000));
           (1, return F_restart);
         ]))

let prop_flow_table =
  let print ops = String.concat "; " (List.map show_flow_op ops) in
  QCheck.Test.make ~name:"flow ids follow the flow-table model" ~count:200
    (QCheck.make ~print gen_flow_ops)
    (fun ops ->
      let e = Enclave.create ~host:1 () in
      let base = Int64.shift_left 1L 40 in
      let model = ref Addr.Flow_map.empty and next = ref base and sent = ref 0 in
      let send k =
        incr sent;
        let want, fresh =
          match Addr.Flow_map.find_opt k !model with
          | Some id -> (id, false)
          | None ->
            let id = !next in
            next := Int64.add id 1L;
            model := Addr.Flow_map.add k id !model;
            (id, true)
        in
        let pkt =
          Packet.make ~id:(Int64.of_int !sent) ~flow:k ~kind:Packet.Data ~payload:64 ()
        in
        ignore (Enclave.process e ~now:(Time.us !sent) pkt);
        match Metadata.msg_id pkt.Packet.metadata with
        | Some got when got = want -> ()
        | got ->
          QCheck.Test.fail_reportf "packet %d of %a: message id %s, model %Ld (%s flow)" !sent
            Addr.pp_five_tuple k
            (Option.fold ~none:"none" ~some:Int64.to_string got)
            want
            (if fresh then "new" else "open")
      in
      let close k =
        Enclave.note_flow_closed e k;
        model := Addr.Flow_map.remove k !model
      in
      List.iter
        (function
          | F_send k -> send k
          | F_close k -> close k
          | F_scan (p, n) ->
            for i = 0 to n - 1 do
              send (scan_tuple (p + i))
            done
          | F_thin ->
            let open_flows = List.map fst (Addr.Flow_map.bindings !model) in
            List.iteri (fun i k -> if i land 1 = 0 then close k) open_flows;
            Addr.Flow_map.iter (fun k _ -> send k) !model
          | F_restart ->
            Enclave.restart e;
            model := Addr.Flow_map.empty;
            next := base
          | F_stage_rule lo ->
            ignore
              (get_ok
                 (Stage.Api.create_stage_rule (Enclave.flow_stage e) ~ruleset:"ports"
                    ~classifier:(port_range Builtin.Field.dst_port lo (lo + 5_000))
                    ~class_name:"LOW" ~metadata_fields:[])))
        ops;
      true)

(* ------------------------------------------------------------------ *)
(* Class memo *)

let stats e =
  let c = Enclave.counters e in
  (c.Enclave.cache_hits, c.Enclave.cache_misses, c.Enclave.cache_evictions)

(* More distinct class vectors than the memo's capacity, built from
   fewer distinct classes than it: 4 stage classes times 16 flow-stage
   port buckets make 64 vectors over 21 classes (with the flow stage's
   ALL) at capacity 32.  The memo never fills, so nothing is evicted,
   and a second pass over the same packets finds every class memoised:
   each table visit is a hit. *)
let test_class_memo_bounded () =
  let capacity = 32 in
  let e = Enclave.create ~host:1 ~flow_cache_capacity:capacity () in
  install e;
  let fs = Enclave.flow_stage e in
  let buckets = 16 and width = 4_096 in
  for b = 0 to buckets - 1 do
    ignore
      (get_ok
         (Stage.Api.create_stage_rule fs ~ruleset:"ports"
            ~classifier:(port_range Builtin.Field.dst_port (b * width) (((b + 1) * width) - 1))
            ~class_name:(Printf.sprintf "P%d" b) ~metadata_fields:[]))
  done;
  (* Rules that tell some buckets and kinds apart. *)
  List.iter
    (fun (p, action) ->
      ignore (get_ok (Enclave.add_table_rule e ~pattern:(pattern p) ~action ())))
    [ ("enclave.ports.P3", "drop"); ("app.kind.HEAD", "prio6"); ("enclave.ports.P9", "mix") ];
  let kinds =
    List.map
      (fun name ->
        Metadata.add_class (Class_name.v ~stage:"app" ~ruleset:"kind" ~name) Metadata.empty)
      [ "GET"; "PUT"; "HEAD"; "POST" ]
  in
  let flow b =
    Addr.five_tuple ~src:(Addr.endpoint 1 (1_000 + b))
      ~dst:(Addr.endpoint 2 ((b * width) + 80))
      ~proto:Addr.Tcp
  in
  let ids = fresh_ids () in
  let sent = ref [] in
  let pass () =
    for b = 0 to buckets - 1 do
      List.iteri
        (fun k md ->
          let pkt =
            Packet.make ~id:(Int64.of_int ((b * 4) + k)) ~flow:(flow b) ~kind:Packet.Data
              ~payload:100 ~metadata:md ()
          in
          let want_md, want = oracle e ids pkt in
          let got_md, got = actual e pkt in
          if show_md got_md <> show_md want_md || got <> want then
            Alcotest.failf "bucket %d, kind %d: enclave gave %s, %s; oracle %s, %s" b k
              (show_md got_md) (show_outcome got) (show_md want_md) (show_outcome want);
          sent := Metadata.classes got_md :: !sent)
        kinds
    done
  in
  pass ();
  let vectors = List.sort_uniq (List.compare Class_name.compare) !sent in
  let classes = List.sort_uniq Class_name.compare (List.concat vectors) in
  Printf.printf "%d class vectors over %d classes, memo capacity %d\n" (List.length vectors)
    (List.length classes) capacity;
  Alcotest.(check bool) "more vectors than capacity" true (List.length vectors > capacity);
  Alcotest.(check bool) "fewer classes than capacity" true (List.length classes <= capacity);
  let hits1, misses1, evictions1 = stats e in
  Alcotest.(check int) "no evictions" 0 evictions1;
  pass ();
  let hits2, misses2, evictions2 = stats e in
  Alcotest.(check int) "no evictions on the second pass" 0 evictions2;
  Alcotest.(check int) "no misses on the second pass" misses1 misses2;
  Alcotest.(check bool) "every packet's visits hit" true (hits2 - hits1 >= buckets * 4)

(* A random table whose wildcard patterns all share one specificity, so
   the insertion-order tie-break decides between them, under random
   class vectors with rules added and removed between packets.  Each
   rule names its own action, which sets the packet's queue to the
   action's number, so the queue says which rule fired; it must be the
   rule [Table.lookup] finds for the packet's merged classes. *)
type tie_op =
  | T_add of Class_name.Pattern.t
  | T_remove of int  (* index into the live rules, modulo their number *)
  | T_send of Class_name.t list * int  (* the vector, sent this many times in a row *)

let show_tie_op = function
  | T_add p -> "add " ^ Class_name.Pattern.to_string p
  | T_remove i -> Printf.sprintf "remove #%d" i
  | T_send (cs, n) ->
    Printf.sprintf "send [%s] x%d" (String.concat "," (List.map Class_name.to_string cs)) n

let tie_stages = [| "s0"; "s1" |]
let tie_rulesets = [| "r0"; "r1" |]
let tie_names = [| "n0"; "n1"; "n2" |]

let gen_tie_class =
  QCheck.Gen.(
    map3
      (fun stage ruleset name -> Class_name.v ~stage ~ruleset ~name)
      (oneofa tie_stages) (oneofa tie_rulesets) (oneofa tie_names))

(* A pattern with exactly [spec] exact components. *)
let gen_tie_pattern spec =
  QCheck.Gen.(
    map2
      (fun exact (stage, ruleset, name) ->
        let comp i v = if List.mem i exact then Class_name.Pattern.Exact v else Any in
        {
          Class_name.Pattern.stage = comp 0 stage;
          ruleset = comp 1 ruleset;
          name = comp 2 name;
        })
      (map (fun order -> List.filteri (fun i _ -> i < spec) order) (shuffle_l [ 0; 1; 2 ]))
      (triple (oneofa tie_stages) (oneofa tie_rulesets) (oneofa tie_names)))

let gen_tie_case =
  QCheck.Gen.(
    int_range 0 2 >>= fun spec ->
    triple (return spec)
      (oneofl [ 1; 3; 4_096 ])
      (list_size (int_range 1 60)
         (frequency
            [
              (3, map (fun p -> T_add p) (gen_tie_pattern spec));
              (1, map (fun i -> T_remove i) (int_range 0 15));
              (4, pair (list_size (int_range 1 4) gen_tie_class) (int_range 1 2)
                  |> map (fun (cs, n) -> T_send (cs, n)));
            ])))

let n_tie_actions = 64

let prop_tie_break =
  let print (spec, capacity, ops) =
    Printf.sprintf "specificity %d, capacity %d: %s" spec capacity
      (String.concat "; " (List.map show_tie_op ops))
  in
  QCheck.Test.make ~name:"the enclave fires Table.lookup's rule" ~count:300
    (QCheck.make ~print gen_tie_case)
    (fun (_spec, capacity, ops) ->
      let e = Enclave.create ~host:1 ~flow_cache_capacity:capacity () in
      for q = 0 to n_tie_actions - 1 do
        get_ok
          (Enclave.install_action e
             {
               Enclave.i_name = Printf.sprintf "q%d" q;
               i_impl = Enclave.Native (fun ctx -> Enclave.Native_ctx.set_queue ctx q);
               i_msg_sources = [];
             })
      done;
      let flow =
        Addr.five_tuple ~src:(Addr.endpoint 1 1_000) ~dst:(Addr.endpoint 2 80) ~proto:Addr.Tcp
      in
      let live = ref [] and added = ref 0 and sent = ref 0 in
      List.iter
        (function
          | T_add pattern ->
            let action = Printf.sprintf "q%d" (!added mod n_tie_actions) in
            incr added;
            live := get_ok (Enclave.add_table_rule e ~pattern ~action ()) :: !live
          | T_remove i -> (
            match !live with
            | [] -> ()
            | rules ->
              let id = List.nth rules (i mod List.length rules) in
              if not (Enclave.remove_table_rule e id) then
                QCheck.Test.fail_reportf "rule %d not removed" id;
              live := List.filter (( <> ) id) rules)
          | T_send (classes, n) ->
            let md =
              List.fold_left (fun md c -> Metadata.add_class c md) Metadata.empty classes
            in
            for _ = 1 to n do
              incr sent;
              let pkt =
                Packet.make ~id:(Int64.of_int !sent) ~flow ~kind:Packet.Data ~payload:100
                  ~metadata:md ()
              in
              let got =
                match Enclave.process e ~now:(Time.us !sent) pkt with
                | Enclave.Forward { queue; _ } -> queue
                | Enclave.Dropped why ->
                  QCheck.Test.fail_reportf "packet %d dropped: %s" !sent why
              in
              let want =
                Option.map
                  (fun r ->
                    int_of_string
                      (String.sub r.Table.action 1 (String.length r.Table.action - 1)))
                  (Table.lookup (List.hd (Enclave.tables e))
                     (Metadata.classes pkt.Packet.metadata))
              in
              if got <> want then
                QCheck.Test.fail_reportf "packet %d: queue %s, Table.lookup's rule gives %s"
                  !sent
                  (Option.fold ~none:"none" ~some:string_of_int got)
                  (Option.fold ~none:"none" ~some:string_of_int want)
            done)
        ops;
      true)


(* ------------------------------------------------------------------ *)
(* Generation *)

(* [Enclave.tables] is the generation's list: the same value until an
   action or rule op swaps it, whatever binding ops come between. *)
let test_tables_follow_generation () =
  let e = Enclave.create ~host:1 () in
  install e;
  let before = Enclave.tables e in
  Alcotest.(check bool) "same list on a second call" true (Enclave.tables e == before);
  get_ok (Enclave.set_global e ~action:"jump" "Next" 1L);
  get_ok (Enclave.set_global_array e ~action:"jump" "Unused" [| 1L |]);
  Alcotest.(check bool) "binding ops keep the list" true (Enclave.tables e == before);
  let id = get_ok (Enclave.add_table_rule e ~pattern:(pattern "app.kind.PUT") ~action:"prio6" ()) in
  let after = Enclave.tables e in
  Alcotest.(check bool) "Add_rule makes a new list" true (after != before);
  Alcotest.(check bool) "the new list holds the rule" true
    (List.exists (fun r -> r.Table.rule_id = id) (Table.rules (List.hd after)))

(* Table 0 routes every [app] class to [low] (priority 3); [high]
   (priority 6) has no rule.  [runs] counts [low]'s invocations. *)
let generation_enclave () =
  let e = Enclave.create ~host:1 () in
  let runs = ref 0 in
  let native name f = { Enclave.i_name = name; i_impl = Enclave.Native f; i_msg_sources = [] } in
  get_ok
    (Enclave.install_action e
       (native "low" (fun ctx ->
            incr runs;
            Enclave.Native_ctx.set_priority ctx 3)));
  get_ok (Enclave.install_action e (native "high" (fun ctx -> Enclave.Native_ctx.set_priority ctx 6)));
  ignore (get_ok (Enclave.add_table_rule e ~pattern:(pattern "app.*.*") ~action:"low" ()));
  (e, runs)

(* Two packets of one message, the same flow and the same stage
   metadata object, so the second reuses the first's slot; [op] is
   applied between them.  The second packet's table visits as (hits,
   misses), its priority, and whether [low] ran for it. *)
let across_op op =
  let e, runs = generation_enclave () in
  let md =
    Metadata.add_class (Class_name.v ~stage:"app" ~ruleset:"kind" ~name:"GET") Metadata.empty
  in
  let flow =
    Addr.five_tuple ~src:(Addr.endpoint 1 1_000) ~dst:(Addr.endpoint 2 80) ~proto:Addr.Tcp
  in
  let send id =
    let pkt =
      Packet.make ~id ~flow ~kind:Packet.Data ~payload:100 ~priority:0 ~metadata:md ()
    in
    ignore (Enclave.process e ~now:(Time.us 1) pkt);
    pkt.Packet.priority
  in
  Alcotest.(check int) "first packet runs low" 3 (send 1L);
  (match Enclave.apply e op with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "%s refused: %s" (Config.op_to_string op) msg);
  let hits, misses, _ = stats e and ran = !runs in
  let priority = send 2L in
  let hits', misses', _ = stats e in
  (hits' - hits, misses' - misses, priority, !runs > ran)

let test_ops_across_a_message () =
  let spec name =
    { Enclave.i_name = name; i_impl = Enclave.Native ignore; i_msg_sources = [] }
  in
  List.iter
    (fun (op, want) ->
      let name = Config.op_to_string op in
      let hits, misses, priority, ran = across_op op in
      let show (h, m, p, r) = Printf.sprintf "%d hits, %d misses, priority %d, low %s" h m p
          (if r then "ran" else "did not run") in
      if (hits, misses, priority, ran) <> want then
        Alcotest.failf "%s: second packet %s, want %s" name (show (hits, misses, priority, ran))
          (show want))
    [
      (Config.Set_global { action = "low"; name = "K"; value = 1L }, (1, 0, 3, true));
      (Config.Set_global_array { action = "low"; name = "A"; value = [| 1L |] }, (1, 0, 3, true));
      (Config.Install_action (spec "other"), (0, 1, 3, true));
      (Config.Remove_action "low", (0, 1, 0, false));
      (Config.Remove_action "high", (0, 1, 3, true));
      ( Config.Add_rule { table = 0; pattern = pattern "app.kind.GET"; action = "high" },
        (0, 1, 6, false) );
      (Config.Remove_rule { table = 0; rule_id = 0 }, (0, 1, 0, false));
    ]

let () =
  Qcheck_seed.announce ();
  Alcotest.run "eden_memo"
    [
      ( "front-half",
        [
          Alcotest.test_case "memo matches fresh classification" `Quick test_differential;
          Alcotest.test_case "words per flow" `Quick test_footprint;
          Alcotest.test_case "closed flows leave nothing behind" `Quick
            test_closed_flows_footprint;
        ] );
      ("flow-table", [ Qcheck_seed.qcheck prop_flow_table ]);
      ( "class-memo",
        [
          Alcotest.test_case "bounded by classes, not vectors" `Quick test_class_memo_bounded;
          Qcheck_seed.qcheck prop_tie_break;
        ] );
      ( "generation",
        [
          Alcotest.test_case "tables change only with the generation" `Quick
            test_tables_follow_generation;
          Alcotest.test_case "ops between two packets of a message" `Quick
            test_ops_across_a_message;
        ] );
    ]
