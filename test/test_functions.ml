(* Tests for the network-function library and the controller. *)

module Enclave = Eden_enclave.Enclave
module Addr = Eden_base.Addr
module Packet = Eden_base.Packet
module Metadata = Eden_base.Metadata
module Time = Eden_base.Time
module Rng = Eden_base.Rng
open Eden_functions
module Topology = Eden_controller.Topology
module Controller = Eden_controller.Controller
module Policy = Eden_controller.Policy

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let get_ok = function
  | Ok v -> v
  | Error msg -> Alcotest.failf "unexpected error: %s" msg

let flow ?(src = 1) ?(src_port = 1000) ?(dst = 2) ?(dst_port = 80) () =
  Addr.five_tuple ~src:(Addr.endpoint src src_port) ~dst:(Addr.endpoint dst dst_port)
    ~proto:Addr.Tcp

let data_packet ?(id = 0L) ?(payload = 1000) ?(metadata = Metadata.empty) f =
  Packet.make ~id ~flow:f ~kind:Packet.Data ~payload ~metadata ()

(* ------------------------------------------------------------------ *)
(* WCMP *)

let test_wcmp_weighted_split () =
  let e = Enclave.create ~host:1 () in
  (* Labels 101 (weight 909) and 102 (weight 91): the paper's 10:1. *)
  get_ok (Wcmp.install e ~matrix:[| 101L; 909L; 102L; 91L |]);
  let counts = Hashtbl.create 4 in
  let f = flow () in
  for i = 0 to 9_999 do
    let pkt = data_packet ~id:(Int64.of_int i) f in
    ignore (Enclave.process e ~now:(Time.us i) pkt);
    let label = Option.value ~default:(-1) pkt.Packet.route_label in
    Hashtbl.replace counts label (1 + Option.value ~default:0 (Hashtbl.find_opt counts label))
  done;
  let n101 = Option.value ~default:0 (Hashtbl.find_opt counts 101) in
  let n102 = Option.value ~default:0 (Hashtbl.find_opt counts 102) in
  check_int "all labelled" 10_000 (n101 + n102);
  (* Expect ~9090 vs ~910; allow slack. *)
  check_bool (Printf.sprintf "split %d:%d near 10:1" n101 n102) true
    (n101 > 8_800 && n101 < 9_350)

let test_ecmp_equal_split () =
  let e = Enclave.create ~host:1 () in
  get_ok (Wcmp.install e ~matrix:(Wcmp.ecmp_matrix ~labels:[ 201; 202 ]));
  let c = Array.make 2 0 in
  let f = flow () in
  for i = 0 to 3_999 do
    let pkt = data_packet ~id:(Int64.of_int i) f in
    ignore (Enclave.process e ~now:(Time.us i) pkt);
    match pkt.Packet.route_label with
    | Some 201 -> c.(0) <- c.(0) + 1
    | Some 202 -> c.(1) <- c.(1) + 1
    | Some _ | None -> ()
  done;
  check_int "all labelled" 4_000 (c.(0) + c.(1));
  check_bool "roughly equal" true (abs (c.(0) - c.(1)) < 400)

let test_message_wcmp_stable_per_message () =
  let e = Enclave.create ~host:1 () in
  get_ok (Wcmp.install ~variant:`Message e ~matrix:[| 101L; 500L; 102L; 500L |]);
  (* Two app messages, ten packets each: labels constant within each. *)
  let labels_of msg_id =
    let md = Metadata.with_msg_id msg_id Metadata.empty in
    let md = Metadata.add_class (Eden_base.Class_name.v ~stage:"s" ~ruleset:"r" ~name:"M") md in
    List.init 10 (fun i ->
        let pkt = data_packet ~id:(Int64.of_int i) ~metadata:md (flow ()) in
        ignore (Enclave.process e ~now:(Time.us i) pkt);
        pkt.Packet.route_label)
  in
  let uniq l = List.sort_uniq compare l in
  let l1 = labels_of 1L in
  check_int "message 1 single label" 1 (List.length (uniq l1));
  (* Across many messages both labels appear. *)
  let firsts = List.init 50 (fun i -> List.hd (labels_of (Int64.of_int (i + 10)))) in
  check_bool "both paths used across messages" true (List.length (uniq firsts) = 2)

let test_wcmp_native_agrees_with_interpreted_distribution () =
  let run variant seed =
    let e = Enclave.create ~seed ~host:1 () in
    get_ok (Wcmp.install ~variant e ~matrix:[| 1L; 750L; 2L; 250L |]);
    let hits = ref 0 in
    let f = flow () in
    for i = 0 to 3_999 do
      let pkt = data_packet ~id:(Int64.of_int i) f in
      ignore (Enclave.process e ~now:(Time.us i) pkt);
      if pkt.Packet.route_label = Some 1 then incr hits
    done;
    float_of_int !hits /. 4000.0
  in
  let i = run `Packet 11L and n = run `Native 12L in
  check_bool (Printf.sprintf "interp %.3f vs native %.3f" i n) true (Float.abs (i -. n) < 0.05)

(* ------------------------------------------------------------------ *)
(* PIAS *)

let thresholds = [| 10_000L; 1_000_000L |]

let test_pias_reference_model () =
  check_int "small" 7 (Pias.priority_for ~thresholds ~size:500L);
  check_int "boundary" 7 (Pias.priority_for ~thresholds ~size:10_000L);
  check_int "mid" 6 (Pias.priority_for ~thresholds ~size:10_001L);
  check_int "large" 5 (Pias.priority_for ~thresholds ~size:2_000_000L)

let pias_enclave variant =
  let e = Enclave.create ~host:1 () in
  get_ok (Pias.install ~variant e ~thresholds);
  e

let test_pias_demotion_sequence () =
  List.iter
    (fun variant ->
      let e = pias_enclave variant in
      let f = flow () in
      let seen = ref [] in
      (* 1200 packets * 1058B ≈ 1.27 MB total: passes both thresholds. *)
      for i = 0 to 1199 do
        let pkt = data_packet ~id:(Int64.of_int i) f in
        ignore (Enclave.process e ~now:(Time.us i) pkt);
        if not (List.mem pkt.Packet.priority !seen) then seen := pkt.Packet.priority :: !seen
      done;
      Alcotest.(check (list int)) "priorities visited in order" [ 5; 6; 7 ] !seen)
    [ `Interpreted; `Native ]

let test_pias_native_interpreted_equivalent () =
  let ei = pias_enclave `Interpreted and en = pias_enclave `Native in
  let f = flow () in
  for i = 0 to 499 do
    let p1 = data_packet ~id:(Int64.of_int i) ~payload:((i mod 5) * 700) f in
    let p2 = data_packet ~id:(Int64.of_int i) ~payload:((i mod 5) * 700) f in
    ignore (Enclave.process ei ~now:(Time.us i) p1);
    ignore (Enclave.process en ~now:(Time.us i) p2);
    check_int (Printf.sprintf "packet %d" i) p2.Packet.priority p1.Packet.priority
  done

let prop_pias_program_matches_reference =
  QCheck.Test.make ~name:"pias program = reference model" ~count:100
    QCheck.(int_range 1 3_000_000)
    (fun total ->
      let e = pias_enclave `Interpreted in
      let f = flow () in
      (* Send [total] bytes in one 1000-byte-payload packet stream and
         check the last priority equals the reference on accumulated
         wire bytes. *)
      let pkt = ref None in
      let sent = ref 0 in
      let i = ref 0 in
      while !sent < total do
        let payload = min 1000 (total - !sent) in
        let p = data_packet ~id:(Int64.of_int !i) ~payload f in
        ignore (Enclave.process e ~now:(Time.us !i) p);
        sent := !sent + payload;
        incr i;
        pkt := Some p
      done;
      let accumulated = Int64.of_int (!sent + (!i * 58)) in
      match !pkt with
      | None -> false
      | Some p -> p.Packet.priority = Pias.priority_for ~thresholds ~size:accumulated)

(* ------------------------------------------------------------------ *)
(* SFF *)

let test_sff_priority_from_metadata () =
  List.iter
    (fun variant ->
      let e = Enclave.create ~host:1 () in
      get_ok (Sff.install ~variant e ~thresholds);
      let check_size size expected =
        let md =
          Metadata.with_msg_id (Int64.of_int size) (Sff.metadata_for ~size)
        in
        let pkt = data_packet ~metadata:md (flow ~src_port:(size mod 60_000) ()) in
        ignore (Enclave.process e ~now:Time.zero pkt);
        check_int (Printf.sprintf "size %d" size) expected pkt.Packet.priority
      in
      check_size 5_000 7;
      check_size 500_000 6;
      check_size 5_000_000 5)
    [ `Interpreted; `Native ]

let test_sff_constant_priority_over_flow () =
  let e = Enclave.create ~host:1 () in
  get_ok (Sff.install e ~thresholds);
  let md = Metadata.with_msg_id 1L (Sff.metadata_for ~size:500_000) in
  let f = flow () in
  for i = 0 to 399 do
    let pkt = data_packet ~id:(Int64.of_int i) ~metadata:md f in
    ignore (Enclave.process e ~now:(Time.us i) pkt);
    check_int "stays 6" 6 pkt.Packet.priority
  done

let test_sff_no_metadata_untouched () =
  let e = Enclave.create ~host:1 () in
  get_ok (Sff.install e ~thresholds);
  let pkt = data_packet (flow ()) in
  ignore (Enclave.process e ~now:Time.zero pkt);
  check_int "no hint, no change" 0 pkt.Packet.priority

(* ------------------------------------------------------------------ *)
(* Pulsar *)

let storage_md ~op ~tenant ~opsize =
  let stage = Eden_stage.Builtin.storage () in
  ignore
    (get_ok
       (Eden_stage.Stage.Api.create_stage_rule stage ~ruleset:"ops" ~classifier:[]
          ~class_name:"IO" ~metadata_fields:[ "operation"; "msg_size"; "tenant" ]));
  Eden_stage.Stage.classify stage
    (Eden_stage.Builtin.storage_descriptor ~op ~tenant ~size:opsize)

let test_pulsar_read_charged_by_op_size () =
  List.iter
    (fun variant ->
      let e = Enclave.create ~host:1 () in
      get_ok (Pulsar.install ~variant e ~queue_map:[| 0; 1 |]);
      let md = storage_md ~op:`Read ~tenant:1 ~opsize:65536 in
      let pkt = data_packet ~payload:198 ~metadata:md (flow ()) in
      (match Enclave.process e ~now:Time.zero pkt with
      | Enclave.Forward { queue = Some 1; charge = 65536 } -> ()
      | Enclave.Forward { queue; charge } ->
        Alcotest.failf "read: queue=%s charge=%d"
          (match queue with Some q -> string_of_int q | None -> "-")
          charge
      | Enclave.Dropped _ -> Alcotest.fail "dropped");
      let mdw = storage_md ~op:`Write ~tenant:0 ~opsize:65536 in
      let pktw = data_packet ~payload:1400 ~metadata:mdw (flow ~src_port:2000 ()) in
      match Enclave.process e ~now:Time.zero pktw with
      | Enclave.Forward { queue = Some 0; charge } ->
        check_int "write charged by wire size" (Packet.wire_size pktw) charge
      | Enclave.Forward _ -> Alcotest.fail "write: wrong queue"
      | Enclave.Dropped _ -> Alcotest.fail "dropped")
    [ `Interpreted; `Native ]

let test_pulsar_ignores_non_storage_traffic () =
  let e = Enclave.create ~host:1 () in
  get_ok (Pulsar.install e ~queue_map:[| 0 |]);
  let pkt = data_packet (flow ()) in
  match Enclave.process e ~now:Time.zero pkt with
  | Enclave.Forward { queue = None; _ } -> ()
  | Enclave.Forward _ -> Alcotest.fail "should not be steered"
  | Enclave.Dropped _ -> Alcotest.fail "dropped"

(* ------------------------------------------------------------------ *)
(* Port knocking *)

let knock_packet ~src ~dst_port i =
  data_packet ~id:(Int64.of_int i) ~payload:10 (flow ~src ~dst_port ~src_port:(4000 + i) ())

let test_port_knocking_sequence () =
  List.iter
    (fun variant ->
      let e = Enclave.create ~host:9 () in
      get_ok
        (Port_knocking.install ~variant e ~knocks:[ 1111; 2222; 3333 ] ~protected_port:22
           ~max_hosts:16);
      let send ~src ~dst_port i =
        Enclave.process e ~now:(Time.us i) (knock_packet ~src ~dst_port i)
      in
      (* Protected before knocking: dropped. *)
      (match send ~src:3 ~dst_port:22 0 with
      | Enclave.Dropped _ -> ()
      | Enclave.Forward _ -> Alcotest.fail "should be blocked");
      (* Knock the right sequence. *)
      ignore (send ~src:3 ~dst_port:1111 1);
      ignore (send ~src:3 ~dst_port:2222 2);
      ignore (send ~src:3 ~dst_port:3333 3);
      check_bool "unlocked state" true
        (Port_knocking.knock_state e ~src:3 () = Some 3L);
      (match send ~src:3 ~dst_port:22 4 with
      | Enclave.Forward _ -> ()
      | Enclave.Dropped _ -> Alcotest.fail "should be open after knocks");
      (* Another source remains blocked. *)
      match send ~src:4 ~dst_port:22 5 with
      | Enclave.Dropped _ -> ()
      | Enclave.Forward _ -> Alcotest.fail "per-source state leaked")
    [ `Interpreted; `Native ]

let test_port_knocking_wrong_knock_resets () =
  let e = Enclave.create ~host:9 () in
  get_ok
    (Port_knocking.install e ~knocks:[ 1111; 2222; 3333 ] ~protected_port:22 ~max_hosts:8);
  let send ~dst_port i =
    ignore (Enclave.process e ~now:(Time.us i) (knock_packet ~src:3 ~dst_port i))
  in
  send ~dst_port:1111 0;
  send ~dst_port:2222 1;
  send ~dst_port:1111 2;
  (* wrong: resets *)
  check_bool "reset" true (Port_knocking.knock_state e ~src:3 () = Some 0L);
  match Enclave.process e ~now:(Time.us 3) (knock_packet ~src:3 ~dst_port:22 3) with
  | Enclave.Dropped _ -> ()
  | Enclave.Forward _ -> Alcotest.fail "still blocked after reset"

let test_port_knocking_other_traffic_unaffected () =
  let e = Enclave.create ~host:9 () in
  get_ok
    (Port_knocking.install e ~knocks:[ 1111 ] ~protected_port:22 ~max_hosts:8);
  ignore (Enclave.process e ~now:Time.zero (knock_packet ~src:3 ~dst_port:80 0));
  check_bool "ordinary traffic does not disturb state" true
    (Port_knocking.knock_state e ~src:3 () = Some 0L);
  match Enclave.process e ~now:(Time.us 1) (knock_packet ~src:3 ~dst_port:80 1) with
  | Enclave.Forward _ -> ()
  | Enclave.Dropped _ -> Alcotest.fail "ordinary traffic dropped"

(* A host that completed the sequence and knocks again resets, on every
   engine, without a fault: the bytecode never reads past Knocks. *)
let test_port_knocking_resets_after_completion () =
  let ports = [ 22; 7001; 7003; 22; 7001; 7002; 7003; 22; 80; 7002; 22; 7001 ] in
  let expected = "DFFDFFFFFFDF" in
  List.iter
    (fun (name, variant) ->
      let e = Enclave.create ~host:9 () in
      get_ok
        (Port_knocking.install ~variant e ~knocks:[ 7001; 7002; 7003 ] ~protected_port:22
           ~max_hosts:8);
      let decisions =
        String.concat ""
          (List.mapi
             (fun i dst_port ->
               match Enclave.process e ~now:(Time.us i) (knock_packet ~src:3 ~dst_port i) with
               | Enclave.Dropped _ -> "D"
               | Enclave.Forward _ -> "F")
             ports)
      in
      Alcotest.(check string) (name ^ " decisions") expected decisions;
      check_int (name ^ " faults") 0 (Enclave.counters e).Enclave.faults)
    [ ("interpreted", `Interpreted); ("compiled", `Compiled); ("native", `Native) ]

(* ------------------------------------------------------------------ *)
(* Replica selection *)

let memcached_md key =
  let stage = Eden_stage.Builtin.memcached () in
  ignore
    (get_ok
       (Eden_stage.Stage.Api.create_stage_rule stage ~ruleset:"r1" ~classifier:[]
          ~class_name:"GET" ~metadata_fields:[ "key"; "key_hash"; "msg_size" ]));
  Eden_stage.Stage.classify stage
    (Eden_stage.Builtin.memcached_descriptor ~op:`Get ~key ~size:100)

let test_replica_select_deterministic_per_key () =
  List.iter
    (fun variant ->
      let e = Enclave.create ~host:1 () in
      get_ok (Replica_select.install ~variant e ~replica_labels:[| 301; 302; 303 |]);
      let label_for key =
        let pkt = data_packet ~metadata:(memcached_md key) (flow ()) in
        ignore (Enclave.process e ~now:Time.zero pkt);
        pkt.Packet.route_label
      in
      check_bool "same key same replica" true (label_for "user:17" = label_for "user:17");
      let labels = List.sort_uniq compare (List.map label_for
        [ "a"; "b"; "c"; "d"; "e"; "f"; "g"; "h"; "i"; "j"; "k"; "l" ]) in
      check_bool "multiple replicas used" true (List.length labels >= 2))
    [ `Interpreted; `Native ]

let test_replica_select_skips_other_traffic () =
  let e = Enclave.create ~host:1 () in
  get_ok (Replica_select.install e ~replica_labels:[| 301; 302 |]);
  let pkt = data_packet (flow ()) in
  ignore (Enclave.process e ~now:Time.zero pkt);
  check_bool "unclassified untouched" true (pkt.Packet.route_label = None)

(* ------------------------------------------------------------------ *)
(* Ananta *)

let test_ananta_per_flow_consistency () =
  List.iter
    (fun variant ->
      let e = Enclave.create ~host:1 () in
      get_ok
        (Ananta.install ~variant e
           ~dips:(Ananta.dip_table ~labels:[ 401; 402; 403 ] ~weights:[ 1; 1; 1 ]));
      (* All packets of one connection keep the same DIP label. *)
      let f1 = flow ~src_port:1000 () in
      let labels =
        List.init 20 (fun i ->
            let pkt = data_packet ~id:(Int64.of_int i) f1 in
            ignore (Enclave.process e ~now:(Time.us i) pkt);
            pkt.Packet.route_label)
      in
      check_int "single dip per flow" 1 (List.length (List.sort_uniq compare labels));
      (* Many connections spread over several DIPs. *)
      let firsts =
        List.init 40 (fun i ->
            let pkt = data_packet (flow ~src_port:(2000 + i) ()) in
            ignore (Enclave.process e ~now:(Time.us (100 + i)) pkt);
            pkt.Packet.route_label)
      in
      check_bool "multiple dips used" true
        (List.length (List.sort_uniq compare firsts) >= 2))
    [ `Interpreted; `Native ]

let test_ananta_weighted () =
  let e = Enclave.create ~host:1 () in
  get_ok
    (Ananta.install e ~dips:(Ananta.dip_table ~labels:[ 401; 402 ] ~weights:[ 9; 1 ]));
  let hits = ref 0 and total = 600 in
  for i = 0 to total - 1 do
    let pkt = data_packet (flow ~src_port:(3000 + i) ()) in
    ignore (Enclave.process e ~now:(Time.us i) pkt);
    if pkt.Packet.route_label = Some 401 then incr hits
  done;
  let frac = float_of_int !hits /. float_of_int total in
  check_bool (Printf.sprintf "9:1 split (%.2f)" frac) true (frac > 0.82 && frac < 0.97)

let test_ananta_flow_close_releases_dip () =
  let e = Enclave.create ~host:1 () in
  get_ok (Ananta.install e ~dips:(Ananta.dip_table ~labels:[ 401; 402 ] ~weights:[ 1; 1 ]));
  let f = flow () in
  let pkt = data_packet f in
  ignore (Enclave.process e ~now:Time.zero pkt);
  Enclave.note_flow_closed e f;
  (* The next "connection" with the same five-tuple re-picks; state was
     dropped (we can only observe that processing still works). *)
  let pkt2 = data_packet ~id:1L f in
  ignore (Enclave.process e ~now:(Time.us 1) pkt2);
  check_bool "still steered" true (pkt2.Packet.route_label <> None)

(* ------------------------------------------------------------------ *)
(* QJump *)

let test_qjump_levels () =
  List.iter
    (fun variant ->
      let e = Enclave.create ~host:1 () in
      get_ok (Qjump.install ~variant e ~levels:4);
      let send level =
        let md =
          Metadata.with_msg_id (Int64.of_int (100 + level)) (Qjump.metadata_for ~level)
        in
        let pkt = data_packet ~metadata:md (flow ~src_port:(4000 + level) ()) in
        let d = Enclave.process e ~now:Time.zero pkt in
        (pkt.Packet.priority, d)
      in
      (match send 3 with
      | 3, Enclave.Forward { queue = Some 3; _ } -> ()
      | p, _ -> Alcotest.failf "level 3: priority %d" p);
      (* Levels above the maximum clamp. *)
      (match send 9 with
      | 4, Enclave.Forward { queue = Some 4; _ } -> ()
      | p, _ -> Alcotest.failf "clamped level: priority %d" p);
      (* Unlevelled traffic untouched. *)
      let pkt = data_packet (flow ~src_port:4999 ()) in
      match Enclave.process e ~now:Time.zero pkt with
      | Enclave.Forward { queue = None; _ } -> check_int "prio" 0 pkt.Packet.priority
      | _ -> Alcotest.fail "unlevelled traffic steered")
    [ `Interpreted; `Native ]

let test_qjump_rates () =
  let r l = Qjump.rate_for_level ~link_rate_bps:8e9 ~levels:4 ~level:l in
  check_bool "level 1 full" true (Float.abs (r 1 -. 8e9) < 1.0);
  check_bool "level 2 half" true (Float.abs (r 2 -. 4e9) < 1.0);
  check_bool "level 4 eighth" true (Float.abs (r 4 -. 1e9) < 1.0)

(* ------------------------------------------------------------------ *)
(* Catalog (Table 1) *)

let test_catalog_shape () =
  check_int "16 rows" 16 (List.length Catalog.entries);
  check_bool "several implemented" true (List.length Catalog.implemented_entries >= 7);
  let table = Catalog.to_table () in
  check_int "header + rows" 17 (List.length table);
  List.iter (fun row -> check_int "8 columns" 8 (List.length row)) table;
  (* Every implemented entry is Eden-out-of-the-box. *)
  List.iter
    (fun e -> check_bool "implemented => out of box" true e.Catalog.eden_out_of_box)
    Catalog.implemented_entries

(* ------------------------------------------------------------------ *)
(* Controller *)

let fig1_topology () =
  (* The paper's Fig. 1: A reaches B via a 10 G path and a 1 G path. *)
  let topo = Topology.create () in
  Topology.add_link topo "A" "C" ~capacity_bps:10e9;
  Topology.add_link topo "C" "B" ~capacity_bps:10e9;
  Topology.add_link topo "A" "D" ~capacity_bps:1e9;
  Topology.add_link topo "D" "B" ~capacity_bps:1e9;
  topo

let test_topology_paths () =
  let topo = fig1_topology () in
  let paths = Topology.simple_paths topo ~src:"A" ~dst:"B" in
  check_int "two paths" 2 (List.length paths);
  check_bool "via C" true (List.mem [ "A"; "C"; "B" ] paths);
  check_bool "via D" true (List.mem [ "A"; "D"; "B" ] paths)

let test_wcmp_weights_ten_to_one () =
  let topo = fig1_topology () in
  let weights = Topology.wcmp_weights topo ~src:"A" ~dst:"B" in
  let w_of p = List.assoc p weights in
  check_bool "10/11" true (Float.abs (w_of [ "A"; "C"; "B" ] -. (10.0 /. 11.0)) < 1e-9);
  check_bool "1/11" true (Float.abs (w_of [ "A"; "D"; "B" ] -. (1.0 /. 11.0)) < 1e-9);
  let ecmp = Topology.ecmp_weights topo ~src:"A" ~dst:"B" in
  List.iter (fun (_, w) -> check_bool "equal" true (Float.abs (w -. 0.5) < 1e-9)) ecmp

let test_wcmp_path_matrix_encoding () =
  let ctl = Controller.create ~topology:(fig1_topology ()) () in
  let matrix =
    Controller.wcmp_path_matrix ctl ~src:"A" ~dst:"B"
      ~labels:[ ([ "A"; "C"; "B" ], 101); ([ "A"; "D"; "B" ], 102) ]
  in
  check_int "four entries" 4 (Array.length matrix);
  let weight_of label =
    let found = ref 0L in
    Array.iteri (fun i v -> if i mod 2 = 0 && v = Int64.of_int label then found := matrix.(i + 1)) matrix;
    Int64.to_int !found
  in
  check_bool "10:1 in permille" true
    (weight_of 101 > 890 && weight_of 101 < 920 && weight_of 102 > 80 && weight_of 102 < 100)

let test_pias_thresholds_monotone () =
  let cdf = Eden_workloads.Flowsize.cdf Eden_workloads.Flowsize.web_search in
  let th = Controller.pias_thresholds ~cdf ~levels:8 in
  check_int "7 thresholds" 7 (Array.length th);
  Array.iteri
    (fun i v -> if i > 0 then check_bool "ascending" true (Int64.compare v th.(i - 1) >= 0))
    th;
  check_bool "median-ish threshold below 1MB" true (Int64.compare th.(3) 1_000_000L < 0)

let test_controller_broadcast_and_rollback () =
  let ctl = Controller.create () in
  let e1 = Enclave.create ~host:1 () in
  let e2 = Enclave.create ~host:2 () in
  Controller.register_enclave ctl e1;
  Controller.register_enclave ctl e2;
  let gen0 = Controller.generation ctl in
  get_ok
    (Controller.install_action_everywhere ctl
       {
         Enclave.i_name = "pias";
         i_impl = Enclave.Interpreted (Pias.program ());
         i_msg_sources = [];
       });
  check_bool "both installed" true
    (List.mem "pias" (Enclave.action_names e1) && List.mem "pias" (Enclave.action_names e2));
  check_bool "generation bumped" true (Controller.generation ctl > gen0);
  (* Second install of the same action fails everywhere and rolls back
     nothing new (e1 fails first). *)
  (match
     Controller.install_action_everywhere ctl
       {
         Enclave.i_name = "pias";
         i_impl = Enclave.Interpreted (Pias.program ());
         i_msg_sources = [];
       }
   with
  | Ok () -> Alcotest.fail "expected failure"
  | Error _ -> ());
  get_ok (Controller.set_global_array_everywhere ctl ~action:"pias" "Thresholds" thresholds);
  check_bool "array distributed" true
    (Enclave.get_global_array e2 ~action:"pias" "Thresholds" = Some thresholds
    || Enclave.get_global_array e2 ~action:"pias" "Thresholds"
       = Some (Array.copy thresholds))

let test_controller_rollback_on_partial_failure () =
  let ctl = Controller.create () in
  let e1 = Enclave.create ~host:1 () in
  let e2 = Enclave.create ~host:2 () in
  Controller.register_enclave ctl e1;
  Controller.register_enclave ctl e2;
  (* Pre-install on e2 only, so a broadcast fails there after e1 worked. *)
  get_ok
    (Enclave.install_action e2
       { Enclave.i_name = "wcmp"; i_impl = Enclave.Native Wcmp.native; i_msg_sources = [] });
  (match
     Controller.install_action_everywhere ctl
       { Enclave.i_name = "wcmp"; i_impl = Enclave.Native Wcmp.native; i_msg_sources = [] }
   with
  | Ok () -> Alcotest.fail "expected failure"
  | Error _ -> ());
  check_bool "rolled back on e1" true (not (List.mem "wcmp" (Enclave.action_names e1)))

let test_policy_flow_scheduling () =
  let ctl = Controller.create () in
  let e1 = Enclave.create ~host:1 () in
  let e2 = Enclave.create ~host:2 () in
  Controller.register_enclave ctl e1;
  Controller.register_enclave ctl e2;
  let cdf = Eden_workloads.Flowsize.cdf Eden_workloads.Flowsize.web_search in
  get_ok (Policy.flow_scheduling ctl ~scheme:`Pias ~cdf ());
  check_bool "installed everywhere" true
    (List.mem "pias" (Enclave.action_names e1) && List.mem "pias" (Enclave.action_names e2));
  (* The data plane acts immediately. *)
  let pkt = data_packet ~payload:1000 (flow ()) in
  ignore (Enclave.process e1 ~now:Time.zero pkt);
  check_int "priority applied" 7 pkt.Packet.priority;
  (* Periodic control loop: tighter thresholds demote sooner. *)
  get_ok
    (Policy.update_flow_scheduling_thresholds ctl ~scheme:`Pias
       ~cdf:[ (100.0, 0.0); (200.0, 1.0) ]
       ());
  let pkt2 = data_packet ~payload:1000 (flow ~src_port:2000 ()) in
  ignore (Enclave.process e1 ~now:(Time.us 1) pkt2);
  check_bool "new thresholds in force" true (pkt2.Packet.priority < 7)

let test_policy_rollback () =
  let ctl = Controller.create () in
  let e1 = Enclave.create ~host:1 () in
  let e2 = Enclave.create ~host:2 () in
  (* Pre-install on e2 so the fleet install fails there. *)
  get_ok (Sff.install e2 ~thresholds:[| 1L |]);
  Controller.register_enclave ctl e1;
  Controller.register_enclave ctl e2;
  (match
     Policy.flow_scheduling ctl ~scheme:`Sff
       ~cdf:(Eden_workloads.Flowsize.cdf Eden_workloads.Flowsize.web_search)
       ()
   with
  | Ok () -> Alcotest.fail "expected failure"
  | Error _ -> ());
  check_bool "rolled back on e1" true (not (List.mem "sff" (Enclave.action_names e1)))

let test_policy_wcmp_from_topology () =
  let topo = fig1_topology () in
  let ctl = Controller.create ~topology:topo () in
  let e = Enclave.create ~host:1 () in
  Controller.register_enclave ctl e;
  get_ok
    (Policy.weighted_load_balancing ctl ~src:"A" ~dst:"B"
       ~labels:[ ([ "A"; "C"; "B" ], 101); ([ "A"; "D"; "B" ], 102) ]
       ());
  (* ~10:1 split out of the box. *)
  let hits = ref 0 in
  for i = 0 to 999 do
    let pkt = data_packet ~id:(Int64.of_int i) (flow ()) in
    ignore (Enclave.process e ~now:(Time.us i) pkt);
    if pkt.Packet.route_label = Some 101 then incr hits
  done;
  check_bool (Printf.sprintf "fast path share %d/1000" !hits) true
    (!hits > 850 && !hits < 970)

let test_policy_tenant_qos () =
  let ctl = Controller.create () in
  let e = Enclave.create ~host:1 () in
  Controller.register_enclave ctl e;
  let stage = Eden_stage.Builtin.storage () in
  Controller.register_stage ctl stage;
  get_ok (Policy.tenant_qos ctl ~queue_map:[| 0; 1 |] ());
  (* The stage now classifies READs and the enclave steers them. *)
  let md =
    Eden_stage.Stage.classify stage
      (Eden_stage.Builtin.storage_descriptor ~op:`Read ~tenant:1 ~size:65536)
  in
  let pkt = data_packet ~payload:200 ~metadata:md (flow ()) in
  match Enclave.process e ~now:Time.zero pkt with
  | Enclave.Forward { queue = Some 1; charge = 65536 } -> ()
  | _ -> Alcotest.fail "pulsar not in force"

let test_collect_reports () =
  let ctl = Controller.create () in
  let e = Enclave.create ~host:3 () in
  Controller.register_enclave ctl e;
  get_ok (Policy.flow_scheduling ctl ~scheme:`Pias
            ~cdf:(Eden_workloads.Flowsize.cdf Eden_workloads.Flowsize.web_search) ());
  for i = 0 to 9 do
    ignore (Enclave.process e ~now:(Time.us i) (data_packet ~id:(Int64.of_int i) (flow ())))
  done;
  match Controller.collect_reports ctl with
  | [ r ] ->
    check_int "host" 3 r.Controller.er_host;
    check_int "packets" 10 r.Controller.er_packets;
    check_int "invocations" 10 r.Controller.er_invocations;
    check_bool "overhead positive" true (r.Controller.er_overhead_pct > 0.0);
    check_bool "action listed" true (List.mem "pias" r.Controller.er_actions)
  | _ -> Alcotest.fail "expected one report"

(* ------------------------------------------------------------------ *)
(* Workloads *)

let test_flowsize_sampling () =
  let rng = Rng.create 1L in
  let ws = Eden_workloads.Flowsize.web_search in
  let small = ref 0 and total = 10_000 in
  for _ = 1 to total do
    let s = Eden_workloads.Flowsize.sample ws rng in
    check_bool "positive" true (s >= 1);
    check_bool "below max" true (s <= 32 * 1024 * 1024);
    if s < 100 * 1024 then incr small
  done;
  (* Web search: ~55-60% of flows under ~100KB. *)
  check_bool
    (Printf.sprintf "small fraction %.2f" (float_of_int !small /. float_of_int total))
    true
    (float_of_int !small /. float_of_int total > 0.45)

let test_reqresp_offered_load () =
  (* Generate with no contention and verify arrival count matches the
     load equation within tolerance. *)
  let net = Eden_netsim.Net.create ~seed:5L () in
  let sw = Eden_netsim.Net.add_switch net in
  let h0 = Eden_netsim.Net.add_host net in
  let h1 = Eden_netsim.Net.add_host net in
  List.iter
    (fun h ->
      let p = Eden_netsim.Net.connect_host net h sw ~rate_bps:100e9 () in
      Eden_netsim.Switch.set_dst_route sw ~dst:(Eden_netsim.Host.id h) ~ports:[ p ])
    [ h0; h1 ];
  let sizes = Eden_workloads.Flowsize.fixed 10_000 in
  let gen =
    Eden_workloads.Reqresp.launch ~net ~rng:(Rng.create 6L) ~src:0 ~dsts:[ 1 ] ~sizes
      ~load:0.5 ~link_rate_bps:10e9 ~until:(Time.ms 100) ()
  in
  Eden_netsim.Net.run net;
  (* Expected arrivals: 0.5 * 10G / (8 * 10k) = 62.5 kflows/s -> 6250 in 100 ms. *)
  let n = Eden_workloads.Reqresp.launched gen in
  check_bool (Printf.sprintf "arrivals %d near 6250" n) true (n > 5_000 && n < 7_500);
  check_int "all completed" n (Eden_workloads.Reqresp.completed gen)

let test_reqresp_buckets () =
  Alcotest.(check string) "small" "small"
    (Eden_workloads.Reqresp.bucket_to_string (Eden_workloads.Reqresp.bucket_of_size 5_000));
  Alcotest.(check string) "intermediate" "intermediate"
    (Eden_workloads.Reqresp.bucket_to_string (Eden_workloads.Reqresp.bucket_of_size 500_000));
  Alcotest.(check string) "large" "large"
    (Eden_workloads.Reqresp.bucket_to_string (Eden_workloads.Reqresp.bucket_of_size 5_000_000))

let qcheck = Qcheck_seed.qcheck

let () =
  Qcheck_seed.announce ();
  Alcotest.run "eden_functions"
    [
      ( "wcmp",
        [
          Alcotest.test_case "weighted split" `Quick test_wcmp_weighted_split;
          Alcotest.test_case "ecmp equal split" `Quick test_ecmp_equal_split;
          Alcotest.test_case "message wcmp stable" `Quick test_message_wcmp_stable_per_message;
          Alcotest.test_case "native agrees" `Quick
            test_wcmp_native_agrees_with_interpreted_distribution;
        ] );
      ( "pias",
        [
          Alcotest.test_case "reference model" `Quick test_pias_reference_model;
          Alcotest.test_case "demotion sequence" `Quick test_pias_demotion_sequence;
          Alcotest.test_case "native equivalent" `Quick test_pias_native_interpreted_equivalent;
          qcheck prop_pias_program_matches_reference;
        ] );
      ( "sff",
        [
          Alcotest.test_case "priority from metadata" `Quick test_sff_priority_from_metadata;
          Alcotest.test_case "constant over flow" `Quick test_sff_constant_priority_over_flow;
          Alcotest.test_case "no metadata" `Quick test_sff_no_metadata_untouched;
        ] );
      ( "pulsar",
        [
          Alcotest.test_case "read charged by op size" `Quick test_pulsar_read_charged_by_op_size;
          Alcotest.test_case "non-storage ignored" `Quick test_pulsar_ignores_non_storage_traffic;
        ] );
      ( "port_knocking",
        [
          Alcotest.test_case "sequence unlocks" `Quick test_port_knocking_sequence;
          Alcotest.test_case "wrong knock resets" `Quick test_port_knocking_wrong_knock_resets;
          Alcotest.test_case "other traffic unaffected" `Quick
            test_port_knocking_other_traffic_unaffected;
          Alcotest.test_case "resets after completion" `Quick
            test_port_knocking_resets_after_completion;
        ] );
      ( "replica_select",
        [
          Alcotest.test_case "deterministic per key" `Quick
            test_replica_select_deterministic_per_key;
          Alcotest.test_case "skips other traffic" `Quick test_replica_select_skips_other_traffic;
        ] );
      ( "ananta",
        [
          Alcotest.test_case "per-flow consistency" `Quick test_ananta_per_flow_consistency;
          Alcotest.test_case "weighted split" `Quick test_ananta_weighted;
          Alcotest.test_case "flow close" `Quick test_ananta_flow_close_releases_dip;
        ] );
      ( "qjump",
        [
          Alcotest.test_case "levels" `Quick test_qjump_levels;
          Alcotest.test_case "rates" `Quick test_qjump_rates;
        ] );
      ("catalog", [ Alcotest.test_case "table shape" `Quick test_catalog_shape ]);
      ( "controller",
        [
          Alcotest.test_case "paths" `Quick test_topology_paths;
          Alcotest.test_case "wcmp weights" `Quick test_wcmp_weights_ten_to_one;
          Alcotest.test_case "path matrix" `Quick test_wcmp_path_matrix_encoding;
          Alcotest.test_case "pias thresholds" `Quick test_pias_thresholds_monotone;
          Alcotest.test_case "broadcast" `Quick test_controller_broadcast_and_rollback;
          Alcotest.test_case "rollback" `Quick test_controller_rollback_on_partial_failure;
        ] );
      ( "policy",
        [
          Alcotest.test_case "flow scheduling" `Quick test_policy_flow_scheduling;
          Alcotest.test_case "rollback" `Quick test_policy_rollback;
          Alcotest.test_case "wcmp from topology" `Quick test_policy_wcmp_from_topology;
          Alcotest.test_case "tenant qos" `Quick test_policy_tenant_qos;
          Alcotest.test_case "reports" `Quick test_collect_reports;
        ] );
      ( "workloads",
        [
          Alcotest.test_case "flowsize sampling" `Quick test_flowsize_sampling;
          Alcotest.test_case "reqresp offered load" `Quick test_reqresp_offered_load;
          Alcotest.test_case "buckets" `Quick test_reqresp_buckets;
        ] );
    ]
