(* Tests for stages: classifiers, rule-sets, the Stage API, built-ins. *)

open Eden_stage
module Metadata = Eden_base.Metadata
module Class_name = Eden_base.Class_name

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let get_ok = function
  | Ok v -> v
  | Error msg -> Alcotest.failf "unexpected error: %s" msg

(* ------------------------------------------------------------------ *)
(* Classifier *)

let d = Builtin.memcached_descriptor ~op:`Get ~key:"a" ~size:100

let test_classifier_exact () =
  check_bool "msg_type GET" true
    (Classifier.matches [ ("msg_type", Classifier.eq_str "GET") ] d);
  check_bool "msg_type PUT" false
    (Classifier.matches [ ("msg_type", Classifier.eq_str "PUT") ] d);
  check_bool "conjunction" true
    (Classifier.matches
       [ ("msg_type", Classifier.eq_str "GET"); ("key", Classifier.eq_str "a") ]
       d);
  check_bool "conjunction fails" false
    (Classifier.matches
       [ ("msg_type", Classifier.eq_str "GET"); ("key", Classifier.eq_str "b") ]
       d)

let test_classifier_wildcards () =
  check_bool "empty matches" true (Classifier.matches [] d);
  check_bool "any" true (Classifier.matches [ ("msg_type", Classifier.Any) ] d);
  check_bool "any matches absent field" true
    (Classifier.matches [ ("nonexistent", Classifier.Any) ] d);
  check_bool "present fails on absent" false
    (Classifier.matches [ ("nonexistent", Classifier.Present) ] d);
  check_bool "present" true (Classifier.matches [ ("key", Classifier.Present) ] d)

let test_classifier_rich_patterns () =
  check_bool "range hit" true
    (Classifier.matches [ ("msg_size", Classifier.Range (50L, 150L)) ] d);
  check_bool "range miss" false
    (Classifier.matches [ ("msg_size", Classifier.Range (200L, 300L)) ] d);
  check_bool "range on string" false
    (Classifier.matches [ ("key", Classifier.Range (0L, 10L)) ] d);
  check_bool "in_set" true
    (Classifier.matches
       [ ("msg_type", Classifier.In_set [ Metadata.str "PUT"; Metadata.str "GET" ]) ]
       d);
  check_bool "ne" true (Classifier.matches [ ("msg_type", Classifier.Ne (Metadata.str "PUT")) ] d);
  let d2 = Builtin.http_descriptor ~msg_type:`Request ~url:"/api/users/1" ~size:10 in
  check_bool "prefix hit" true (Classifier.matches [ ("url", Classifier.Prefix "/api/") ] d2);
  check_bool "prefix miss" false (Classifier.matches [ ("url", Classifier.Prefix "/static/") ] d2)

let test_classifier_fields_referenced () =
  let c = [ ("a", Classifier.Any); ("b", Classifier.Present); ("a", Classifier.Present) ] in
  Alcotest.(check (list string)) "dedup in order" [ "a"; "b" ] (Classifier.fields_referenced c)

(* ------------------------------------------------------------------ *)
(* Rule-sets: Fig. 6 of the paper *)

let memcached_with_fig6_rules () =
  let st = Builtin.memcached () in
  (* r1: GET / PUT *)
  ignore
    (get_ok
       (Stage.Api.create_stage_rule st ~ruleset:"r1"
          ~classifier:[ ("msg_type", Classifier.eq_str "GET") ]
          ~class_name:"GET" ~metadata_fields:[ "msg_size" ]));
  ignore
    (get_ok
       (Stage.Api.create_stage_rule st ~ruleset:"r1"
          ~classifier:[ ("msg_type", Classifier.eq_str "PUT") ]
          ~class_name:"PUT" ~metadata_fields:[ "msg_size" ]));
  (* r2: everything -> DEFAULT *)
  Builtin.install_default_rule st ~ruleset:"r2";
  (* r3: GETs for key "a", other requests for "a", everything else *)
  ignore
    (get_ok
       (Stage.Api.create_stage_rule st ~ruleset:"r3"
          ~classifier:
            [ ("msg_type", Classifier.eq_str "GET"); ("key", Classifier.eq_str "a") ]
          ~class_name:"GETA" ~metadata_fields:[ "msg_size" ]));
  ignore
    (get_ok
       (Stage.Api.create_stage_rule st ~ruleset:"r3"
          ~classifier:[ ("key", Classifier.eq_str "a") ]
          ~class_name:"A" ~metadata_fields:[ "msg_size" ]));
  ignore
    (get_ok
       (Stage.Api.create_stage_rule st ~ruleset:"r3" ~classifier:[] ~class_name:"OTHER"
          ~metadata_fields:[ "msg_size" ]));
  st

let class_strings md = List.map Class_name.to_string (Metadata.classes md)

let test_fig6_get_a () =
  let st = memcached_with_fig6_rules () in
  let md = Stage.classify st (Builtin.memcached_descriptor ~op:`Get ~key:"a" ~size:64) in
  let cs = class_strings md in
  check_bool "GET" true (List.mem "memcached.r1.GET" cs);
  check_bool "DEFAULT" true (List.mem "memcached.r2.DEFAULT" cs);
  check_bool "GETA" true (List.mem "memcached.r3.GETA" cs);
  check_int "exactly one class per rule-set" 3 (List.length cs)

let test_fig6_put_a () =
  (* The paper: a PUT for key "a" belongs to memcached.r1.PUT,
     memcached.r2.DEFAULT and memcached.r3.A. *)
  let st = memcached_with_fig6_rules () in
  let md = Stage.classify st (Builtin.memcached_descriptor ~op:`Put ~key:"a" ~size:64) in
  let cs = class_strings md in
  Alcotest.(check (list string))
    "classes"
    [ "memcached.r1.PUT"; "memcached.r2.DEFAULT"; "memcached.r3.A" ]
    (List.sort compare cs)

let test_fig6_put_other_key () =
  let st = memcached_with_fig6_rules () in
  let md = Stage.classify st (Builtin.memcached_descriptor ~op:`Put ~key:"zz" ~size:64) in
  let cs = class_strings md in
  check_bool "OTHER" true (List.mem "memcached.r3.OTHER" cs);
  check_bool "not A" false (List.mem "memcached.r3.A" cs)

let test_classify_attaches_metadata () =
  let st = memcached_with_fig6_rules () in
  let md = Stage.classify st (Builtin.memcached_descriptor ~op:`Get ~key:"a" ~size:640) in
  check_bool "has msg id" true (Metadata.msg_id md <> None);
  check_bool "msg_size" true (Metadata.find_int "msg_size" md = Some 640L)

let test_msg_ids_unique () =
  let st = memcached_with_fig6_rules () in
  let d1 = Builtin.memcached_descriptor ~op:`Get ~key:"a" ~size:1 in
  let md1 = Stage.classify st d1 in
  let md2 = Stage.classify st d1 in
  check_bool "distinct ids" true (Metadata.msg_id md1 <> Metadata.msg_id md2)

let test_first_match_wins () =
  let st = Builtin.memcached () in
  ignore
    (get_ok
       (Stage.Api.create_stage_rule st ~ruleset:"r" ~classifier:[] ~class_name:"FIRST"
          ~metadata_fields:[]));
  ignore
    (get_ok
       (Stage.Api.create_stage_rule st ~ruleset:"r"
          ~classifier:[ ("msg_type", Classifier.eq_str "GET") ]
          ~class_name:"SECOND" ~metadata_fields:[]));
  let md = Stage.classify st d in
  Alcotest.(check (list string)) "first" [ "memcached.r.FIRST" ] (class_strings md)

(* ------------------------------------------------------------------ *)
(* Stage API *)

let test_get_stage_info () =
  let st = Builtin.memcached () in
  let info = Stage.Api.get_stage_info st in
  check_string "name" "memcached" info.Stage.stage_name;
  check_bool "classifies msg_type" true (List.mem "msg_type" info.Stage.classifier_fields);
  check_bool "classifies key" true (List.mem "key" info.Stage.classifier_fields);
  check_bool "generates msg_size" true (List.mem "msg_size" info.Stage.metadata_fields)

let test_create_rule_validates_classifier_fields () =
  let st = Builtin.memcached () in
  match
    Stage.Api.create_stage_rule st ~ruleset:"r"
      ~classifier:[ ("tenant", Classifier.Any) ]
      ~class_name:"X" ~metadata_fields:[]
  with
  | Ok _ -> Alcotest.fail "expected rejection"
  | Error msg -> check_bool "mentions field" true (String.length msg > 0)

let test_create_rule_validates_metadata_fields () =
  let st = Builtin.memcached () in
  match
    Stage.Api.create_stage_rule st ~ruleset:"r" ~classifier:[] ~class_name:"X"
      ~metadata_fields:[ "tenant" ]
  with
  | Ok _ -> Alcotest.fail "expected rejection"
  | Error _ -> ()

let test_remove_rule () =
  let st = Builtin.memcached () in
  let id =
    get_ok
      (Stage.Api.create_stage_rule st ~ruleset:"r" ~classifier:[] ~class_name:"X"
         ~metadata_fields:[])
  in
  let md = Stage.classify st d in
  check_int "one class" 1 (List.length (Metadata.classes md));
  check_bool "removed" true (Stage.Api.remove_stage_rule st ~ruleset:"r" ~rule_id:id);
  let md2 = Stage.classify st d in
  check_int "no classes" 0 (List.length (Metadata.classes md2));
  check_bool "second removal fails" false (Stage.Api.remove_stage_rule st ~ruleset:"r" ~rule_id:id)

let test_create_rule_validates_class_name () =
  let st = Builtin.memcached () in
  (match
     Stage.Api.create_stage_rule st ~ruleset:"r" ~classifier:[] ~class_name:"a.b"
       ~metadata_fields:[]
   with
  | Ok _ -> Alcotest.fail "expected rejection"
  | Error _ -> ());
  check_bool "no rule-set created" true (Stage.find_ruleset st "r" = None)

(* Every rule change moves the generation, including edits made directly
   on a rule-set; [classes] lists what [classify] attaches. *)
let test_generation_and_classes () =
  let st = Builtin.memcached () in
  let g0 = Stage.generation st in
  let id =
    get_ok
      (Stage.Api.create_stage_rule st ~ruleset:"r" ~classifier:[] ~class_name:"X"
         ~metadata_fields:[])
  in
  let g1 = Stage.generation st in
  check_bool "api add moves it" true (g1 <> g0);
  let rs = Option.get (Stage.find_ruleset st "r") in
  (match
     Ruleset.add_rule rs ~classifier:[] ~class_name:"Z" ~metadata_fields:[ "not_declared" ]
   with
  | _ -> Alcotest.fail "undeclared metadata field accepted"
  | exception Invalid_argument _ -> ());
  check_int "refused rule leaves it" g1 (Stage.generation st);
  let rule =
    Ruleset.add_rule rs ~classifier:[] ~class_name:"Y" ~metadata_fields:[ Builtin.Field.key ]
  in
  check_string "qualified at install" "memcached.r.Y"
    (Class_name.to_string rule.Ruleset.qualified);
  let g2 = Stage.generation st in
  check_bool "direct add moves it" true (g2 <> g1);
  check_bool "failed removal" false (Ruleset.remove_rule rs 99);
  check_int "failed removal leaves it" g2 (Stage.generation st);
  check_bool "direct removal" true (Ruleset.remove_rule rs id);
  check_bool "direct removal moves it" true (Stage.generation st <> g2);
  check_bool "classes agree with classify" true
    (List.equal Class_name.equal (Stage.classes st d) (Metadata.classes (Stage.classify st d)))

(* ------------------------------------------------------------------ *)
(* Built-ins *)

let test_storage_stage () =
  let st = Builtin.storage () in
  ignore
    (get_ok
       (Stage.Api.create_stage_rule st ~ruleset:"ops"
          ~classifier:[ ("operation", Classifier.eq_str "READ") ]
          ~class_name:"READ"
          ~metadata_fields:[ "operation"; "msg_size"; "tenant" ]));
  ignore
    (get_ok
       (Stage.Api.create_stage_rule st ~ruleset:"ops"
          ~classifier:[ ("operation", Classifier.eq_str "WRITE") ]
          ~class_name:"WRITE"
          ~metadata_fields:[ "operation"; "msg_size"; "tenant" ]));
  let md = Stage.classify st (Builtin.storage_descriptor ~op:`Read ~tenant:3 ~size:65536) in
  check_bool "READ class" true
    (List.mem "storage.ops.READ" (class_strings md));
  check_bool "tenant" true (Metadata.find_int "tenant" md = Some 3L);
  check_bool "op size" true (Metadata.find_int "msg_size" md = Some 65536L);
  check_bool "operation str" true (Metadata.find_str "operation" md = Some "READ")

let test_flow_stage_five_tuple () =
  let st = Builtin.flow () in
  ignore
    (get_ok
       (Stage.Api.create_stage_rule st ~ruleset:"r0"
          ~classifier:[ ("dst_port", Classifier.eq_int 80) ]
          ~class_name:"HTTP" ~metadata_fields:[]));
  let ft =
    Eden_base.Addr.five_tuple
      ~src:(Eden_base.Addr.endpoint 1 1234)
      ~dst:(Eden_base.Addr.endpoint 2 80)
      ~proto:Eden_base.Addr.Tcp
  in
  let md = Stage.classify st (Builtin.flow_descriptor ft) in
  check_bool "HTTP class" true (List.mem "enclave.r0.HTTP" (class_strings md));
  let ft2 =
    Eden_base.Addr.five_tuple
      ~src:(Eden_base.Addr.endpoint 1 1234)
      ~dst:(Eden_base.Addr.endpoint 2 443)
      ~proto:Eden_base.Addr.Tcp
  in
  let md2 = Stage.classify st (Builtin.flow_descriptor ft2) in
  check_int "no class" 0 (List.length (Metadata.classes md2))

(* Property: classification is deterministic. *)
let prop_classification_deterministic =
  QCheck.Test.make ~name:"classification is deterministic" ~count:200
    QCheck.(pair (pair bool (string_of_size (Gen.int_range 1 5))) small_int)
    (fun ((is_get, key), size) ->
      let st = memcached_with_fig6_rules () in
      let d =
        Builtin.memcached_descriptor
          ~op:(if is_get then `Get else `Put)
          ~key ~size:(abs size)
      in
      let md1 = Stage.classify ~msg_id:7L st d in
      let md2 = Stage.classify ~msg_id:7L st d in
      class_strings md1 = class_strings md2)

let qcheck t = QCheck_alcotest.to_alcotest t

let () =
  Alcotest.run "eden_stage"
    [
      ( "classifier",
        [
          Alcotest.test_case "exact" `Quick test_classifier_exact;
          Alcotest.test_case "wildcards" `Quick test_classifier_wildcards;
          Alcotest.test_case "rich patterns" `Quick test_classifier_rich_patterns;
          Alcotest.test_case "fields referenced" `Quick test_classifier_fields_referenced;
        ] );
      ( "fig6",
        [
          Alcotest.test_case "GET a" `Quick test_fig6_get_a;
          Alcotest.test_case "PUT a" `Quick test_fig6_put_a;
          Alcotest.test_case "PUT other" `Quick test_fig6_put_other_key;
          Alcotest.test_case "metadata attached" `Quick test_classify_attaches_metadata;
          Alcotest.test_case "msg ids unique" `Quick test_msg_ids_unique;
          Alcotest.test_case "first match wins" `Quick test_first_match_wins;
        ] );
      ( "api",
        [
          Alcotest.test_case "get_stage_info" `Quick test_get_stage_info;
          Alcotest.test_case "classifier validation" `Quick
            test_create_rule_validates_classifier_fields;
          Alcotest.test_case "metadata validation" `Quick
            test_create_rule_validates_metadata_fields;
          Alcotest.test_case "remove rule" `Quick test_remove_rule;
          Alcotest.test_case "class name validation" `Quick
            test_create_rule_validates_class_name;
          Alcotest.test_case "generation and classes" `Quick test_generation_and_classes;
        ] );
      ( "builtin",
        [
          Alcotest.test_case "storage" `Quick test_storage_stage;
          Alcotest.test_case "flow five-tuple" `Quick test_flow_stage_five_tuple;
        ] );
      ("properties", [ qcheck prop_classification_deterministic ]);
    ]
