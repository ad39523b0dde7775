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
  (match
     Ruleset.add_rule rs ~classifier:[ ("tenant", Classifier.Any) ] ~class_name:"Z"
       ~metadata_fields:[]
   with
  | _ -> Alcotest.fail "undeclared classifier field accepted"
  | exception Invalid_argument _ -> ());
  check_int "refused classifier leaves it" g1 (Stage.generation st);
  check_int "refused rules not added" 1 (List.length (Ruleset.rules rs));
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

(* ------------------------------------------------------------------ *)
(* Compiled rule-sets against the reference [Classifier.matches] *)

module G = QCheck.Gen

let diff_fields = [ "a"; "b"; "c" ]

let gen_value =
  G.oneof
    [
      G.map Metadata.int (G.int_range (-1) 3);
      G.map Metadata.str (G.oneofl [ ""; "x"; "xy"; "xyz"; "y" ]);
    ]

let gen_pattern =
  G.frequency
    [
      (1, G.return Classifier.Any);
      (1, G.return Classifier.Present);
      (3, G.map (fun v -> Classifier.Eq v) gen_value);
      (2, G.map (fun v -> Classifier.Ne v) gen_value);
      (2, G.map (fun vs -> Classifier.In_set vs) (G.list_size (G.int_bound 3) gen_value));
      ( 2,
        G.map
          (fun (lo, hi) -> Classifier.Range (Int64.of_int lo, Int64.of_int hi))
          (G.pair (G.int_range (-1) 3) (G.int_range (-1) 3)) );
      (2, G.map (fun p -> Classifier.Prefix p) (G.oneofl [ ""; "x"; "xy"; "y" ]));
    ]

(* Up to three tests over the declared fields; [] is the empty classifier. *)
let gen_classifier = G.list_size (G.int_bound 3) (G.pair (G.oneofl diff_fields) gen_pattern)

(* Any subset of the declared fields plus an undeclared one. *)
let gen_descriptor =
  G.map Classifier.Descriptor.of_list
    (G.list_size (G.int_bound 4) (G.pair (G.oneofl ("z" :: diff_fields)) gen_value))

(* [Remove i] picks a rule added so far by index in [build_ruleset], by
   rule id (possibly absent) in the stage property. *)
type op = Add of Classifier.t | Remove of int

let gen_ops =
  G.list_size (G.int_range 1 12)
    (G.frequency
       [ (4, G.map (fun c -> Add c) gen_classifier); (1, G.map (fun i -> Remove i) G.nat) ])

let print_ops ops =
  String.concat "; "
    (List.map
       (function
         | Add c -> "add " ^ Classifier.to_string c
         | Remove i -> Printf.sprintf "remove #%d" i)
       ops)

let print_descriptor d = Format.asprintf "%a" Classifier.Descriptor.pp d

let build_ruleset ops =
  let rs =
    Ruleset.create ~stage:"s" ~classifier_fields:diff_fields ~metadata_fields:[]
      ~generation:(ref 0) "r"
  in
  let added = ref [] in
  List.iteri
    (fun k -> function
      | Add classifier ->
        let class_name = Printf.sprintf "C%d" k in
        let r = Ruleset.add_rule rs ~classifier ~class_name ~metadata_fields:[] in
        added := !added @ [ r.Ruleset.rule_id ]
      | Remove i -> (
        match !added with
        | [] -> ()
        | ids -> ignore (Ruleset.remove_rule rs (List.nth ids (i mod List.length ids)))))
    ops;
  rs

let reference rs d =
  List.find_opt (fun r -> Classifier.matches r.Ruleset.classifier d) (Ruleset.rules rs)

let same_rule a b =
  match (a, b) with
  | None, None -> true
  | Some x, Some y -> x.Ruleset.rule_id = y.Ruleset.rule_id
  | _ -> false

let prop_compiled_first_match =
  QCheck.Test.make ~name:"compiled first match = reference first match" ~count:1000
    (QCheck.make
       ~print:(fun (ops, ds) ->
         print_ops ops ^ " on " ^ String.concat ", " (List.map print_descriptor ds))
       (G.pair gen_ops (G.list_size (G.int_range 1 8) gen_descriptor)))
    (fun (ops, ds) ->
      let rs = build_ruleset ops in
      List.for_all (fun d -> same_rule (Ruleset.classify rs d) (reference rs d)) ds)

(* The stage entry points run the same compiled form. *)
let prop_stage_classes_reference =
  QCheck.Test.make ~name:"stage classes = reference per rule-set" ~count:300
    (QCheck.make
       ~print:(fun ((o1, o2), d) ->
         print_ops o1 ^ " | " ^ print_ops o2 ^ " on " ^ print_descriptor d)
       (G.pair (G.pair gen_ops gen_ops) gen_descriptor))
    (fun ((o1, o2), d) ->
      let st = Stage.create ~name:"s" ~classifier_fields:diff_fields ~metadata_fields:[] in
      let install ruleset ops =
        List.iteri
          (fun k -> function
            | Add classifier ->
              ignore
                (get_ok
                   (Stage.Api.create_stage_rule st ~ruleset ~classifier
                      ~class_name:(Printf.sprintf "C%d" k) ~metadata_fields:[]))
            | Remove i -> ignore (Stage.Api.remove_stage_rule st ~ruleset ~rule_id:i))
          ops
      in
      install "r1" o1;
      install "r2" o2;
      let expected =
        List.filter_map
          (fun rs -> Option.map (fun r -> r.Ruleset.qualified) (reference rs d))
          (Stage.rulesets st)
      in
      List.equal Class_name.equal expected (Stage.classes st d)
      && List.equal Class_name.equal expected
           (Metadata.classes (Stage.classify ~msg_id:0L st d)))

(* A reused row: each classification must see only its own input, so a
   field that was present and is now absent, or was an int and is now a
   string (or the reverse), must not match through a stale cell.  One
   rule-set per pattern kind, so each result shows every test. *)
let per_kind_rulesets st field ~int ~str =
  List.iteri
    (fun i pattern ->
      ignore
        (get_ok
           (Stage.Api.create_stage_rule st ~ruleset:(Printf.sprintf "k%d" i)
              ~classifier:[ (field, pattern) ] ~class_name:"HIT" ~metadata_fields:[])))
    Classifier.
      [
        Present;
        Eq (Metadata.int int);
        Eq (Metadata.str str);
        Ne (Metadata.int int);
        Ne (Metadata.str str);
        In_set [ Metadata.int int; Metadata.str str ];
        Range (Int64.of_int (int - 1), Int64.of_int (int + 1));
        Prefix (String.sub str 0 1);
      ]

let reference_classes st d =
  List.filter_map
    (fun rs -> Option.map (fun r -> r.Ruleset.qualified) (reference rs d))
    (Stage.rulesets st)

let test_reused_row () =
  let st = Stage.create ~name:"s" ~classifier_fields:diff_fields ~metadata_fields:[] in
  per_kind_rulesets st "a" ~int:1 ~str:"xy";
  let d l = Classifier.Descriptor.of_list l in
  let i v = Metadata.int v and s v = Metadata.str v in
  List.iteri
    (fun k d ->
      let want = reference_classes st d in
      check_bool (Printf.sprintf "classes, input %d" k) true
        (List.equal Class_name.equal want (Stage.classes st d));
      check_bool (Printf.sprintf "classify, input %d" k) true
        (List.equal Class_name.equal want
           (Metadata.classes (Stage.classify ~msg_id:0L st d))))
    [
      d [ ("a", i 1) ];
      d [];
      d [ ("a", s "xy"); ("b", i 1) ];
      d [ ("b", i 1) ];
      d [ ("a", i 1) ];
      d [ ("a", s "1") ];
      d [ ("a", s "xz") ];
      d [ ("a", i 2) ];
      d [ ("a", s "xy") ];
      d [ ("a", i 7) ];
      d [ ("c", s "xy") ];
    ];
  (* The enclave's flow row, filled from tuples and, in between, from
     descriptors over the flow fields with a port absent or a string and
     the protocol an int. *)
  let fl = Builtin.flow () in
  per_kind_rulesets fl Builtin.Field.src_port ~int:80 ~str:"80";
  per_kind_rulesets fl Builtin.Field.proto ~int:6 ~str:"tcp";
  let fields = Array.of_list (Stage.info fl).Stage.classifier_fields in
  let row = Builtin.flow_row () in
  let tuple sp proto =
    Eden_base.Addr.five_tuple ~src:(Eden_base.Addr.endpoint 1 sp)
      ~dst:(Eden_base.Addr.endpoint 2 9) ~proto
  in
  let of_tuple ft =
    Builtin.fill_flow_row row ft;
    Builtin.flow_descriptor ft
  and of_descriptor l =
    let d = d l in
    Classifier.fill_row row fields d;
    d
  in
  List.iteri
    (fun k fill ->
      let d = fill () in
      check_bool (Printf.sprintf "flow row, input %d" k) true
        (List.equal Class_name.equal (reference_classes fl d) (Stage.classes_of_row fl row)))
    [
      (fun () -> of_tuple (tuple 80 Eden_base.Addr.Tcp));
      (fun () -> of_descriptor [ (Builtin.Field.dst_port, i 9) ]);
      (fun () -> of_tuple (tuple 81 Eden_base.Addr.Udp));
      (fun () ->
        of_descriptor [ (Builtin.Field.src_port, s "80"); (Builtin.Field.proto, i 6) ]);
      (fun () -> of_tuple (tuple 79 Eden_base.Addr.Tcp));
      (fun () -> of_descriptor [ (Builtin.Field.proto, s "tcp") ]);
      (fun () -> of_tuple (tuple 443 Eden_base.Addr.Udp));
    ];
  (* The row's integers are written unchecked once the field index has
     passed its bounds check. *)
  List.iter
    (fun (name, set) ->
      check_bool name true
        (match set () with () -> false | exception Invalid_argument _ -> true))
    [
      ("set_int past the end", fun () -> Classifier.set_int row 5 1);
      ("set_int below 0", fun () -> Classifier.set_int row (-1) 1);
      ("set_str past the end", fun () -> Classifier.set_str row 5 "x");
    ]

(* [Stage.classify] builds its metadata in one record; the fold it
   replaced, one record per class and per field, is the reference: same
   message id, same field bindings, same class order. *)
let fold_classify ~msg_id st d =
  List.fold_left
    (fun md rs ->
      match Ruleset.classify rs d with
      | None -> md
      | Some rule ->
        let md = Metadata.add_class rule.Ruleset.qualified md in
        List.fold_left
          (fun md field ->
            match Classifier.Descriptor.find field d with
            | Some v -> Metadata.add field v md
            | None -> md)
          md rule.Ruleset.metadata_fields)
    (Metadata.with_msg_id msg_id Metadata.empty)
    (Stage.rulesets st)

let same_metadata a b =
  Metadata.msg_id a = Metadata.msg_id b
  && List.equal Class_name.equal (Metadata.classes a) (Metadata.classes b)
  && List.equal
       (fun (f, v) (g, w) -> String.equal f g && Metadata.equal_value v w)
       (Metadata.fields a) (Metadata.fields b)

let md_fields = [ "a"; "b"; "z" ]

let prop_classify_one_record =
  let gen_rule = G.pair gen_classifier (G.list_size (G.int_bound 3) (G.oneofl md_fields)) in
  let gen_rulesets = G.list_size (G.int_range 1 3) (G.list_size (G.int_range 1 5) gen_rule) in
  let print (rulesets, ds) =
    String.concat " | "
      (List.map
         (fun rules ->
           String.concat "; "
             (List.map
                (fun (c, fs) -> Classifier.to_string c ^ " -> {" ^ String.concat "," fs ^ "}")
                rules))
         rulesets)
    ^ " on "
    ^ String.concat ", " (List.map print_descriptor ds)
  in
  QCheck.Test.make ~name:"classify builds what the per-field fold built" ~count:500
    (QCheck.make ~print (G.pair gen_rulesets (G.list_size (G.int_range 1 6) gen_descriptor)))
    (fun (rulesets, ds) ->
      let st =
        Stage.create ~name:"s" ~classifier_fields:diff_fields ~metadata_fields:md_fields
      in
      List.iteri
        (fun i rules ->
          List.iteri
            (fun k (classifier, metadata_fields) ->
              ignore
                (get_ok
                   (Stage.Api.create_stage_rule st ~ruleset:(Printf.sprintf "r%d" i) ~classifier
                      ~class_name:(Printf.sprintf "C%d" k) ~metadata_fields)))
            rules)
        rulesets;
      List.for_all
        (fun d ->
          same_metadata (Stage.classify ~msg_id:9L st d) (fold_classify ~msg_id:9L st d)
          &&
          let md = Stage.classify st d in
          same_metadata md (fold_classify ~msg_id:(Option.get (Metadata.msg_id md)) st d))
        ds)

(* The constructor on its own, classes repeating included: a class is
   kept at its first (oldest) occurrence, as [add_class] keeps it. *)
let prop_classified_is_the_fold =
  let cls =
    G.map (fun n -> Class_name.v ~stage:"s" ~ruleset:"r" ~name:n) (G.oneofl [ "A"; "B"; "C" ])
  in
  let entry = G.pair cls (G.list_size (G.int_bound 3) (G.oneofl ("x" :: md_fields))) in
  QCheck.Test.make ~name:"Metadata.classified = its documented fold" ~count:500
    (QCheck.make
       ~print:(fun (es, d) ->
         String.concat "; "
           (List.map
              (fun (c, fs) -> Class_name.to_string c ^ " {" ^ String.concat "," fs ^ "}")
              es)
         ^ " on " ^ print_descriptor d)
       (G.pair (G.list_size (G.int_bound 5) entry) gen_descriptor))
    (fun (entries, d) ->
      let classes = List.rev_map fst entries and names = List.rev_map snd entries in
      let find = Classifier.Descriptor.find in
      let fold =
        List.fold_left2
          (fun md c fs ->
            List.fold_left
              (fun md f -> match find f d with Some v -> Metadata.add f v md | None -> md)
              (Metadata.add_class c md) fs)
          (Metadata.with_msg_id 4L Metadata.empty)
          (List.rev classes) (List.rev names)
      in
      same_metadata (Metadata.classified ~msg_id:4L classes names find d) fold)

(* The enclave classifies a new flow from its five-tuple, through one row
   it refills; that must agree with classifying [Builtin.flow_descriptor]. *)
let prop_flow_row_classes =
  let gen_tuple =
    G.map
      (fun ((sh, sp), (dh, dp), udp) ->
        Eden_base.Addr.five_tuple
          ~src:(Eden_base.Addr.endpoint sh sp)
          ~dst:(Eden_base.Addr.endpoint dh dp)
          ~proto:(if udp then Eden_base.Addr.Udp else Eden_base.Addr.Tcp))
      (G.triple
         (G.pair (G.int_bound 5) (G.int_bound 65_535))
         (G.pair (G.int_bound 5) (G.int_bound 65_535))
         G.bool)
  in
  let buckets field n =
    let width = (65_536 + n - 1) / n in
    List.init n (fun b ->
        let lo = b * width in
        ( [ (field, Classifier.Range (Int64.of_int lo, Int64.of_int (lo + width - 1))) ],
          Printf.sprintf "B%d" b ))
  in
  QCheck.Test.make ~name:"flow classes from the five-tuple = from its descriptor" ~count:300
    (QCheck.make
       ~print:(fun ((ns, nd, hosts, proto), fts) ->
         Printf.sprintf "sport %d dport %d hosts [%s] proto %s on %s" ns nd
           (String.concat "," (List.map string_of_int hosts))
           proto
           (String.concat ", "
              (List.map (Format.asprintf "%a" Eden_base.Addr.pp_five_tuple) fts)))
       (G.pair
          (G.quad (G.int_range 1 32) (G.int_range 1 8)
             (G.list_size (G.int_bound 3) (G.int_bound 5))
             (G.oneofl [ "tcp"; "udp" ]))
          (G.list_size (G.int_range 1 20) gen_tuple)))
    (fun ((ns, nd, hosts, proto), fts) ->
      let st = Builtin.flow () in
      let program ruleset rules =
        List.iter
          (fun (classifier, class_name) ->
            ignore
              (get_ok
                 (Stage.Api.create_stage_rule st ~ruleset ~classifier ~class_name
                    ~metadata_fields:[])))
          rules
      in
      program "sport" (buckets Builtin.Field.src_port ns);
      program "dport" (buckets Builtin.Field.dst_port nd);
      program "hosts"
        (List.mapi
           (fun i h ->
             ( [
                 (Builtin.Field.src_host, Classifier.eq_int h);
                 ( Builtin.Field.dst_host,
                   Classifier.In_set [ Metadata.int h; Metadata.int (h + 1) ] );
               ],
               Printf.sprintf "H%d" i ))
           hosts);
      program "proto" [ ([ (Builtin.Field.proto, Classifier.eq_str proto) ], "P") ];
      let row = Builtin.flow_row () in
      List.for_all
        (fun ft ->
          Builtin.fill_flow_row row ft;
          List.equal Class_name.equal
            (Stage.classes st (Builtin.flow_descriptor ft))
            (Stage.classes_of_row st row))
        fts)

(* [Class_name] compares by components without polymorphic compare and
   hashes once; its order must stay structural order on the triple. *)
let prop_class_name_order =
  let component = G.oneofl [ "a"; "b"; "ab"; "B"; "a0" ] in
  let name = G.triple component component component in
  QCheck.Test.make ~name:"class name compare, equal and hash" ~count:2000
    (QCheck.make
       ~print:(fun ((a, b, c), (d, e, f)) -> Printf.sprintf "%s.%s.%s vs %s.%s.%s" a b c d e f)
       (G.pair name name))
    (fun (((s1, r1, n1) as x), ((s2, r2, n2) as y)) ->
      let a = Class_name.v ~stage:s1 ~ruleset:r1 ~name:n1 in
      let b = Class_name.v ~stage:s2 ~ruleset:r2 ~name:n2 in
      let sign v = Int.compare v 0 in
      let c = Class_name.compare a b in
      sign c = sign (Stdlib.compare x y)
      && Class_name.equal a b = (c = 0)
      && ((not (Class_name.equal a b)) || Class_name.hash a = Class_name.hash b)
      && Class_name.equal a (Option.get (Class_name.of_string (Class_name.to_string a))))

let qcheck = Qcheck_seed.qcheck

let () =
  Qcheck_seed.announce ();
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
          qcheck prop_classify_one_record;
          qcheck prop_classified_is_the_fold;
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
      ( "properties",
        [
          qcheck prop_classification_deterministic;
          qcheck prop_compiled_first_match;
          qcheck prop_stage_classes_reference;
          Alcotest.test_case "reused row" `Quick test_reused_row;
          qcheck prop_flow_row_classes;
          qcheck prop_class_name_order;
        ] );
    ]
