(* Unit and property tests for eden_base. *)

open Eden_base

let check_float = Alcotest.(check (float 1e-9))
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Time *)

let test_time_units () =
  Alcotest.(check int64) "us" 1_000L (Time.us 1);
  Alcotest.(check int64) "ms" 1_000_000L (Time.ms 1);
  Alcotest.(check int64) "sec" 1_000_000_000L (Time.sec 1.0);
  Alcotest.(check int64) "add" 1_500L Time.(add (us 1) (ns 500));
  Alcotest.(check int64) "mul" 3_000L Time.(mul (us 1) 3);
  check_float "to_us" 1.5 (Time.to_us 1_500L);
  check_float "to_sec" 2e-6 (Time.to_sec 2_000L)

let test_time_ordering () =
  check_bool "lt" true Time.(us 1 < us 2);
  check_bool "le" true Time.(us 2 <= us 2);
  check_bool "gt" false Time.(us 1 > us 2);
  Alcotest.(check int64) "max" (Time.us 2) (Time.max (Time.us 1) (Time.us 2))

(* [max]/[min] agree with Stdlib's on every pair, extremes and ties
   included. *)
let prop_time_max_min =
  let edge = QCheck.Gen.oneofl [ Int64.min_int; -1L; 0L; 1L; Int64.max_int ] in
  let gen =
    QCheck.Gen.(
      frequency [ (1, edge); (2, map Int64.of_int (int_range (-3) 3)); (2, ui64) ])
  in
  QCheck.Test.make ~count:1000 ~name:"time max/min agree with Stdlib"
    (QCheck.make ~print:QCheck.Print.(pair int64 int64) (QCheck.Gen.pair gen gen))
    (fun (a, b) -> Time.max a b = Stdlib.max a b && Time.min a b = Stdlib.min a b)

let test_time_pp () =
  let s t = Format.asprintf "%a" Time.pp t in
  Alcotest.(check string) "ns" "12ns" (s (Time.ns 12));
  Alcotest.(check string) "us" "1.500us" (s (Time.ns 1500));
  Alcotest.(check string) "ms" "2.000ms" (s (Time.ms 2));
  Alcotest.(check string) "s" "1.000s" (s (Time.sec 1.0))

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_determinism () =
  let a = Rng.create 42L and b = Rng.create 42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_split_independence () =
  let a = Rng.create 42L in
  let c = Rng.split a in
  let x = Rng.int64 a and y = Rng.int64 c in
  check_bool "split streams differ" true (not (Int64.equal x y))

let test_rng_int_bounds () =
  let rng = Rng.create 7L in
  for _ = 1 to 1000 do
    let v = Rng.int rng 10 in
    check_bool "in range" true (v >= 0 && v < 10)
  done

let test_rng_weighted_index () =
  let rng = Rng.create 9L in
  let counts = Array.make 2 0 in
  let w = [| 10.0; 1.0 |] in
  for _ = 1 to 11_000 do
    let i = Rng.weighted_index rng w in
    counts.(i) <- counts.(i) + 1
  done;
  (* Expect ~10000 vs ~1000; allow generous slack. *)
  check_bool "ratio respected" true (counts.(0) > 9 * counts.(1) / 2)

let test_rng_exponential_mean () =
  let rng = Rng.create 3L in
  let s = Stats.Summary.create () in
  for _ = 1 to 20_000 do
    Stats.Summary.add s (Rng.exponential rng 5.0)
  done;
  check_bool "mean near 5" true (abs_float (Stats.Summary.mean s -. 5.0) < 0.25)

(* The generator's stream is part of every experiment's result: a run is
   replayed from its seed alone, so a changed digest changes every
   seeded figure.  Each case draws 1000 values from a fresh generator
   and pins the MD5 of their exact printed forms (floats in hex).
   [int] cycles through small bounds and large ones, 2^61 + 1 among
   them, on which the rejection loop retries about one draw in four. *)
let rng_golden_seeds = [ 0L; 42L; -0x3C6EF372FE94F82BL ]

let rng_draws seed draw =
  let rng = Rng.create seed in
  let b = Buffer.create 16_384 in
  for i = 0 to 999 do
    Buffer.add_string b (draw rng i);
    Buffer.add_char b ' '
  done;
  Digest.to_hex (Digest.string (Buffer.contents b))

let int_bounds = [| 1; 2; 3; 10; 1000; 1 lsl 30; (1 lsl 61) + 1; max_int; 7919 |]

let rng_golden_cases =
  [
    ("int64", fun rng _ -> Int64.to_string (Rng.int64 rng));
    ( "int",
      fun rng i -> string_of_int (Rng.int rng int_bounds.(i mod Array.length int_bounds)) );
    ("float", fun rng i -> Printf.sprintf "%h" (Rng.float rng (float_of_int (1 + i))));
    ("bool", fun rng _ -> string_of_bool (Rng.bool rng));
    ("bits", fun rng _ -> string_of_int (Rng.bits rng));
    ("exponential", fun rng _ -> Printf.sprintf "%h" (Rng.exponential rng 5.0));
    ( "split",
      fun rng i ->
        let child = Rng.split rng in
        Printf.sprintf "%Ld/%d" (Rng.int64 child) (Rng.int child (1 + i)) );
    ("stream_seed", fun rng i -> Int64.to_string (Rng.stream_seed (Rng.int64 rng) i));
  ]

(* Per case, one digest per seed of [rng_golden_seeds]. *)
let rng_golden =
  [
    ( "int64",
      [
        "b3b64719e11b8ffa0f48c26fdb80fb61";
        "14592a6b13851b3d808c3f687a3c8f74";
        "e4fc4ece43cd5e21ea4009ba61cba055";
      ] );
    ( "int",
      [
        "ea7e12186b179534b356c9b7116e506d";
        "666039d089cd5230d35b378bc184e4a0";
        "6c5bf07f54ba4a1c7b5e8b781a0c9656";
      ] );
    ( "float",
      [
        "3d73e766a5ee352ac653b58dd2551aa7";
        "df96716c277c9cc956ebc309a5a69e3c";
        "59ca8b972d51d187185435cb083a9f74";
      ] );
    ( "bool",
      [
        "a0408a7b992c5be291eb5be0bceb3de5";
        "f3326e373e4491f8de6e369b051096c2";
        "3d25133cdf5455770869aa2cdcdd368b";
      ] );
    ( "bits",
      [
        "59dbac81e9bc8daa444450bef8a170ce";
        "70f4360e0f3afeb6bfdec9013be2f573";
        "e31fb14a482d32c94279ca6d5e48dd2e";
      ] );
    ( "exponential",
      [
        "7afc3eaea4f3f2fb99b7b1de8e85eaba";
        "38a6cb33a6925935ee11187acb7ebc06";
        "8537c2c9271630c26e6acf0a2d1dd394";
      ] );
    ( "split",
      [
        "404f3633e8790e0a41ac48257661d174";
        "f8cb387857dd8e1d1d495ada23c5f986";
        "05337839fc2189ab2746c4378b68e0f6";
      ] );
    ( "stream_seed",
      [
        "1a7e85bbc0aaf91ee1030e7479a05235";
        "a921cc6d3c6b5e1d74ecb0d7cc0196dd";
        "5ca5e08ed6be2332a59837a13b9efa8e";
      ] );
  ]

let test_rng_golden () =
  List.iter
    (fun (name, draw) ->
      List.iter2
        (fun seed expected ->
          Alcotest.(check string)
            (Printf.sprintf "%s, seed %Ld" name seed)
            expected (rng_draws seed draw))
        rng_golden_seeds (List.assoc name rng_golden))
    rng_golden_cases

(* A draw keeps its state and arithmetic unboxed: 10k draws of each of
   the per-packet entry points allocate nothing, in the dev profile
   (cross-module calls not inlined) as in release. *)
let test_rng_no_allocation () =
  let rng = Rng.create 5L in
  let words draw =
    for _ = 1 to 100 do
      draw ()
    done;
    let before = Gc.minor_words () in
    for _ = 1 to 10_000 do
      draw ()
    done;
    Gc.minor_words () -. before
  in
  let sink = ref 0 in
  check_float "Rng.int" 0.0 (words (fun () -> sink := !sink + Rng.int rng 201));
  check_float "Rng.int, large bound" 0.0
    (words (fun () -> sink := !sink + Rng.int rng max_int));
  check_float "Rng.bits" 0.0 (words (fun () -> sink := !sink + Rng.bits rng));
  check_float "Rng.bool" 0.0 (words (fun () -> if Rng.bool rng then incr sink))

let prop_rng_int_uniformish =
  QCheck.Test.make ~name:"rng int stays in bounds" ~count:500
    QCheck.(pair int64 (int_range 1 1000))
    (fun (seed, bound) ->
      let rng = Rng.create seed in
      let v = Rng.int rng bound in
      v >= 0 && v < bound)

(* ------------------------------------------------------------------ *)
(* Addr *)

(* Route labels in the VLAN id range are shared options, so the
   enclave's label write-back allocates nothing; others are fresh. *)
let test_packet_label () =
  check_bool "shared" true (Packet.label 17 == Packet.label 17);
  check_bool "top of range shared" true (Packet.label 4095 == Packet.label 4095);
  List.iter
    (fun l -> check_bool (Printf.sprintf "label %d" l) true (Packet.label l = Some l))
    [ 0; 17; 4095; 4096; -1; max_int ]

let test_five_tuple_reverse () =
  let t =
    Addr.five_tuple
      ~src:(Addr.endpoint 1 1000)
      ~dst:(Addr.endpoint 2 80)
      ~proto:Addr.Tcp
  in
  let r = Addr.reverse t in
  check_int "src host" 2 r.Addr.src.Addr.host;
  check_int "dst port" 1000 r.Addr.dst.Addr.port;
  check_bool "double reverse" true (Addr.equal_five_tuple t (Addr.reverse r))

(* [compare_five_tuple] compares ints field by field; its sign must be
   structural comparison's, so [Flow_map] iterates in the same order. *)
let prop_five_tuple_compare =
  let field = QCheck.Gen.(oneof [ int_range 0 3; int ]) in
  let tuple =
    QCheck.Gen.(
      map
        (fun ((sh, sp), (dh, dp), udp) ->
          Addr.five_tuple ~src:(Addr.endpoint sh sp) ~dst:(Addr.endpoint dh dp)
            ~proto:(if udp then Addr.Udp else Addr.Tcp))
        (triple (pair field field) (pair field field) bool))
  in
  QCheck.Test.make ~name:"five-tuple compare agrees with Stdlib.compare" ~count:2000
    (QCheck.make
       ~print:(fun (a, b) ->
         Format.asprintf "%a vs %a" Addr.pp_five_tuple a Addr.pp_five_tuple b)
       QCheck.Gen.(
         tuple >>= fun a ->
         (* Half the pairs differ from [a] in one field only. *)
         let one_off =
           map2
             (fun k v ->
               match k with
               | 0 -> { a with Addr.src = { a.Addr.src with Addr.host = v } }
               | 1 -> { a with Addr.src = { a.Addr.src with Addr.port = v } }
               | 2 -> { a with Addr.dst = { a.Addr.dst with Addr.host = v } }
               | 3 -> { a with Addr.dst = { a.Addr.dst with Addr.port = v } }
               | _ ->
                 let flip = if a.Addr.proto = Addr.Tcp then Addr.Udp else Addr.Tcp in
                 { a with Addr.proto = flip })
             (int_bound 4) field
         in
         map (fun b -> (a, b)) (oneof [ tuple; one_off ])))
    (fun (a, b) ->
      let sign x = Int.compare x 0 in
      let c = Addr.compare_five_tuple a b in
      sign c = sign (Stdlib.compare a b)
      && Addr.equal_five_tuple a b = (c = 0)
      && Addr.compare_five_tuple a a = 0)

let test_five_tuple_hash_deterministic () =
  let t =
    Addr.five_tuple
      ~src:(Addr.endpoint 1 1000)
      ~dst:(Addr.endpoint 2 80)
      ~proto:Addr.Tcp
  in
  check_int "same hash" (Addr.hash_five_tuple t) (Addr.hash_five_tuple t);
  let t' = Addr.five_tuple ~src:(Addr.endpoint 1 1001) ~dst:t.Addr.dst ~proto:Addr.Tcp in
  check_bool "different flows usually differ" true
    (Addr.hash_five_tuple t <> Addr.hash_five_tuple t')

(* ------------------------------------------------------------------ *)
(* Class names *)

let test_class_name_roundtrip () =
  let c = Class_name.v ~stage:"memcached" ~ruleset:"r1" ~name:"GET" in
  Alcotest.(check string) "to_string" "memcached.r1.GET" (Class_name.to_string c);
  match Class_name.of_string "memcached.r1.GET" with
  | Some c' -> check_bool "roundtrip" true (Class_name.equal c c')
  | None -> Alcotest.fail "parse failed"

let test_class_name_invalid () =
  check_bool "two parts" true (Class_name.of_string "a.b" = None);
  check_bool "empty part" true (Class_name.of_string "a..c" = None);
  check_bool "four parts" true (Class_name.of_string "a.b.c.d" = None)

let test_pattern_matching () =
  let c = Class_name.v ~stage:"memcached" ~ruleset:"r1" ~name:"GET" in
  let p s = Option.get (Class_name.Pattern.of_string s) in
  check_bool "exact" true (Class_name.Pattern.matches (p "memcached.r1.GET") c);
  check_bool "wild name" true (Class_name.Pattern.matches (p "memcached.r1.*") c);
  check_bool "wild all" true (Class_name.Pattern.matches (p "*.*.*") c);
  check_bool "mismatch" false (Class_name.Pattern.matches (p "memcached.r1.PUT") c);
  check_int "specificity" 2 (Class_name.Pattern.specificity (p "memcached.r1.*"))

(* ------------------------------------------------------------------ *)
(* Metadata *)

let test_metadata_fields () =
  let m =
    Metadata.empty
    |> Metadata.with_msg_id 42L
    |> Metadata.add Metadata.Field.msg_type (Metadata.str "GET")
    |> Metadata.add Metadata.Field.msg_size (Metadata.int 1024)
  in
  check_bool "msg_id" true (Metadata.msg_id m = Some 42L);
  check_bool "msg_type" true (Metadata.find_str Metadata.Field.msg_type m = Some "GET");
  check_bool "msg_size" true (Metadata.find_int Metadata.Field.msg_size m = Some 1024L);
  check_bool "missing" true (Metadata.find "nope" m = None)

let test_metadata_classes () =
  let g = Class_name.v ~stage:"s" ~ruleset:"r" ~name:"G" in
  let p = Class_name.v ~stage:"s" ~ruleset:"r" ~name:"P" in
  let m = Metadata.empty |> Metadata.add_class g |> Metadata.add_class p in
  check_int "two classes" 2 (List.length (Metadata.classes m));
  let m2 = Metadata.add_class g m in
  check_int "dedup" 2 (List.length (Metadata.classes m2));
  check_bool "has" true (Metadata.has_class p m)

let test_metadata_union () =
  let a =
    Metadata.empty |> Metadata.with_msg_id 1L |> Metadata.add "x" (Metadata.int 1)
  in
  let b = Metadata.empty |> Metadata.add "x" (Metadata.int 2) in
  let u = Metadata.union a b in
  check_bool "b wins field" true (Metadata.find_int "x" u = Some 2L);
  check_bool "id kept" true (Metadata.msg_id u = Some 1L)

(* [merge_flow] is [union] with a left operand of classes and an id only,
   including classes on both sides and either side's id winning. *)
let test_metadata_merge_flow () =
  let c name = Class_name.v ~stage:"s" ~ruleset:"r" ~name in
  let flow = [ c "F"; c "G" ] in
  let left =
    List.fold_left
      (fun m k -> Metadata.add_class k m)
      (Metadata.with_msg_id 7L Metadata.empty)
      flow
  in
  let show m =
    ( Metadata.msg_id m,
      List.map Class_name.to_string (Metadata.classes m),
      List.map (fun (k, v) -> (k, Metadata.value_to_string v)) (Metadata.fields m) )
  in
  List.iter
    (fun b ->
      check_bool "same as union" true
        (show (Metadata.merge_flow ~flow_id:7 (Metadata.merge_order flow) b)
        = show (Metadata.union left b)))
    [
      Metadata.empty;
      Metadata.empty |> Metadata.add_class (c "P") |> Metadata.add_class (c "G");
      Metadata.empty |> Metadata.with_msg_id 3L |> Metadata.add "x" (Metadata.int 2)
      |> Metadata.add_class (c "F");
    ]

(* ------------------------------------------------------------------ *)
(* Stats *)

let test_summary_basics () =
  let s = Stats.Summary.create () in
  List.iter (Stats.Summary.add s) [ 1.0; 2.0; 3.0; 4.0 ];
  check_float "mean" 2.5 (Stats.Summary.mean s);
  check_float "min" 1.0 (Stats.Summary.min s);
  check_float "max" 4.0 (Stats.Summary.max s);
  check_bool "variance" true (abs_float (Stats.Summary.variance s -. 5.0 /. 3.0) < 1e-9)

let test_summary_merge () =
  let a = Stats.Summary.create () and b = Stats.Summary.create () in
  let all = Stats.Summary.create () in
  List.iter
    (fun x ->
      Stats.Summary.add all x;
      if x < 3.0 then Stats.Summary.add a x else Stats.Summary.add b x)
    [ 1.0; 2.0; 3.0; 4.0; 5.0 ];
  let m = Stats.Summary.merge a b in
  check_float "merged mean" (Stats.Summary.mean all) (Stats.Summary.mean m);
  check_bool "merged var" true
    (abs_float (Stats.Summary.variance all -. Stats.Summary.variance m) < 1e-9)

let test_percentiles () =
  let s = Stats.Samples.create () in
  for i = 1 to 100 do
    Stats.Samples.add s (float_of_int i)
  done;
  check_float "p50" 50.5 (Stats.Samples.percentile s 50.0);
  check_bool "p95" true (abs_float (Stats.Samples.percentile s 95.0 -. 95.05) < 0.01);
  check_float "p0" 1.0 (Stats.Samples.percentile s 0.0);
  check_float "p100" 100.0 (Stats.Samples.percentile s 100.0)

let test_samples_empty () =
  let s = Stats.Samples.create () in
  check_float "empty mean" 0.0 (Stats.Samples.mean s);
  check_float "empty pct" 0.0 (Stats.Samples.percentile s 95.0);
  check_float "empty ci" 0.0 (Stats.Samples.ci95 s)

let test_summary_merge_empty () =
  let a = Stats.Summary.create () and b = Stats.Summary.create () in
  Stats.Summary.add b 5.0;
  check_float "empty+b mean" 5.0 (Stats.Summary.mean (Stats.Summary.merge a b));
  check_float "b+empty mean" 5.0 (Stats.Summary.mean (Stats.Summary.merge b a));
  check_int "empty+empty count" 0 (Stats.Summary.count (Stats.Summary.merge a a))

let test_mbps () =
  check_float "1 MB in 1 s" 8.0
    (Stats.mbps ~bytes_transferred:1_000_000 ~duration:(Time.sec 1.0));
  check_float "zero duration" 0.0 (Stats.mbps ~bytes_transferred:100 ~duration:Time.zero)

let prop_percentile_monotone =
  QCheck.Test.make ~name:"percentiles are monotone" ~count:200
    QCheck.(list_of_size (Gen.int_range 2 50) (float_range (-1000.) 1000.))
    (fun xs ->
      let s = Stats.Samples.of_list xs in
      let p25 = Stats.Samples.percentile s 25.0 in
      let p50 = Stats.Samples.percentile s 50.0 in
      let p95 = Stats.Samples.percentile s 95.0 in
      p25 <= p50 && p50 <= p95)

(* ------------------------------------------------------------------ *)
(* Dist *)

let test_zipf_skew () =
  let z = Dist.Zipf.create ~n:100 ~alpha:1.0 in
  let rng = Rng.create 11L in
  let counts = Array.make 100 0 in
  for _ = 1 to 50_000 do
    let i = Dist.Zipf.sample z rng in
    counts.(i) <- counts.(i) + 1
  done;
  check_bool "rank 0 most popular" true (counts.(0) > counts.(10));
  check_bool "rank 0 beats rank 50" true (counts.(0) > counts.(50))

let test_empirical_cdf_quantiles () =
  let cdf = Dist.Empirical_cdf.create [ (0.0, 0.0); (10.0, 0.5); (100.0, 1.0) ] in
  check_float "q0" 0.0 (Dist.Empirical_cdf.quantile cdf 0.0);
  check_float "q0.5" 10.0 (Dist.Empirical_cdf.quantile cdf 0.5);
  check_float "q0.25" 5.0 (Dist.Empirical_cdf.quantile cdf 0.25);
  check_float "q1" 100.0 (Dist.Empirical_cdf.quantile cdf 1.0)

let test_empirical_cdf_invalid () =
  Alcotest.check_raises "empty" (Invalid_argument "Empirical_cdf.create: empty")
    (fun () -> ignore (Dist.Empirical_cdf.create []));
  check_bool "non-monotone rejected" true
    (try
       ignore (Dist.Empirical_cdf.create [ (0.0, 0.5); (1.0, 0.4); (2.0, 1.0) ]);
       false
     with Invalid_argument _ -> true)

let test_cdf_mean () =
  let cdf = Dist.Empirical_cdf.create [ (0.0, 0.0); (10.0, 1.0) ] in
  check_float "uniform mean" 5.0 (Dist.Empirical_cdf.mean cdf)

let test_pareto_bounds () =
  let p = Dist.Pareto.create ~xmin:1.0 ~xmax:1000.0 ~alpha:1.2 in
  let rng = Rng.create 5L in
  for _ = 1 to 2000 do
    let x = Dist.Pareto.sample p rng in
    check_bool "in bounds" true (x >= 1.0 && x <= 1000.0 +. 1e-6)
  done

let test_poisson_gap_positive () =
  let rng = Rng.create 17L in
  for _ = 1 to 100 do
    check_bool "gap >= 0" true Time.(Dist.poisson_gap rng ~rate_per_sec:1000.0 >= zero)
  done

(* The same equation over random class lists drawn from one small pool,
   so the flow's and the stage's classes overlap and the flow's repeat,
   with the message id on either side.  The flow's merged list is the
   result's tail, physically, and every class appears once. *)
let prop_merge_flow_is_union =
  let open QCheck.Gen in
  let pool =
    Array.init 5 (fun i -> Class_name.v ~stage:"s" ~ruleset:"r" ~name:(string_of_int i))
  in
  let classes = list_size (int_bound 6) (map (Array.get pool) (int_bound 4)) in
  let gen = quad classes classes (opt (int_bound 9)) (int_range 1 1000) in
  let print (flow, stage, id, flow_id) =
    let names cs = String.concat "," (List.map Class_name.to_string cs) in
    Printf.sprintf "flow [%s] stage [%s] id %s flow id %d" (names flow) (names stage)
      (match id with Some i -> string_of_int i | None -> "-")
      flow_id
  in
  QCheck.Test.make ~name:"merge_flow = union" ~count:1000 (QCheck.make ~print gen)
    (fun (flow, stage, id, flow_id) ->
      let add m c = Metadata.add_class c m in
      let b =
        List.fold_left add
          (match id with
          | Some i -> Metadata.with_msg_id (Int64.of_int i) Metadata.empty
          | None -> Metadata.empty)
          stage
        |> Metadata.add "x" (Metadata.int flow_id)
      in
      let left =
        List.fold_left add (Metadata.with_msg_id (Int64.of_int flow_id) Metadata.empty) flow
      in
      let merged = Metadata.merge_order flow in
      let got = Metadata.merge_flow ~flow_id merged b and want = Metadata.union left b in
      let rec drop n l = if n = 0 then l else drop (n - 1) (List.tl l) in
      let rev = Metadata.classes_rev got in
      (* [union]'s classes are [b]'s added to [left]'s one by one; the
         class functions share code, so [add_class] is checked too. *)
      let folded = List.fold_left add left (Metadata.classes b) in
      List.equal Class_name.equal merged (Metadata.classes_rev left)
      && Metadata.msg_id got = Metadata.msg_id want
      && List.equal Class_name.equal (Metadata.classes got) (Metadata.classes want)
      && List.equal Class_name.equal (Metadata.classes want) (Metadata.classes folded)
      && List.length (Metadata.classes folded)
         = List.length (List.sort_uniq Class_name.compare (flow @ stage))
      && Metadata.fields got = Metadata.fields want
      && drop (List.length rev - List.length merged) rev == merged)

let qcheck = Qcheck_seed.qcheck

let () =
  Qcheck_seed.announce ();
  Alcotest.run "eden_base"
    [
      ( "time",
        [
          Alcotest.test_case "units" `Quick test_time_units;
          Alcotest.test_case "ordering" `Quick test_time_ordering;
          Qcheck_seed.qcheck prop_time_max_min;
          Alcotest.test_case "pretty printing" `Quick test_time_pp;
        ] );
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "split independence" `Quick test_rng_split_independence;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "weighted index" `Quick test_rng_weighted_index;
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
          Alcotest.test_case "golden stream" `Quick test_rng_golden;
          Alcotest.test_case "draws allocate nothing" `Quick test_rng_no_allocation;
          qcheck prop_rng_int_uniformish;
        ] );
      ( "addr",
        [
          Alcotest.test_case "reverse" `Quick test_five_tuple_reverse;
          Alcotest.test_case "hash" `Quick test_five_tuple_hash_deterministic;
          qcheck prop_five_tuple_compare;
        ] );
      ("packet", [ Alcotest.test_case "route label options" `Quick test_packet_label ]);
      ( "class_name",
        [
          Alcotest.test_case "roundtrip" `Quick test_class_name_roundtrip;
          Alcotest.test_case "invalid" `Quick test_class_name_invalid;
          Alcotest.test_case "patterns" `Quick test_pattern_matching;
        ] );
      ( "metadata",
        [
          Alcotest.test_case "fields" `Quick test_metadata_fields;
          Alcotest.test_case "classes" `Quick test_metadata_classes;
          Alcotest.test_case "union" `Quick test_metadata_union;
          Alcotest.test_case "merge_flow" `Quick test_metadata_merge_flow;
          qcheck prop_merge_flow_is_union;
        ] );
      ( "stats",
        [
          Alcotest.test_case "summary" `Quick test_summary_basics;
          Alcotest.test_case "merge" `Quick test_summary_merge;
          Alcotest.test_case "merge empty" `Quick test_summary_merge_empty;
          Alcotest.test_case "percentiles" `Quick test_percentiles;
          Alcotest.test_case "empty samples" `Quick test_samples_empty;
          Alcotest.test_case "mbps" `Quick test_mbps;
          qcheck prop_percentile_monotone;
        ] );
      ( "dist",
        [
          Alcotest.test_case "zipf skew" `Quick test_zipf_skew;
          Alcotest.test_case "empirical cdf" `Quick test_empirical_cdf_quantiles;
          Alcotest.test_case "cdf invalid" `Quick test_empirical_cdf_invalid;
          Alcotest.test_case "cdf mean" `Quick test_cdf_mean;
          Alcotest.test_case "pareto bounds" `Quick test_pareto_bounds;
          Alcotest.test_case "poisson gaps" `Quick test_poisson_gap_positive;
        ] );
    ]
