(* Tests for the action-function parser: syntax forms, error reporting,
   and print->parse round-trips (hand-written and property-based). *)

open Eden_lang

let check_bool = Alcotest.(check bool)

let parse_ok src =
  match Parser.parse_expr src with
  | Ok e -> e
  | Error e -> Alcotest.failf "parse failed: %s\nsource:\n%s" (Parser.error_to_string e) src

let expect_expr src expected =
  let e = parse_ok src in
  if e <> expected then
    Alcotest.failf "parsed %s as:\n%s\nexpected:\n%s" src (Pretty.expr_to_string e)
      (Pretty.expr_to_string expected)

let expect_error src =
  match Parser.parse_expr src with
  | Ok e -> Alcotest.failf "expected error, parsed: %s" (Pretty.expr_to_string e)
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Expression forms *)

let test_literals () =
  expect_expr "42L" (Ast.Int 42L);
  expect_expr "42" (Ast.Int 42L);
  expect_expr "1_000_000L" (Ast.Int 1_000_000L);
  expect_expr "true" (Ast.Bool true);
  expect_expr "false" (Ast.Bool false);
  expect_expr "()" Ast.Unit;
  expect_expr "(-5L)" (Ast.Unop (Ast.Neg, Ast.Int 5L))

let test_fields () =
  expect_expr "packet.Size" (Ast.Field (Ast.Packet, "Size"));
  expect_expr "msg.Size" (Ast.Field (Ast.Message, "Size"));
  expect_expr "_global.Counter" (Ast.Field (Ast.Global, "Counter"));
  expect_expr "_global.Paths.[0L]" (Ast.Arr_get (Ast.Global, "Paths", Ast.Int 0L));
  expect_expr "_global.Paths.Length" (Ast.Arr_len (Ast.Global, "Paths"));
  expect_expr "msg.Window.[packet.Size]"
    (Ast.Arr_get (Ast.Message, "Window", Ast.Field (Ast.Packet, "Size")))

let test_operators_and_precedence () =
  expect_expr "1L + 2L * 3L" (Ast.Binop (Ast.Add, Ast.Int 1L, Ast.Binop (Ast.Mul, Ast.Int 2L, Ast.Int 3L)));
  expect_expr "(1L + 2L) * 3L" (Ast.Binop (Ast.Mul, Ast.Binop (Ast.Add, Ast.Int 1L, Ast.Int 2L), Ast.Int 3L));
  expect_expr "1L < 2L && 3L >= 2L"
    (Ast.Binop (Ast.And, Ast.Binop (Ast.Lt, Ast.Int 1L, Ast.Int 2L),
       Ast.Binop (Ast.Ge, Ast.Int 3L, Ast.Int 2L)));
  expect_expr "1L <<< 2L" (Ast.Binop (Ast.Shl, Ast.Int 1L, Ast.Int 2L));
  expect_expr "1L &&& 3L" (Ast.Binop (Ast.Band, Ast.Int 1L, Ast.Int 3L));
  expect_expr "not true" (Ast.Unop (Ast.Not, Ast.Bool true));
  expect_expr "1L - 2L - 3L"
    (Ast.Binop (Ast.Sub, Ast.Binop (Ast.Sub, Ast.Int 1L, Ast.Int 2L), Ast.Int 3L))

let test_statements () =
  expect_expr "packet.Priority <- 5L" (Ast.Set_field (Ast.Packet, "Priority", Ast.Int 5L));
  expect_expr "_global.State.[0L] <- 1L"
    (Ast.Arr_set (Ast.Global, "State", Ast.Int 0L, Ast.Int 1L));
  expect_expr "packet.Priority <- 1L\npacket.Path <- 2L"
    (Ast.Seq
       ( Ast.Set_field (Ast.Packet, "Priority", Ast.Int 1L),
         Ast.Set_field (Ast.Packet, "Path", Ast.Int 2L) ));
  expect_expr "packet.Priority <- 1L; packet.Path <- 2L"
    (Ast.Seq
       ( Ast.Set_field (Ast.Packet, "Priority", Ast.Int 1L),
         Ast.Set_field (Ast.Packet, "Path", Ast.Int 2L) ))

let test_let_bindings () =
  expect_expr "let x = 1L\nx + 1L"
    (Ast.Let { name = "x"; mutable_ = false; rhs = Ast.Int 1L;
               body = Ast.Binop (Ast.Add, Ast.Var "x", Ast.Int 1L) });
  expect_expr "let mutable x = 1L\nx <- 2L"
    (Ast.Let { name = "x"; mutable_ = true; rhs = Ast.Int 1L;
               body = Ast.Assign ("x", Ast.Int 2L) });
  expect_expr "let x = 1L in x" (Ast.Let { name = "x"; mutable_ = false; rhs = Ast.Int 1L; body = Ast.Var "x" })

let test_if_while () =
  expect_expr "if true then 1L else 2L" (Ast.If (Ast.Bool true, Ast.Int 1L, Ast.Int 2L));
  expect_expr "if true then packet.Priority <- 1L"
    (Ast.If (Ast.Bool true, Ast.Set_field (Ast.Packet, "Priority", Ast.Int 1L), Ast.Unit));
  expect_expr "if true then 1L elif false then 2L else 3L"
    (Ast.If (Ast.Bool true, Ast.Int 1L, Ast.If (Ast.Bool false, Ast.Int 2L, Ast.Int 3L)));
  expect_expr "if true then 1L else if false then 2L else 3L"
    (Ast.If (Ast.Bool true, Ast.Int 1L, Ast.If (Ast.Bool false, Ast.Int 2L, Ast.Int 3L)));
  expect_expr "while true do packet.Priority <- 1L done"
    (Ast.While (Ast.Bool true, Ast.Set_field (Ast.Packet, "Priority", Ast.Int 1L)))

let test_calls_and_intrinsics () =
  expect_expr "f 1L 2L" (Ast.Call ("f", [ Ast.Int 1L; Ast.Int 2L ]));
  expect_expr "f (1L + 2L)" (Ast.Call ("f", [ Ast.Binop (Ast.Add, Ast.Int 1L, Ast.Int 2L) ]));
  expect_expr "rand 10L" (Ast.Rand (Ast.Int 10L));
  expect_expr "clock ()" Ast.Clock;
  expect_expr "hash 1L 2L" (Ast.Hash (Ast.Int 1L, Ast.Int 2L));
  expect_expr "f packet.Size msg.Size"
    (Ast.Call ("f", [ Ast.Field (Ast.Packet, "Size"); Ast.Field (Ast.Message, "Size") ]))

let test_begin_end_and_comments () =
  expect_expr "begin 1L end" (Ast.Int 1L);
  expect_expr "1L // comment\n + 2L" (Ast.Binop (Ast.Add, Ast.Int 1L, Ast.Int 2L));
  expect_expr "1L (* block (* nested *) comment *) + 2L"
    (Ast.Binop (Ast.Add, Ast.Int 1L, Ast.Int 2L))

let test_errors () =
  expect_error "1L +";
  expect_error "if true then";
  expect_error "packet.";
  expect_error "while true do 1L";
  expect_error "(1L";
  expect_error "let = 3L";
  expect_error "1L @ 2L";
  expect_error "foo.Bar" (* not an entity *)

let test_error_positions () =
  match Parser.parse_expr "1L +\n  @" with
  | Ok _ -> Alcotest.fail "expected error"
  | Error e -> check_bool "line 2" true (e.Parser.line = 2)

(* ------------------------------------------------------------------ *)
(* Action functions *)

let test_parse_action_with_header () =
  let src =
    "fun (packet : Packet, msg : Message, _global : Global) ->\n\
     \  let rec search i =\n\
     \    if i >= _global.Thresholds.Length then 0L\n\
     \    else if msg.Size <= _global.Thresholds.[i] then 7L - i\n\
     \    else search (i + 1L)\n\
     \  msg.Size <- msg.Size + packet.Size\n\
     \  packet.Priority <- search 0L\n"
  in
  match Parser.parse_action ~name:"pias" src with
  | Error e -> Alcotest.failf "parse failed: %s" (Parser.error_to_string e)
  | Ok action ->
    check_bool "one function" true (List.length action.Ast.af_funs = 1);
    check_bool "named" true ((List.hd action.Ast.af_funs).Ast.fn_name = "search");
    (* It must compile and run through the full pipeline. *)
    let schema =
      Schema.with_standard_packet
        ~message:[ Schema.field "Size" ~access:Schema.Read_write ]
        ~global_arrays:[ Schema.array "Thresholds" ]
        ()
    in
    check_bool "typechecks and compiles" true
      (Result.is_ok (Compile.compile schema action))

let test_parse_action_without_header () =
  match Parser.parse_action "packet.Priority <- 3L" with
  | Ok a -> check_bool "body" true (a.Ast.af_body = Ast.Set_field (Ast.Packet, "Priority", Ast.Int 3L))
  | Error e -> Alcotest.failf "parse failed: %s" (Parser.error_to_string e)

(* ------------------------------------------------------------------ *)
(* Round-trips *)

let paper_actions =
  [
    Eden_functions.Wcmp.action;
    Eden_functions.Wcmp.message_action;
    Eden_functions.Pias.action;
    Eden_functions.Sff.action;
    Eden_functions.Pulsar.action;
    Eden_functions.Port_knocking.action;
    Eden_functions.Replica_select.action;
  ]

let test_paper_functions_roundtrip () =
  List.iter
    (fun action ->
      let src = Pretty.action_to_string action in
      match Parser.parse_action ~name:action.Ast.af_name src with
      | Error e ->
        Alcotest.failf "%s: parse failed: %s" action.Ast.af_name (Parser.error_to_string e)
      | Ok parsed ->
        if parsed <> action then
          Alcotest.failf "%s: round-trip mismatch:\n%s\nvs\n%s" action.Ast.af_name src
            (Pretty.action_to_string parsed))
    paper_actions

(* Property: random well-formed statements round-trip. *)
let gen_expr =
  let open QCheck.Gen in
  let lit = map (fun v -> Ast.Int (Int64.of_int (abs v mod 1000))) small_int in
  let field = oneofl [ Ast.Field (Ast.Packet, "Size"); Ast.Field (Ast.Message, "Size");
                       Ast.Arr_get (Ast.Global, "Tbl", Ast.Int 0L) ] in
  let rec int_expr n =
    if n <= 0 then oneof [ lit; field ]
    else
      frequency
        [
          (2, lit);
          (2, field);
          ( 3,
            let* op = oneofl [ Ast.Add; Ast.Sub; Ast.Mul ] in
            let* a = int_expr (n / 2) in
            let* b = int_expr (n / 2) in
            return (Ast.Binop (op, a, b)) );
          (1, map (fun e -> Ast.Unop (Ast.Neg, e)) (int_expr (n - 1)));
          (1, map (fun e -> Ast.Rand e) (map (fun v -> Ast.Int (Int64.of_int (1 + abs v))) small_int));
          ( 1,
            let* a = int_expr (n / 2) in
            let* b = int_expr (n / 2) in
            return (Ast.Hash (a, b)) );
        ]
  in
  let cond n =
    let* op = oneofl [ Ast.Lt; Ast.Le; Ast.Eq; Ast.Ne; Ast.Gt; Ast.Ge ] in
    let* a = int_expr (n / 2) in
    let* b = int_expr (n / 2) in
    return (Ast.Binop (op, a, b))
  in
  let stmt_leaf n =
    oneof
      [
        map (fun e -> Ast.Set_field (Ast.Packet, "Priority", e)) (int_expr n);
        map (fun e -> Ast.Arr_set (Ast.Global, "Tbl", Ast.Int 0L, e)) (int_expr n);
      ]
  in
  let rec stmt n =
    if n <= 0 then stmt_leaf 0
    else
      frequency
        [
          (3, stmt_leaf n);
          ( 2,
            let* c = cond (n / 2) in
            let* t = stmt (n / 2) in
            let* f = stmt (n / 2) in
            return (Ast.If (c, t, f)) );
          ( 1,
            let* c = cond (n / 2) in
            let* t = stmt (n / 2) in
            return (Ast.If (c, t, Ast.Unit)) );
          ( 2,
            let* a = stmt (n / 2) in
            let* b = stmt (n / 2) in
            return (Ast.Seq (a, b)) );
          ( 1,
            let* rhs = int_expr (n / 2) in
            let* body = stmt (n / 2) in
            return (Ast.Let { name = "x"; mutable_ = false; rhs; body }) );
          ( 1,
            let* c = cond (n / 2) in
            let* b = stmt (n / 2) in
            return (Ast.While (c, b)) );
        ]
  in
  QCheck.Gen.sized (fun n -> stmt (min n 20))

let prop_print_parse_roundtrip =
  QCheck.Test.make ~name:"print -> parse round-trip" ~count:500 (QCheck.make gen_expr)
    (fun e ->
      let src = Pretty.expr_to_string e in
      match Parser.parse_expr src with
      | Ok e' -> e' = e
      | Error err ->
        QCheck.Test.fail_reportf "parse error %s on:\n%s" (Parser.error_to_string err) src)

let prop_action_roundtrip =
  QCheck.Test.make ~name:"action print -> parse round-trip" ~count:200
    (QCheck.make gen_expr) (fun body ->
      let action =
        {
          Ast.af_name = "t";
          af_funs =
            [ { Ast.fn_name = "aux"; fn_params = [ "i" ];
                fn_body = Ast.Binop (Ast.Add, Ast.Var "i", Ast.Int 1L) } ];
          af_body = body;
        }
      in
      let src = Pretty.action_to_string action in
      match Parser.parse_action ~name:"t" src with
      | Ok a -> a = action
      | Error err ->
        QCheck.Test.fail_reportf "parse error %s on:\n%s" (Parser.error_to_string err) src)

let qcheck = Qcheck_seed.qcheck

let () =
  Qcheck_seed.announce ();
  Alcotest.run "eden_parser"
    [
      ( "expressions",
        [
          Alcotest.test_case "literals" `Quick test_literals;
          Alcotest.test_case "fields" `Quick test_fields;
          Alcotest.test_case "operators" `Quick test_operators_and_precedence;
          Alcotest.test_case "statements" `Quick test_statements;
          Alcotest.test_case "let" `Quick test_let_bindings;
          Alcotest.test_case "if/while" `Quick test_if_while;
          Alcotest.test_case "calls" `Quick test_calls_and_intrinsics;
          Alcotest.test_case "begin/end, comments" `Quick test_begin_end_and_comments;
          Alcotest.test_case "errors" `Quick test_errors;
          Alcotest.test_case "error positions" `Quick test_error_positions;
        ] );
      ( "actions",
        [
          Alcotest.test_case "with header" `Quick test_parse_action_with_header;
          Alcotest.test_case "without header" `Quick test_parse_action_without_header;
          Alcotest.test_case "paper functions round-trip" `Quick
            test_paper_functions_roundtrip;
        ] );
      ("properties", [ qcheck prop_print_parse_roundtrip; qcheck prop_action_roundtrip ]);
    ]
