(* Writing your own network function, end to end.

   An operator writes an action function as *text* in the F#-style
   surface syntax (what a controller would receive), the library parses,
   type-checks, compiles and verifies it, the bytecode travels through
   the binary codec (the controller->enclave wire format), and the
   enclave runs it on traffic.

   The function: a tiny "heavy hitter" marker — any flow that has sent
   more than a threshold gets its packets tagged with low priority and
   its excess counted.

   Run with: dune exec examples/custom_function.exe *)

module Enclave = Eden_enclave.Enclave
module Addr = Eden_base.Addr
module Packet = Eden_base.Packet
module Time = Eden_base.Time

let source =
  {|
fun (packet : Packet, msg : Message, _global : Global) ->
  msg.Sent <- msg.Sent + packet.Size
  if msg.Sent > _global.Limit then
    (packet.Priority <- 1L
     _global.ExcessBytes <- _global.ExcessBytes + packet.Size)
  else
    packet.Priority <- 6L
|}

let schema =
  Eden_lang.Schema.with_standard_packet
    ~message:[ Eden_lang.Schema.field "Sent" ~access:Eden_lang.Schema.Read_write ]
    ~global:
      [
        Eden_lang.Schema.field "Limit";
        Eden_lang.Schema.field "ExcessBytes" ~access:Eden_lang.Schema.Read_write;
      ]
    ()

let ok_or_die = function Ok v -> v | Error msg -> failwith msg

let () =
  Printf.printf "Operator's source:\n%s\n" source;
  (* Parse the text... *)
  let action =
    match Eden_lang.Parser.parse_action ~name:"heavy_hitter" source with
    | Ok a -> a
    | Error e -> failwith (Eden_lang.Parser.error_to_string e)
  in
  (* ...compile and verify... *)
  let program =
    ok_or_die
      (Result.map_error Eden_lang.Compile.error_to_string
         (Eden_lang.Compile.compile schema action))
  in
  Printf.printf "Compiled: %d instructions, %s concurrency.\n"
    (Array.length program.Eden_bytecode.Program.code)
    Eden_bytecode.Program.(concurrency_to_string (footprint program).concurrency);
  (* ...ship it over the controller->enclave wire format... *)
  let wire = Eden_bytecode.Codec.encode program in
  Printf.printf "Wire format: %d bytes.\n\n" (String.length wire);
  let received =
    match Eden_bytecode.Codec.decode wire with
    | Ok p -> p
    | Error e -> failwith (Eden_bytecode.Codec.error_to_string e)
  in
  (* ...install it on an enclave and run traffic through. *)
  let enclave = Enclave.create ~host:1 () in
  ok_or_die
    (Enclave.install_action enclave
       {
         Enclave.i_name = "heavy_hitter";
         i_impl = Enclave.Interpreted received;
         i_msg_sources = [ ("Sent", Enclave.Stateful 0L) ];
       });
  ok_or_die (Enclave.set_global enclave ~action:"heavy_hitter" "Limit" 10_000L);
  ignore
    (ok_or_die
       (Enclave.add_table_rule enclave ~pattern:Eden_base.Class_name.Pattern.any
          ~action:"heavy_hitter" ()));
  let flow =
    Addr.five_tuple ~src:(Addr.endpoint 1 5555) ~dst:(Addr.endpoint 2 80) ~proto:Addr.Tcp
  in
  Printf.printf "A flow sending 20 x 1 KB packets (limit 10 KB):\n";
  for i = 1 to 20 do
    let pkt = Packet.make ~id:(Int64.of_int i) ~flow ~kind:Packet.Data ~payload:1000 () in
    ignore (Enclave.process enclave ~now:(Time.us i) pkt);
    if i mod 5 = 0 then
      Printf.printf "  packet %2d -> priority %d\n" i pkt.Packet.priority
  done;
  match Enclave.get_global enclave ~action:"heavy_hitter" "ExcessBytes" with
  | Some excess -> Printf.printf "\nExcess bytes counted at the enclave: %Ld\n" excess
  | None -> ()
