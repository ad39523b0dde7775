open Eden_lang
module Enclave = Eden_enclave.Enclave
module Pattern = Eden_base.Class_name.Pattern

let schema =
  Schema.with_standard_packet
    ~global:[ Schema.field "Protected" ]
    ~global_arrays:[ Schema.array "Knocks"; Schema.array "State" ~access:Schema.Read_write ]
    ()

(* is_knock i: 1 when packet.DstPort appears in Knocks[i..]. *)
let is_knock_fun =
  let open Dsl in
  fn "is_knock" [ "i" ]
    (if_ (var "i" >= glob_arr_len "Knocks") (int 0)
       (if_ (glob_arr "Knocks" (var "i") = pkt "DstPort") (int 1)
          (call "is_knock" [ var "i" + int 1 ])))

let action =
  let open Dsl in
  action ~funs:[ is_knock_fun ] "port_knocking"
    (when_
       (pkt "SrcHost" >= int 0 && pkt "SrcHost" < glob_arr_len "State")
       (let_ "st" (glob_arr "State" (pkt "SrcHost")) @@ fun st ->
        if_
          (pkt "DstPort" = glob "Protected")
          (when_ (st < glob_arr_len "Knocks") (set_pkt "Drop" (int 1)))
          (when_
             (call "is_knock" [ int 0 ] = int 1)
             (* Nested, not [&&]: both sides of [&&] evaluate, and
                Knocks[st] is out of bounds once the host has knocked
                fully. *)
             (set_glob_arr "State" (pkt "SrcHost")
                (if_ (st < glob_arr_len "Knocks")
                   (if_ (glob_arr "Knocks" st = pkt "DstPort") (st + int 1) (int 0))
                   (int 0))))))

let program_memo =
  lazy
    (match Compile.compile schema action with
    | Ok p -> p
    | Error e -> invalid_arg ("Port_knocking: " ^ Compile.error_to_string e))

let program () = Lazy.force program_memo

let native ctx =
  let pkt = Enclave.Native_ctx.packet ctx in
  let src = pkt.Eden_base.Packet.flow.Eden_base.Addr.src.Eden_base.Addr.host in
  let dst_port = pkt.Eden_base.Packet.flow.Eden_base.Addr.dst.Eden_base.Addr.port in
  let state = Enclave.Native_ctx.global_array ctx "State" in
  let knocks = Enclave.Native_ctx.global_array ctx "Knocks" in
  let protected_port = Int64.to_int (Enclave.Native_ctx.global_get ctx "Protected") in
  if src >= 0 && src < Array.length state then begin
    let st = Int64.to_int state.(src) in
    if dst_port = protected_port then begin
      if st < Array.length knocks then Enclave.Native_ctx.set_drop ctx
    end
    else if Array.exists (fun k -> Int64.to_int k = dst_port) knocks then
      if st < Array.length knocks && Int64.to_int knocks.(st) = dst_port then
        state.(src) <- Int64.of_int (st + 1)
      else state.(src) <- 0L
  end

let ( let* ) r f = Result.bind r f

let install ?(name = "port_knocking") ?(variant = `Interpreted) enclave ~knocks
    ~protected_port ~max_hosts =
  if knocks = [] || List.length knocks > 4 then Error "port_knocking: 1-4 knock ports"
  else begin
    let impl =
      match variant with
      | `Interpreted -> Enclave.Interpreted (program ())
      | `Compiled -> Enclave.Compiled (program ())
      | `Native -> Enclave.Native native
    in
    let* () =
      Enclave.install_action enclave
        { Enclave.i_name = name; i_impl = impl; i_msg_sources = [] }
    in
    let* () =
      Enclave.set_global_array enclave ~action:name "Knocks"
        (Array.of_list (List.map Int64.of_int knocks))
    in
    let* () =
      Enclave.set_global_array enclave ~action:name "State" (Array.make max_hosts 0L)
    in
    let* () = Enclave.set_global enclave ~action:name "Protected" (Int64.of_int protected_port) in
    let* _ = Enclave.add_table_rule enclave ~pattern:Pattern.any ~action:name () in
    Ok ()
  end

let knock_state enclave ?(name = "port_knocking") ~src () =
  match Enclave.get_global_array enclave ~action:name "State" with
  | Some state when src >= 0 && src < Array.length state -> Some state.(src)
  | Some _ | None -> None
