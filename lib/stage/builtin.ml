module Metadata = Eden_base.Metadata
module Addr = Eden_base.Addr

module Field = struct
  let msg_type = Metadata.Field.msg_type
  let key = Metadata.Field.key
  let url = Metadata.Field.url
  let msg_size = Metadata.Field.msg_size
  let operation = Metadata.Field.operation
  let tenant = Metadata.Field.tenant
  let key_hash = "key_hash"
  let src_host = "src_host"
  let src_port = "src_port"
  let dst_host = "dst_host"
  let dst_port = "dst_port"
  let proto = "proto"
end

let key_hash key =
  (* Deterministic, platform-independent FNV-1a over the key bytes. *)
  let h = ref 0x811c9dc5 in
  String.iter
    (fun c ->
      h := !h lxor Char.code c;
      h := !h * 0x01000193 land 0x3fffffff)
    key;
  !h

let memcached () =
  Stage.create ~name:"memcached"
    ~classifier_fields:[ Field.msg_type; Field.key ]
    ~metadata_fields:[ Field.msg_type; Field.key; Field.msg_size; Field.key_hash ]

let memcached_descriptor ~op ~key ~size =
  Classifier.Descriptor.of_list
    [
      (Field.msg_type, Metadata.str (match op with `Get -> "GET" | `Put -> "PUT"));
      (Field.key, Metadata.str key);
      (Field.msg_size, Metadata.int size);
      (Field.key_hash, Metadata.int (key_hash key));
    ]

let http () =
  Stage.create ~name:"http"
    ~classifier_fields:[ Field.msg_type; Field.url ]
    ~metadata_fields:[ Field.msg_type; Field.url; Field.msg_size ]

let http_descriptor ~msg_type ~url ~size =
  Classifier.Descriptor.of_list
    [
      ( Field.msg_type,
        Metadata.str (match msg_type with `Request -> "REQUEST" | `Response -> "RESPONSE") );
      (Field.url, Metadata.str url);
      (Field.msg_size, Metadata.int size);
    ]

let storage () =
  Stage.create ~name:"storage"
    ~classifier_fields:[ Field.operation; Field.tenant ]
    ~metadata_fields:[ Field.operation; Field.msg_size; Field.tenant ]

let storage_descriptor ~op ~tenant ~size =
  Classifier.Descriptor.of_list
    [
      (Field.operation, Metadata.str (match op with `Read -> "READ" | `Write -> "WRITE"));
      (Field.tenant, Metadata.int tenant);
      (Field.msg_size, Metadata.int size);
    ]

(* The flow stage's classifier fields and the five-tuple's values for
   them, in the same order: the one place that order is written down. *)
let flow_fields =
  [ Field.src_host; Field.src_port; Field.dst_host; Field.dst_port; Field.proto ]

let flow () = Stage.create ~name:"enclave" ~classifier_fields:flow_fields ~metadata_fields:[]

let n_flow_fields = List.length flow_fields
let flow_row () = Classifier.make_row n_flow_fields
let tcp = Addr.proto_to_string Addr.Tcp
let udp = Addr.proto_to_string Addr.Udp

let fill_flow_row row (ft : Addr.five_tuple) =
  if Classifier.row_length row <> n_flow_fields then
    invalid_arg "Builtin.fill_flow_row: not a flow row";
  Classifier.set_int row 0 ft.Addr.src.Addr.host;
  Classifier.set_int row 1 ft.Addr.src.Addr.port;
  Classifier.set_int row 2 ft.Addr.dst.Addr.host;
  Classifier.set_int row 3 ft.Addr.dst.Addr.port;
  Classifier.set_str row 4 (match ft.Addr.proto with Addr.Tcp -> tcp | Addr.Udp -> udp)

(* Built by field name, not by [fill_flow_row]: the two agreeing is what the
   stage tests check. *)
let flow_descriptor (ft : Addr.five_tuple) =
  Classifier.Descriptor.of_list
    [
      (Field.src_host, Metadata.int ft.Addr.src.Addr.host);
      (Field.src_port, Metadata.int ft.Addr.src.Addr.port);
      (Field.dst_host, Metadata.int ft.Addr.dst.Addr.host);
      (Field.dst_port, Metadata.int ft.Addr.dst.Addr.port);
      (Field.proto, Metadata.str (Addr.proto_to_string ft.Addr.proto));
    ]

let install_default_rule stage ~ruleset =
  match
    Stage.Api.create_stage_rule stage ~ruleset ~classifier:[] ~class_name:"DEFAULT"
      ~metadata_fields:(Stage.info stage).Stage.metadata_fields
  with
  | Ok _ -> ()
  | Error msg -> invalid_arg ("Builtin.install_default_rule: " ^ msg)
