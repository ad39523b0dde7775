module P = Eden_bytecode.Program
module Interp = Eden_bytecode.Interp
module Verifier = Eden_bytecode.Verifier
open Eden_functions

type entry = {
  name : string;
  code_len : int;
  n_locals : int;
  max_stack : int;
  stack_bytes : int;
  steps_per_packet : int;
  heap_cells : int;
  concurrency : string;
}

(* Representative environment values for a 1058-byte data packet and the
   controller state each paper function runs with. *)
let scalar_default (slot : P.scalar_slot) =
  match (slot.P.s_entity, slot.P.s_name) with
  | P.Packet, "Size" -> 1058L
  | P.Packet, "PayloadSize" -> 1000L
  | P.Packet, "SrcHost" -> 1L
  | P.Packet, "DstHost" -> 2L
  | P.Packet, "SrcPort" -> 1234L
  | P.Packet, "DstPort" -> 80L
  | P.Packet, "IsData" -> 1L
  | P.Packet, ("Queue" | "Charge" | "GotoTable" | "Path") -> -1L
  | P.Message, "CachedPath" -> -1L
  | P.Message, "FlowSize" -> 500_000L
  | P.Message, "OpSize" -> 65_536L
  | P.Message, "IsRead" -> 1L
  | P.Message, "Size" -> 20_000L
  | P.Global, "Protected" -> 22L
  | _ -> 0L

let array_default (slot : P.array_slot) =
  match slot.P.a_name with
  | "Thresholds" | "Limits" -> [| 10_240L; 1_048_576L |]
  | "Paths" -> [| 1L; 909L; 2L; 91L |]
  | "QueueMap" -> [| 0L; 1L |]
  | "Knocks" -> [| 1111L; 2222L; 3333L |]
  | "State" -> Array.make 16 0L
  | "ReplicaLabels" -> [| 301L; 302L; 303L |]
  | _ -> [||]

let measure name (p : P.t) =
  let max_stack =
    match Verifier.max_stack_depth p with
    | Ok d -> d
    | Error e -> invalid_arg (Printf.sprintf "Footprint: %s: %s" name (Verifier.error_to_string e))
  in
  let env =
    Interp.make_env p
      ~scalars:(Array.map scalar_default p.P.scalar_slots)
      ~arrays:(Array.map array_default p.P.array_slots)
  in
  let stats =
    match
      Interp.run p ~env ~now:(Eden_base.Time.us 1) ~rng:(Eden_base.Rng.create 7L)
    with
    | Ok stats -> stats
    | Error (f, _) ->
      invalid_arg (Printf.sprintf "Footprint: %s faulted: %s" name (Interp.fault_to_string f))
  in
  {
    name;
    code_len = Array.length p.P.code;
    n_locals = p.P.n_locals;
    max_stack;
    stack_bytes = 8 * max_stack;
    steps_per_packet = stats.Interp.steps;
    heap_cells = stats.Interp.heap_cells;
    concurrency = P.concurrency_to_string (P.footprint p).P.concurrency;
  }

let run () =
  [
    measure "wcmp" (Wcmp.program ());
    measure "message_wcmp" (Wcmp.message_program ());
    measure "pias" (Pias.program ());
    measure "sff" (Sff.program ());
    measure "pulsar" (Pulsar.program ());
    measure "port_knocking" (Port_knocking.program ());
    measure "replica_select" (Replica_select.program ());
  ]

let print entries =
  Printf.printf
    "Interpreter footprint of the paper's action functions (§5.4: ~64 B stack, ~256 B heap)\n";
  Printf.printf "%-15s | %6s %7s %7s %8s %7s %6s %12s\n" "function" "code" "locals"
    "stack" "stack B" "steps" "heap" "concurrency";
  Printf.printf "%s\n" (String.make 82 '-');
  List.iter
    (fun e ->
      Printf.printf "%-15s | %6d %7d %7d %8d %7d %6d %12s\n" e.name e.code_len e.n_locals
        e.max_stack e.stack_bytes e.steps_per_packet e.heap_cells e.concurrency)
    entries
