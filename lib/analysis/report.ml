type t = {
  r_name : string;
  r_footprint : Effects.footprint;
  r_concurrency : Eden_bytecode.Program.concurrency;
  r_diagnostics : string list;
  r_nodes_before : int;
  r_nodes_after : int;
  r_code_len : int;
  r_max_stack : int;
  r_bounds : Bounds.t;
  r_cost : Cost.t;
}

let pp fmt r =
  Format.fprintf fmt "@[<v>";
  Format.fprintf fmt "action %S@," r.r_name;
  Format.fprintf fmt "effects:@,%a" Effects.pp_footprint r.r_footprint;
  Format.fprintf fmt "  concurrency: %s@,"
    (Eden_bytecode.Program.concurrency_to_string r.r_concurrency);
  List.iter (fun d -> Format.fprintf fmt "  problem: %s@," d) r.r_diagnostics;
  Format.fprintf fmt "optimizer: %d -> %d AST nodes@," r.r_nodes_before r.r_nodes_after;
  Format.fprintf fmt "bytecode: %d instructions, max stack %d@," r.r_code_len
    r.r_max_stack;
  Format.fprintf fmt "bounds:@,%a" Bounds.pp r.r_bounds;
  Format.fprintf fmt "cost:@,%a" Cost.pp r.r_cost;
  Format.fprintf fmt "@]"

let to_string r = Format.asprintf "%a" pp r
