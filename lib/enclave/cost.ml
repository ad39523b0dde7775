type model = {
  vanilla_ns : float;
  api_ns : float;
  classify_ns : float;
  marshal_ns : float;
  per_step_ns : float;
  compiled_step_ns : float;
  native_ns : float;
  budget_ns : float;
}

(* Rough calibration against the paper's setting: a vanilla stack spends on
   the order of a microsecond of CPU per packet end to end; Eden's reported
   total overhead at 10 Gbps line rate is under ~10% (Fig. 12), split
   across API, enclave and interpreter.  The bench harness re-measures
   [per_step_ns] with Bechamel on the actual interpreter. *)
let os_model =
  {
    vanilla_ns = 2000.0;
    api_ns = 40.0;
    classify_ns = 30.0;
    marshal_ns = 20.0;
    per_step_ns = 2.0;
    compiled_step_ns = 0.5;
    native_ns = 12.0;
    budget_ns = 250_000.0;
  }

(* NFP-style NIC cores are individually slower but plentiful; per-packet
   costs are higher while the host CPU is relieved entirely. *)
let nic_model =
  {
    vanilla_ns = 2000.0;
    api_ns = 40.0;
    classify_ns = 90.0;
    marshal_ns = 60.0;
    per_step_ns = 6.0;
    compiled_step_ns = 1.5;
    native_ns = 35.0;
    budget_ns = 700_000.0;
  }

(* Admission control (§3.4 trust boundary): the engines fault an
   invocation at [step_limit] steps, so that bounds every program. *)
let admission_steps (p : Eden_bytecode.Program.t) =
  let limit = p.Eden_bytecode.Program.step_limit in
  match Eden_bytecode.Wcet.worst_case_steps p with Some n -> min n limit | None -> limit

let admission_ns m ~per_step_ns ~steps =
  m.classify_ns +. m.marshal_ns +. (float_of_int steps *. per_step_ns)

type counts = {
  packets : int;
  api_handoffs : int;
  classifications : int;
  marshals : int;
  interp_steps : int;
  compiled_steps : int;
  native_calls : int;
}

let sub a b =
  {
    packets = a.packets - b.packets;
    api_handoffs = a.api_handoffs - b.api_handoffs;
    classifications = a.classifications - b.classifications;
    marshals = a.marshals - b.marshals;
    interp_steps = a.interp_steps - b.interp_steps;
    compiled_steps = a.compiled_steps - b.compiled_steps;
    native_calls = a.native_calls - b.native_calls;
  }

let vanilla_ns m c = float_of_int c.packets *. m.vanilla_ns
let api_ns m c = float_of_int c.api_handoffs *. m.api_ns

let enclave_ns m c =
  (float_of_int c.classifications *. m.classify_ns) +. (float_of_int c.marshals *. m.marshal_ns)

let interp_ns m c =
  (float_of_int c.interp_steps *. m.per_step_ns)
  +. (float_of_int c.compiled_steps *. m.compiled_step_ns)

let overhead_ns m c =
  api_ns m c +. enclave_ns m c +. interp_ns m c +. (float_of_int c.native_calls *. m.native_ns)

let overhead_pct m c =
  let vanilla = vanilla_ns m c in
  if vanilla <= 0.0 then 0.0
  else (api_ns m c +. enclave_ns m c +. interp_ns m c) /. vanilla *. 100.0
