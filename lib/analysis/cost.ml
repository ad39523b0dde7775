module P = Eden_bytecode.Program
module Ecost = Eden_enclave.Cost

type estimate = { placement : string; est_ns : float; budget_ns : float; fits : bool }

type t = {
  wcet_steps : int option;
  admission_steps : int;
  step_limit : int;
  estimates : estimate list;
}

let of_program (p : P.t) =
  let wcet_steps = Eden_bytecode.Wcet.worst_case_steps p in
  let admission_steps = Ecost.admission_steps p in
  let est placement (m : Ecost.model) =
    let est_ns =
      Ecost.admission_ns m ~per_step_ns:m.Ecost.per_step_ns ~steps:admission_steps
    in
    { placement; est_ns; budget_ns = m.Ecost.budget_ns; fits = est_ns <= m.Ecost.budget_ns }
  in
  {
    wcet_steps;
    admission_steps;
    step_limit = p.P.step_limit;
    estimates = [ est "os" Ecost.os_model; est "nic" Ecost.nic_model ];
  }

let pp fmt t =
  Format.fprintf fmt "@[<v>";
  (match t.wcet_steps with
  | Some n ->
    Format.fprintf fmt "  worst case %d steps (acyclic; step limit %d)@," n t.step_limit
  | None ->
    Format.fprintf fmt "  loops: bounded only by the step limit (%d steps)@,"
      t.step_limit);
  List.iter
    (fun e ->
      Format.fprintf fmt "  %s enclave: %.0f ns worst case vs %.0f ns budget -> %s@,"
        e.placement e.est_ns e.budget_ns
        (if e.fits then "admitted" else "REJECTED"))
    t.estimates;
  Format.fprintf fmt "@]"
