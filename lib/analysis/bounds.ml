module P = Eden_bytecode.Program
module Op = Eden_bytecode.Opcode

type access = {
  b_pc : int;
  b_slot : int;
  b_array : string;
  b_store : bool;
  b_proved : bool;
}

type t = { accesses : access list; proved : int; total : int }

let of_program (p : P.t) =
  let in_bounds = Eden_bytecode.Absint.in_bounds p in
  let accesses = ref [] in
  Array.iteri
    (fun pc op ->
      let add slot ~store =
        accesses :=
          {
            b_pc = pc;
            b_slot = slot;
            b_array = p.P.array_slots.(slot).P.a_name;
            b_store = store;
            b_proved = in_bounds.(pc);
          }
          :: !accesses
      in
      match op with
      | Op.Gaload s -> add s ~store:false
      | Op.Gastore s -> add s ~store:true
      | _ -> ())
    p.P.code;
  let accesses = List.rev !accesses in
  let proved = List.length (List.filter (fun a -> a.b_proved) accesses) in
  { accesses; proved; total = List.length accesses }

let pp fmt t =
  Format.fprintf fmt "@[<v>";
  Format.fprintf fmt "  %d of %d array accesses proved in bounds@," t.proved t.total;
  List.iter
    (fun a ->
      Format.fprintf fmt "  pc %d: %s %s -> %s@," a.b_pc
        (if a.b_store then "store to" else "load from")
        a.b_array
        (if a.b_proved then "proved" else "runtime check"))
    t.accesses;
  Format.fprintf fmt "@]"
