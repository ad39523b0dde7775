(* Longest path from pc 0 through the reachable control-flow graph,
   counting one step per instruction.  Node [len] is the exit (falling
   off the end or [Halt]).  Iterative colouring DFS: grey-on-stack means
   a reachable cycle, so no static bound exists. *)

let successors (p : Program.t) pc =
  let len = Array.length p.code in
  let op = p.code.(pc) in
  let clamp t = if t < 0 then len else min t len in
  match op with
  | Opcode.Jmp t -> [ clamp t ]
  | Opcode.Halt -> [ len ]
  | Opcode.Jz t | Opcode.Jnz t -> [ clamp t; pc + 1 ]
  | _ -> [ pc + 1 ]

let worst_case_steps (p : Program.t) =
  let len = Array.length p.code in
  if len = 0 then Some 0
  else begin
    (* 0 = white, 1 = grey (on stack), 2 = black (done). *)
    let colour = Array.make (len + 1) 0 in
    let cost = Array.make (len + 1) 0 in
    let exception Cyclic in
    (* Explicit stack of (node, remaining successors). *)
    let stack = ref [] in
    let enter n =
      colour.(n) <- 1;
      let succs = if n = len then [] else successors p n in
      stack := (n, ref succs) :: !stack
    in
    try
      enter 0;
      while !stack <> [] do
        match !stack with
        | [] -> ()
        | (n, succs) :: rest -> (
          match !succs with
          | s :: more ->
            succs := more;
            if colour.(s) = 1 then raise Cyclic
            else if colour.(s) = 0 then enter s
          | [] ->
            colour.(n) <- 2;
            cost.(n) <-
              (if n = len then 0
               else
                 1
                 + List.fold_left
                     (fun acc s -> max acc cost.(s))
                     0 (successors p n));
            stack := rest)
      done;
      Some cost.(0)
    with Cyclic -> None
  end
