module IMap = Map.Make (Int)

(* Where an operand's value came from.  [S_local (i, k)] means the
   operand is (the current value of local [i]) + [k] — the offset form
   covers guards like [i + 1 >= arr.Length]; [S_len s] means it is the
   length of environment array slot [s].  Lengths never change during a
   run, so [S_len] is always current; [S_local] is invalidated by
   [Store]. *)
type src = S_local of int * int | S_len of int | S_other

type cmp = Ceq | Cne | Clt | Cle | Cgt | Cge

(* A comparison result remembered on the stack: operand sources and
   interval snapshots from the moment the comparison executed.  The
   snapshots stay sound even if a source is later invalidated — they
   bound the values that were actually compared. *)
type test = {
  t_op : cmp;
  t_a_src : src;
  t_a_itv : Interval.t;
  t_b_src : src;
  t_b_itv : Interval.t;
}

type operand = { o_itv : Interval.t; o_src : src; o_test : test option }

type lstate = {
  l_itv : Interval.t;
  l_lt : int IMap.t;
      (** [s -> k]: [local + k < length(slot s)] proved.  Larger [k] is
          the stronger fact (it implies every smaller offset). *)
}

type state = { stack : operand list; locals : lstate array }

exception Stuck
(* The program violates the basic stack discipline this analysis assumes
   (underflow, bad local, inconsistent depths), which {!Verifier.analyse}
   would reject; treat everything as unprovable. *)

let negate_cmp = function
  | Ceq -> Cne
  | Cne -> Ceq
  | Clt -> Cge
  | Cge -> Clt
  | Cle -> Cgt
  | Cgt -> Cle

let swap_cmp = function
  | Ceq -> Ceq
  | Cne -> Cne
  | Clt -> Cgt
  | Cgt -> Clt
  | Cle -> Cge
  | Cge -> Cle

let anon itv = { o_itv = itv; o_src = S_other; o_test = None }
let top_op = anon Interval.top

let src_equal a b =
  match (a, b) with
  | S_local (i, k), S_local (j, m) -> i = j && k = m
  | S_len i, S_len j -> i = j
  | S_other, S_other -> true
  | _ -> false

let test_equal a b =
  a.t_op = b.t_op && src_equal a.t_a_src b.t_a_src && src_equal a.t_b_src b.t_b_src
  && Interval.equal a.t_a_itv b.t_a_itv
  && Interval.equal a.t_b_itv b.t_b_itv

let join_operand a b =
  {
    o_itv = Interval.join a.o_itv b.o_itv;
    o_src = (if src_equal a.o_src b.o_src then a.o_src else S_other);
    o_test =
      (* Same comparison of the same sources: keep it, with the snapshot
         bounds joined (the compared value satisfies one side or the
         other, so the union bounds it).  Snapshots differ on every
         fixpoint iteration while the locals converge, so requiring
         equality here would erase the test before the branch uses it. *)
      (match (a.o_test, b.o_test) with
      | Some ta, Some tb
        when ta.t_op = tb.t_op && src_equal ta.t_a_src tb.t_a_src
             && src_equal ta.t_b_src tb.t_b_src ->
        Some
          {
            ta with
            t_a_itv = Interval.join ta.t_a_itv tb.t_a_itv;
            t_b_itv = Interval.join ta.t_b_itv tb.t_b_itv;
          }
      | _ -> None);
  }

let join_lstate a b =
  {
    l_itv = Interval.join a.l_itv b.l_itv;
    (* Keep facts both sides prove, at the weaker (smaller) offset. *)
    l_lt =
      IMap.merge
        (fun _ ka kb ->
          match (ka, kb) with Some ka, Some kb -> Some (min ka kb) | _ -> None)
        a.l_lt b.l_lt;
  }

let join_state a b =
  if List.length a.stack <> List.length b.stack then raise Stuck;
  {
    stack = List.map2 join_operand a.stack b.stack;
    locals = Array.map2 join_lstate a.locals b.locals;
  }

(* Widening against the previous state at a pc: intervals that grew jump
   to infinity so loop fixpoints terminate; provenance lattices are
   finite and need no widening. *)
let widen_state old next =
  let widen_test o n =
    match (o, n) with
    | Some to_, Some tn ->
      Some
        {
          tn with
          t_a_itv = Interval.widen to_.t_a_itv tn.t_a_itv;
          t_b_itv = Interval.widen to_.t_b_itv tn.t_b_itv;
        }
    | _ -> n
  in
  {
    stack =
      List.map2
        (fun o n ->
          {
            n with
            o_itv = Interval.widen o.o_itv n.o_itv;
            o_test = widen_test o.o_test n.o_test;
          })
        old.stack next.stack;
    locals =
      Array.map2
        (fun o n -> { n with l_itv = Interval.widen o.l_itv n.l_itv })
        old.locals next.locals;
  }

let operand_equal a b =
  Interval.equal a.o_itv b.o_itv && src_equal a.o_src b.o_src
  &&
  match (a.o_test, b.o_test) with
  | None, None -> true
  | Some ta, Some tb -> test_equal ta tb
  | _ -> false

let lstate_equal a b =
  Interval.equal a.l_itv b.l_itv && IMap.equal Int.equal a.l_lt b.l_lt

let state_equal a b =
  List.length a.stack = List.length b.stack
  && List.for_all2 operand_equal a.stack b.stack
  && Array.for_all2 lstate_equal a.locals b.locals

let min_len_itv (p : Program.t) s =
  Interval.of_bounds (Int64.of_int p.array_slots.(s).Program.a_min_len) Int64.max_int

(* Refine [state] under the assumption that [test] evaluated to [truth].
   Returns [None] when the assumption is infeasible (branch dead). *)
let apply_test st test truth =
  let op = if truth then test.t_op else negate_cmp test.t_op in
  let refine_local st i f =
    if i < 0 || i >= Array.length st.locals then st
    else
      match f st.locals.(i).l_itv with
      | None -> raise Exit
      | Some itv ->
        let locals = Array.copy st.locals in
        locals.(i) <- { (locals.(i)) with l_itv = itv };
        { st with locals }
  in
  let add_lt st i s k =
    if i < 0 || i >= Array.length st.locals then st
    else begin
      let locals = Array.copy st.locals in
      let l = locals.(i) in
      let k' = match IMap.find_opt s l.l_lt with Some k0 -> max k0 k | None -> k in
      locals.(i) <- { l with l_lt = IMap.add s k' l.l_lt };
      { st with locals }
    end
  in
  let refine_by op cur bound =
    match op with
    | Clt -> Interval.refine_lt cur bound
    | Cle -> Interval.refine_le cur bound
    | Cgt -> Interval.refine_gt cur bound
    | Cge -> Interval.refine_ge cur bound
    | Ceq -> Interval.refine_eq cur bound
    | Cne -> Some cur
  in
  (* [(local i + k) op bound]  <=>  [local i op (bound - k)]. *)
  let shift bound k =
    if k = 0 then bound else Interval.sub bound (Interval.const (Int64.of_int k))
  in
  try
    let st =
      match test.t_a_src with
      | S_local (i, k) ->
        refine_local st i (fun cur -> refine_by op cur (shift test.t_b_itv k))
      | _ -> st
    in
    let st =
      match test.t_b_src with
      | S_local (j, k) ->
        refine_local st j (fun cur -> refine_by (swap_cmp op) cur (shift test.t_a_itv k))
      | _ -> st
    in
    let st =
      match (op, test.t_a_src, test.t_b_src) with
      | Clt, S_local (i, k), S_len s -> add_lt st i s k
      | Cgt, S_len s, S_local (i, k) -> add_lt st i s k
      | _ -> st
    in
    Some st
  with Exit -> None

(* After any array access to slot [s] with index operand [x] that did not
   fault (checked access) or was proved (unsafe access), the index is in
   [0, length s).  If [x] is still the current value of local [i], record
   both facts on the local for later accesses. *)
let refine_after_access st x s =
  match x.o_src with
  | S_local (i, k) when i >= 0 && i < Array.length st.locals ->
    let locals = Array.copy st.locals in
    let l = locals.(i) in
    (* 0 <= local + k < len: local >= -k, and the fact (s, k). *)
    let itv =
      match
        Interval.meet l.l_itv (Interval.of_bounds (Int64.of_int (-k)) Int64.max_int)
      with
      | Some itv -> itv
      | None -> l.l_itv
    in
    let k' = match IMap.find_opt s l.l_lt with Some k0 -> max k0 k | None -> k in
    locals.(i) <- { l_itv = itv; l_lt = IMap.add s k' l.l_lt };
    { st with locals }
  | _ -> st

(* [Store i] makes stack references to local [i] stale: operands sourced
   from it lose their provenance, and remembered comparisons drop the
   side that named it (the interval snapshot stays — it bounds the value
   that was compared, which no write can retroactively change). *)
let invalidate_local st i =
  let fix_src s = match s with S_local (j, _) when j = i -> S_other | s -> s in
  let fix_test t =
    { t with t_a_src = fix_src t.t_a_src; t_b_src = fix_src t.t_b_src }
  in
  {
    st with
    stack =
      List.map
        (fun o ->
          { o with o_src = fix_src o.o_src; o_test = Option.map fix_test o.o_test })
        st.stack;
  }

let pop st =
  match st.stack with x :: rest -> (x, { st with stack = rest }) | [] -> raise Stuck

let push st x = { st with stack = x :: st.stack }

let proved (p : Program.t) st s x =
  Int64.compare x.o_itv.Interval.lo 0L >= 0
  && (Int64.compare x.o_itv.Interval.hi
        (Int64.of_int p.array_slots.(s).Program.a_min_len)
      < 0
     ||
     match x.o_src with
     | S_local (i, m) when i >= 0 && i < Array.length st.locals -> (
       (* The operand is local+m; a fact at offset k >= m gives
          local+m <= local+k < len. *)
       match IMap.find_opt s st.locals.(i).l_lt with
       | Some k -> m <= k
       | None -> false)
     | _ -> false)

(* One instruction's successors: (pc', state') pairs. *)
let step (p : Program.t) pc st =
  let len = Array.length p.code in
  let next st = [ (pc + 1, st) ] in
  let binop f =
    let b, st = pop st in
    let a, st = pop st in
    next (push st (anon (f a.o_itv b.o_itv)))
  in
  (* A small constant operand, for offset provenance through [Add]/[Sub]. *)
  let as_const o =
    let itv = o.o_itv in
    if
      Interval.equal itv (Interval.const itv.Interval.lo)
      && Int64.compare (Int64.abs itv.Interval.lo) (Int64.of_int (1 lsl 20)) < 0
    then Some (Int64.to_int itv.Interval.lo)
    else None
  in
  let offset_binop ~sub =
    let b, st = pop st in
    let a, st = pop st in
    let o_itv = (if sub then Interval.sub else Interval.add) a.o_itv b.o_itv in
    let o_src =
      match (a.o_src, as_const b, b.o_src, as_const a) with
      | S_local (i, k), Some c, _, _ -> S_local (i, if sub then k - c else k + c)
      | _, _, S_local (i, k), Some c when not sub -> S_local (i, k + c)
      | _ -> S_other
    in
    next (push st { o_itv; o_src; o_test = None })
  in
  let cmpop t_op =
    let b, st = pop st in
    let a, st = pop st in
    let test =
      { t_op; t_a_src = a.o_src; t_a_itv = a.o_itv; t_b_src = b.o_src; t_b_itv = b.o_itv }
    in
    next (push st { o_itv = Interval.booleanish; o_src = S_other; o_test = Some test })
  in
  let branch target ~jump_when_zero =
    let x, st = pop st in
    let feasible truth =
      match x.o_test with
      | None -> Some st
      | Some test -> apply_test st test truth
    in
    (* Numeric pruning: a condition whose interval excludes 0 never
       jumps on zero, and a constant 0 always does. *)
    let can_be_zero = Interval.contains x.o_itv 0L in
    let can_be_nonzero =
      not (Int64.equal x.o_itv.Interval.lo 0L && Int64.equal x.o_itv.Interval.hi 0L)
    in
    let on_zero = if can_be_zero then feasible false else None in
    let on_nonzero = if can_be_nonzero then feasible true else None in
    let zero_pc, nonzero_pc =
      if jump_when_zero then (target, pc + 1) else (pc + 1, target)
    in
    List.filter_map
      (fun x -> x)
      [
        Option.map (fun s -> (zero_pc, s)) on_zero;
        Option.map (fun s -> (nonzero_pc, s)) on_nonzero;
      ]
  in
  match p.code.(pc) with
  | Opcode.Push v -> next (push st (anon (Interval.const v)))
  | Opcode.Pop ->
    let _, st = pop st in
    next st
  | Opcode.Dup ->
    let x, st = pop st in
    next (push (push st x) x)
  | Opcode.Swap ->
    let b, st = pop st in
    let a, st = pop st in
    next (push (push st b) a)
  | Opcode.Load i ->
    if i < 0 || i >= Array.length st.locals then raise Stuck;
    next (push st { o_itv = st.locals.(i).l_itv; o_src = S_local (i, 0); o_test = None })
  | Opcode.Store i ->
    if i < 0 || i >= Array.length st.locals then raise Stuck;
    let x, st = pop st in
    let st = invalidate_local st i in
    let l_lt =
      match x.o_src with
      (* New value = local j + k, so a fact [j + m < len] becomes
         [new + (m - k) < len]. *)
      | S_local (j, k) -> IMap.map (fun m -> m - k) st.locals.(j).l_lt
      | _ -> IMap.empty
    in
    let locals = Array.copy st.locals in
    locals.(i) <- { l_itv = x.o_itv; l_lt };
    next { st with locals }
  | Opcode.Add -> offset_binop ~sub:false
  | Opcode.Sub -> offset_binop ~sub:true
  | Opcode.Mul -> binop Interval.mul
  | Opcode.Div -> binop Interval.div
  | Opcode.Rem -> binop Interval.rem
  | Opcode.Neg ->
    let x, st = pop st in
    next (push st (anon (Interval.neg x.o_itv)))
  | Opcode.Band | Opcode.Bor | Opcode.Bxor | Opcode.Shl | Opcode.Shr ->
    binop (fun _ _ -> Interval.top)
  | Opcode.Not ->
    let x, st = pop st in
    let o_test =
      Option.map (fun t -> { t with t_op = negate_cmp t.t_op }) x.o_test
    in
    next (push st { o_itv = Interval.booleanish; o_src = S_other; o_test })
  | Opcode.Eq -> cmpop Ceq
  | Opcode.Ne -> cmpop Cne
  | Opcode.Lt -> cmpop Clt
  | Opcode.Le -> cmpop Cle
  | Opcode.Gt -> cmpop Cgt
  | Opcode.Ge -> cmpop Cge
  | Opcode.Jmp t -> [ (t, st) ]
  | Opcode.Jz t -> branch t ~jump_when_zero:true
  | Opcode.Jnz t -> branch t ~jump_when_zero:false
  | Opcode.Gaload s ->
    let x, st = pop st in
    let st = refine_after_access st x s in
    next (push st top_op)
  | Opcode.Gastore s ->
    let _v, st = pop st in
    let x, st = pop st in
    next (refine_after_access st x s)
  | Opcode.Galen s -> next (push st { o_itv = min_len_itv p s; o_src = S_len s; o_test = None })
  | Opcode.Newarr ->
    let _, st = pop st in
    next (push st top_op)
  | Opcode.Aload ->
    let _, st = pop st in
    let _, st = pop st in
    next (push st top_op)
  | Opcode.Astore ->
    let _, st = pop st in
    let _, st = pop st in
    let _, st = pop st in
    next st
  | Opcode.Alen ->
    let _, st = pop st in
    next (push st (anon (Interval.of_bounds 0L Int64.max_int)))
  | Opcode.Rand ->
    let b, st = pop st in
    next (push st (anon (Interval.rand b.o_itv)))
  | Opcode.Clock ->
    next (push st (anon (Interval.of_bounds 0L Int64.max_int)))
  | Opcode.Hashmix ->
    let _, st = pop st in
    let _, st = pop st in
    next (push st top_op)
  | Opcode.Halt -> [ (len, st) ]

let widen_threshold = 20

(* Fixpoint over all pcs; returns the final abstract state before each
   instruction ([None] = unreachable). *)
let fixpoint (p : Program.t) =
  let len = Array.length p.code in
  let states : state option array = Array.make (len + 1) None in
  let visits = Array.make (len + 1) 0 in
  (* Widening points: targets of backward edges.  Every CFG cycle passes
     through its minimum pc, which is entered by a backward edge, so
     widening there is enough for termination.  Widening anywhere else
     would overshoot guard refinements inside loop bodies (a widened
     bound near [max_int] makes the next [i + c] overflow-collapse to
     top, and the damage is a self-sustaining fixpoint). *)
  let loop_head = Array.make (len + 1) false in
  Array.iteri
    (fun pc op ->
      match Opcode.jump_target op with
      | Some t when t <= pc && t >= 0 && t <= len -> loop_head.(t) <- true
      | _ -> ())
    p.code;
  let pending = Queue.create () in
  let schedule pc st =
    if pc < 0 || pc > len then raise Stuck;
    match states.(pc) with
    | None ->
      states.(pc) <- Some st;
      if pc < len then Queue.add pc pending
    | Some old ->
      let joined = join_state old st in
      let joined =
        if loop_head.(pc) && visits.(pc) > widen_threshold then widen_state old joined
        else joined
      in
      if not (state_equal old joined) then begin
        states.(pc) <- Some joined;
        if pc < len then Queue.add pc pending
      end
  in
  let init =
    {
      stack = [];
      locals =
        Array.make (max p.n_locals 1) { l_itv = Interval.top; l_lt = IMap.empty };
    }
  in
  schedule 0 init;
  while not (Queue.is_empty pending) do
    let pc = Queue.pop pending in
    visits.(pc) <- visits.(pc) + 1;
    match states.(pc) with
    | None -> ()
    | Some st -> List.iter (fun (pc', st') -> schedule pc' st') (step p pc st)
  done;
  states

(* The index operand of an access: top of stack for loads, below the
   value for stores. *)
let index_operand op st =
  match (op, st.stack) with
  | Opcode.Gaload _, x :: _ -> x
  | Opcode.Gastore _, _ :: x :: _ -> x
  | _ -> raise Stuck

let in_bounds (p : Program.t) =
  try
    let states = fixpoint p in
    Array.mapi
      (fun pc op ->
        match (op, states.(pc)) with
        | (Opcode.Gaload s | Opcode.Gastore s), Some st -> proved p st s (index_operand op st)
        | _ -> false)
      p.code
  with Stuck -> Array.make (Array.length p.code) false
