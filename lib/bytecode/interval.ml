type t = { lo : int64; hi : int64 }

let ninf = Int64.min_int
let pinf = Int64.max_int
let top = { lo = ninf; hi = pinf }
let const v = { lo = v; hi = v }

let of_bounds lo hi =
  if Int64.compare lo hi > 0 then invalid_arg "Interval.of_bounds: lo > hi";
  { lo; hi }

let min64 a b = if Int64.compare a b <= 0 then a else b
let max64 a b = if Int64.compare a b >= 0 then a else b
let join a b = { lo = min64 a.lo b.lo; hi = max64 a.hi b.hi }

let meet a b =
  let lo = max64 a.lo b.lo and hi = min64 a.hi b.hi in
  if Int64.compare lo hi > 0 then None else Some { lo; hi }

(* Widening with one intermediate threshold just inside the extremes:
   a growing bound jumps to [pinf - 1] (resp. [ninf + 1]) before the
   infinity, so a loop counter capped by a guard can still be
   incremented without the wrap check collapsing it to [top]; a bound
   that grows past the threshold then jumps to the infinity, keeping the
   ladder (and hence the fixpoint) finite. *)
let widen old next =
  {
    lo =
      (if Int64.compare next.lo old.lo >= 0 then old.lo
       else if Int64.compare next.lo (Int64.add ninf 1L) >= 0 then Int64.add ninf 1L
       else ninf);
    hi =
      (if Int64.compare next.hi old.hi <= 0 then old.hi
       else if Int64.compare next.hi (Int64.sub pinf 1L) <= 0 then Int64.sub pinf 1L
       else pinf);
  }

let equal a b = Int64.equal a.lo b.lo && Int64.equal a.hi b.hi
let contains t v = Int64.compare t.lo v <= 0 && Int64.compare v t.hi <= 0

(* The interpreter's [Int64] arithmetic wraps, so saturating endpoints
   would be unsound (a sum that wraps negative is NOT >= the saturated
   bound).  Instead each transfer is exact when no endpoint combination
   can overflow, and collapses to [top] otherwise — [top] is the whole
   wrapped domain, hence always sound.  The endpoint "infinities" are the
   literal extreme values of that domain, so checking the endpoint
   computations covers the interior (the operations are monotone in each
   argument). *)

let checked_add a b =
  let s = Int64.add a b in
  if Int64.compare a 0L >= 0 && Int64.compare b 0L >= 0 && Int64.compare s 0L < 0 then
    None
  else if Int64.compare a 0L < 0 && Int64.compare b 0L < 0 && Int64.compare s 0L >= 0
  then None
  else Some s

let checked_sub a b =
  let s = Int64.sub a b in
  if Int64.compare a 0L >= 0 && Int64.compare b 0L < 0 && Int64.compare s 0L < 0 then
    None
  else if Int64.compare a 0L < 0 && Int64.compare b 0L >= 0 && Int64.compare s 0L >= 0
  then None
  else Some s

let checked_mul a b =
  if Int64.equal a 0L || Int64.equal b 0L then Some 0L
  else if Int64.equal a ninf || Int64.equal b ninf then
    if Int64.equal a 1L || Int64.equal b 1L then Some ninf else None
  else if Int64.equal a (-1L) then Some (Int64.neg b)
  else
    let p = Int64.mul a b in
    if Int64.equal (Int64.div p a) b then Some p else None

let add a b =
  match (checked_add a.lo b.lo, checked_add a.hi b.hi) with
  | Some lo, Some hi -> { lo; hi }
  | _ -> top

let sub a b =
  match (checked_sub a.lo b.hi, checked_sub a.hi b.lo) with
  | Some lo, Some hi -> { lo; hi }
  | _ -> top

let neg a =
  if Int64.equal a.lo ninf then top else { lo = Int64.neg a.hi; hi = Int64.neg a.lo }

let mul a b =
  match
    ( checked_mul a.lo b.lo,
      checked_mul a.lo b.hi,
      checked_mul a.hi b.lo,
      checked_mul a.hi b.hi )
  with
  | Some c1, Some c2, Some c3, Some c4 ->
    { lo = min64 (min64 c1 c2) (min64 c3 c4); hi = max64 (max64 c1 c2) (max64 c3 c4) }
  | _ -> top

let div a b =
  (* Division by a range containing 0 faults at run time for the 0 case;
     for the analysis we only need an over-approximation of the values a
     *successful* division can produce.  [min_int / -1] overflows in the
     concrete machine; treat it as top. *)
  if contains a ninf && contains b (-1L) then top
  else if Int64.equal b.lo 0L && Int64.equal b.hi 0L then top
  else begin
    let candidates = ref [] in
    let push v = candidates := v :: !candidates in
    let divisors =
      List.filter (fun d -> not (Int64.equal d 0L))
        [ b.lo; b.hi; (if contains b 1L then 1L else b.hi);
          (if contains b (-1L) then -1L else b.lo) ]
    in
    List.iter
      (fun d ->
        if not (Int64.equal a.lo ninf || Int64.equal a.lo pinf) then
          push (Int64.div a.lo d);
        if not (Int64.equal a.hi ninf || Int64.equal a.hi pinf) then
          push (Int64.div a.hi d))
      divisors;
    match !candidates with
    | [] -> top
    | c :: rest ->
      let lo = List.fold_left min64 c rest and hi = List.fold_left max64 c rest in
      (* Infinite numerator endpoints can still shrink in magnitude but
         never flip past the finite candidates' span only when divisors
         keep one sign; be conservative otherwise. *)
      if Int64.equal a.lo ninf || Int64.equal a.hi pinf then top
      else { lo; hi }
  end

let rem _a b =
  (* a rem b has |result| < |b| and the sign of a; bound by |b|-1. *)
  let mag =
    let abs v =
      if Int64.equal v ninf then pinf
      else if Int64.compare v 0L < 0 then Int64.neg v
      else v
    in
    max64 (abs b.lo) (abs b.hi)
  in
  if Int64.equal mag pinf || Int64.equal mag 0L then top
  else
    let m = Int64.sub mag 1L in
    { lo = Int64.neg m; hi = m }

let booleanish = { lo = 0L; hi = 1L }

let rand bound =
  if Int64.compare bound.lo 1L >= 0 && not (Int64.equal bound.hi pinf) then
    { lo = 0L; hi = Int64.sub bound.hi 1L }
  else { lo = 0L; hi = pinf }

(* Refinements: interval for [a] given that [a op b] holds. *)

let refine_lt a b =
  if Int64.equal b.hi ninf then None
  else meet a { lo = ninf; hi = Int64.sub b.hi 1L }

let refine_le a b = meet a { lo = ninf; hi = b.hi }

let refine_gt a b =
  if Int64.equal b.lo pinf then None
  else meet a { lo = Int64.add b.lo 1L; hi = pinf }

let refine_ge a b = meet a { lo = b.lo; hi = pinf }
let refine_eq a b = meet a b

let to_string t =
  let e v =
    if Int64.equal v ninf then "-inf" else if Int64.equal v pinf then "+inf"
    else Int64.to_string v
  in
  Printf.sprintf "[%s, %s]" (e t.lo) (e t.hi)

let pp fmt t = Format.pp_print_string fmt (to_string t)
