(* Latency histogram with exact 1 ns buckets below [linear_ns] and
   power-of-two buckets above.  Adding a sample allocates nothing, so it
   can sit inside the timed loop; percentiles are exact for every sample
   under [linear_ns] (131 us), which covers all but rare outliers. *)

let linear_ns = 1 lsl 17

type t = { linear : int array; log : int array; mutable count : int }

let create () = { linear = Array.make linear_ns 0; log = Array.make 64 0; count = 0 }

let rec log2 n acc = if n <= 1 then acc else log2 (n lsr 1) (acc + 1)

let add t ns =
  let ns = if ns < 0 then 0 else ns in
  if ns < linear_ns then t.linear.(ns) <- t.linear.(ns) + 1
  else begin
    let b = log2 ns 0 in
    t.log.(b) <- t.log.(b) + 1
  end;
  t.count <- t.count + 1

let reset t =
  Array.fill t.linear 0 linear_ns 0;
  Array.fill t.log 0 (Array.length t.log) 0;
  t.count <- 0

(* The smallest recorded value [v] such that at least [q] of the samples
   are <= [v]; overflow buckets report their lower bound. *)
let percentile t q =
  if t.count = 0 then nan
  else begin
    let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int t.count))) in
    let seen = ref 0 and result = ref nan in
    (try
       Array.iteri
         (fun v n ->
           seen := !seen + n;
           if !seen >= rank then begin
             result := float_of_int v;
             raise Exit
           end)
         t.linear;
       Array.iteri
         (fun b n ->
           seen := !seen + n;
           if !seen >= rank then begin
             result := float_of_int (1 lsl b);
             raise Exit
           end)
         t.log
     with Exit -> ());
    !result
  end

(* The best hundredth of a list of samples (at least one): on a shared
   machine other tenants slow most of a run, with brief quiet moments
   between, and a slow moment only ever makes a sample worse, so the
   best few samples are the least disturbed.  Over the pooled window
   ratios of [Windows.quiet_factor], a hundredth followed the quiet
   moments across runs at least as well as a fiftieth, and better than a
   twentieth.
   [better a b] is true when [a] is better than [b]. *)
let best_share = 100

let best ~better samples =
  let sorted = List.sort (fun a b -> if better a b then -1 else if better b a then 1 else 0) samples in
  let keep = (List.length sorted + best_share - 1) / best_share in
  List.filteri (fun i _ -> i < keep) sorted

let median_of floats =
  match List.sort compare floats with
  | [] -> nan
  | sorted ->
    let a = Array.of_list sorted in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0
