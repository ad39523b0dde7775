(* Per-window figures of timed passes.  A pass records the wall time of
   each unit of work (a packet, or a simulator event); the units are then
   cut into windows of [size] consecutive units.  Passes of one group
   replay identical work, so their windows line up.  On a shared machine
   other tenants slow a run for seconds at a time, and leave quiet
   moments between that last from milliseconds to seconds; whole passes,
   which last a tenth of a second or more, fall in one too rarely to be
   counted on.  [reduce] therefore works per window, and reads the
   machine's quiet speed off every window of the run at once. *)

module A = Bigarray.Array1

let size = 1000

(* Unit times of one pass, kept outside the OCaml heap so recording
   allocates nothing and the collector never scans them.  A pass longer
   than the capacity doubles it; the copy lands in one window of one
   episode, which the medians below pass over. *)
type times = (int, Bigarray.int_elt, Bigarray.c_layout) A.t
type recorder = {
  mutable times : times;
  mutable n : int;
  scratch : int array;  (* one window, sorted; reused so cutting allocates little *)
}

let recorder capacity =
  { times = A.create Bigarray.int Bigarray.c_layout (max 1 capacity); n = 0; scratch = Array.make size 0 }
let reset r = r.n <- 0

let add r ns =
  let cap = A.dim r.times in
  if r.n >= cap then begin
    let bigger = A.create Bigarray.int Bigarray.c_layout (2 * cap) in
    A.blit r.times (A.sub bigger 0 cap);
    r.times <- bigger
  end;
  A.unsafe_set r.times r.n ns;
  r.n <- r.n + 1

type window = { wall : int; p50 : int; p90 : int }

(* The smallest of the first [n] sorted times such that at least [q] of
   them are <= it. *)
let percentile sorted n q = sorted.(max 0 (int_of_float (Float.ceil (q *. float_of_int n)) - 1))

(* Cut the recorded pass into windows.  Each window is sorted in the
   recorder's scratch array, padded past a short last window, so the
   collector sees no large temporary arrays that would add major-heap
   work to the next timed pass. *)
let cut r =
  let a = r.scratch in
  Array.init
    ((r.n + size - 1) / size)
    (fun w ->
      let lo = w * size in
      let len = min size (r.n - lo) in
      let wall = ref 0 in
      for i = 0 to size - 1 do
        if i < len then begin
          let t = A.get r.times (lo + i) in
          a.(i) <- t;
          wall := !wall + t
        end
        else a.(i) <- max_int
      done;
      Array.sort Int.compare a;
      { wall = !wall; p50 = percentile a len 0.5; p90 = percentile a len 0.9 })

(* The quiet-moment factor of repeated measurements.  Each cell holds
   repetitions of identical work.  Every repetition is divided by its
   cell's median and the ratios of all cells are pooled; the factor is the
   median of the best hundredth of the pool ([Hist.best]).  Other tenants
   slow the whole machine, so a quiet moment shows as a low ratio in
   whichever cell it falls.  Pooling finds enough of them even when each
   cell has only a few repetitions, as on the simulator, where a cell's
   own best repetition is as likely to be a slow one. *)
let quiet_factor (cells : float list list) =
  let ratios =
    List.concat_map
      (fun reps ->
        let m = Hist.median_of reps in
        if m > 0.0 then List.map (fun v -> v /. m) reps else [])
      cells
  in
  if ratios = [] then 1.0 else Hist.median_of (Hist.best ~better:( < ) ratios)

type reduced = {
  r_wall : float;  (* ns, summed over window positions *)
  r_p50 : float list;  (* one per window position *)
  r_p90 : float list;
}

(* Passes in groups; the passes of a group replay identical work.  Per
   group and window position, the median over the repetitions of the
   window's wall time, p50 and p90; each figure is then scaled by its own
   quiet factor, pooled over every group and position of the run.  A
   slowdown does not stretch a window's percentiles by the same factor
   as its wall time, so one shared factor would misjudge them.  Returns
   the wall-time factor too, for figures measured too seldom to find
   their own. *)
let reduce (groups : window array list list) =
  let positions passes =
    match passes with
    | [] -> 0
    | p :: rest -> List.fold_left (fun acc p -> min acc (Array.length p)) (Array.length p) rest
  in
  let cells f =
    List.map
      (fun passes ->
        List.init (positions passes) (fun i -> List.map (fun p -> float_of_int (f p.(i))) passes))
      groups
  in
  let scaled f =
    let cells = cells f in
    let q = quiet_factor (List.concat cells) in
    (q, List.map (List.map (fun reps -> q *. Hist.median_of reps)) cells)
  in
  let quiet, wall = scaled (fun w -> w.wall) in
  let _, p50 = scaled (fun w -> w.p50) and _, p90 = scaled (fun w -> w.p90) in
  ( quiet,
    List.map2
      (fun wall (p50, p90) -> { r_wall = List.fold_left ( +. ) 0.0 wall; r_p50 = p50; r_p90 = p90 })
      wall (List.combine p50 p90) )
