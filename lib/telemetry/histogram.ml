let n_sub = 8
let n_buckets = 256

type t = {
  b : int array;
  mutable count : int;
  mutable sum : int;
  mutable max : int;
}

let bucket_of v =
  if v < n_sub then if v < 0 then 0 else v
  else begin
    (* Shift v down into [n_sub, 2*n_sub) counting octaves; the first
       octave [n_sub, 2*n_sub) itself maps to indices [n_sub, 2*n_sub),
       keeping the scale continuous with the linear region. *)
    let x = ref v and octave = ref 0 in
    while !x >= 2 * n_sub do
      x := !x asr 1;
      incr octave
    done;
    let i = (n_sub * !octave) + !x in
    if i >= n_buckets then n_buckets - 1 else i
  end

let lower_bound i =
  if i <= 0 then 0
  else if i < 2 * n_sub then i
  else ((i mod n_sub) + n_sub) lsl ((i / n_sub) - 1)

let create () = { b = Array.make n_buckets 0; count = 0; sum = 0; max = 0 }

let observe t v =
  let v = if v < 0 then 0 else v in
  let i = bucket_of v in
  t.b.(i) <- t.b.(i) + 1;
  t.count <- t.count + 1;
  t.sum <- t.sum + v;
  if v > t.max then t.max <- v

let observe_ns t ns = observe t (int_of_float ns)
let count t = t.count
let sum t = t.sum
let max_value t = t.max
let mean t = if t.count = 0 then 0.0 else float_of_int t.sum /. float_of_int t.count

let buckets t =
  let out = ref [] in
  for i = n_buckets - 1 downto 0 do
    if t.b.(i) > 0 then out := (lower_bound (i + 1), t.b.(i)) :: !out
  done;
  !out

let bucket_percentile buckets ~count ~max p =
  if count = 0 then 0
  else begin
    let rank = int_of_float (ceil (p /. 100.0 *. float_of_int count)) in
    let rank = if rank < 1 then 1 else rank in
    let rec walk acc = function
      | [] -> max
      | (ub, c) :: rest ->
        if acc + c >= rank then Int.min ub max else walk (acc + c) rest
    in
    walk 0 buckets
  end

let percentile t p = bucket_percentile (buckets t) ~count:t.count ~max:t.max p

let merge_into dst src =
  for i = 0 to n_buckets - 1 do
    dst.b.(i) <- dst.b.(i) + src.b.(i)
  done;
  dst.count <- dst.count + src.count;
  dst.sum <- dst.sum + src.sum;
  if src.max > dst.max then dst.max <- src.max

let reset t =
  Array.fill t.b 0 n_buckets 0;
  t.count <- 0;
  t.sum <- 0;
  t.max <- 0
