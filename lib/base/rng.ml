(* The state is 8 bytes read and written as an unboxed [int64], so a
   draw allocates nothing (a mutable [int64] field would box every new
   state).  The compiler keeps the arithmetic below unboxed only while
   no [int64] crosses a call, hence the inlined [mix64] and [next]. *)
type t = Bytes.t

external get_state : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set_state : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden_gamma = 0x9E3779B97F4A7C15L

(* Finalizer from Steele et al., "Fast splittable pseudorandom number
   generators" (OOPSLA 2014). *)
let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed =
  let t = Bytes.create 8 in
  set_state t 0 (mix64 seed);
  t

(* Shard streams: the SplitMix split construction, applied statically.
   Stream [i] of a seed starts from an independently mixed point of the
   gamma sequence, so per-shard generators neither collide with each
   other nor with [create seed] itself (stream indices are offset by
   one), and a fixed (seed, shard count) always yields the same set of
   streams. *)
let stream_seed seed index =
  if index < 0 then invalid_arg "Rng.stream_seed: index must be non-negative";
  mix64
    (Int64.add
       (mix64 (Int64.logxor seed 0x5851F42D4C957F2DL))
       (Int64.mul (Int64.of_int (index + 1)) golden_gamma))

let[@inline] next t =
  let s = Int64.add (get_state t 0) golden_gamma in
  set_state t 0 s;
  mix64 s

let int64 t = next t

let split t = create (int64 t)

(* Rejection sampling to avoid modulo bias.  A top-level recursion over
   the [int] bound, so a retry builds no closure. *)
let rec below t bound =
  let b = Int64.of_int bound in
  let r = Int64.shift_right_logical (next t) 1 in
  let v = Int64.rem r b in
  if Int64.sub r v > Int64.sub (Int64.sub Int64.max_int b) 1L then below t bound
  else Int64.to_int v

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  below t bound

let float t bound =
  let r = Int64.shift_right_logical (next t) 11 in
  Int64.to_float r /. 9007199254740992.0 *. bound

let bool t = Int64.logand (next t) 1L = 1L
let bits t = Int64.to_int (Int64.shift_right_logical (next t) 34)

let exponential t mean =
  let u = float t 1.0 in
  (* Guard against log 0. *)
  let u = if u <= 0.0 then 1e-300 else u in
  -.mean *. log u

let choice t a =
  if Array.length a = 0 then invalid_arg "Rng.choice: empty array";
  a.(int t (Array.length a))

let weighted_index t w =
  let total = Array.fold_left ( +. ) 0.0 w in
  if total <= 0.0 then invalid_arg "Rng.weighted_index: weights must sum > 0";
  let x = float t total in
  let n = Array.length w in
  let rec go i acc =
    if i >= n - 1 then n - 1
    else
      let acc = acc +. w.(i) in
      if x < acc then i else go (i + 1) acc
  in
  go 0 0.0

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
