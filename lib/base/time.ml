type t = int64

let zero = 0L
let ns x = Int64.of_int x
let us x = Int64.mul (Int64.of_int x) 1_000L
let ms x = Int64.mul (Int64.of_int x) 1_000_000L
let sec x = Int64.of_float (x *. 1e9)
let add = Int64.add
let sub = Int64.sub
let mul t k = Int64.mul t (Int64.of_int k)
let div t k = Int64.div t (Int64.of_int k)
(* Monomorphic, with Stdlib's tie rule: [max a b] is [a] when [a >= b],
   [min a b] is [a] when [a <= b]. *)
let max a b = if Int64.compare a b >= 0 then a else b
let min a b = if Int64.compare a b <= 0 then a else b
let compare = Int64.compare
let ( <= ) a b = Int64.compare a b <= 0
let ( < ) a b = Int64.compare a b < 0
let ( >= ) a b = Int64.compare a b >= 0
let ( > ) a b = Int64.compare a b > 0
let to_ns t = t
let to_us t = Int64.to_float t /. 1e3
let to_ms t = Int64.to_float t /. 1e6
let to_sec t = Int64.to_float t /. 1e9
let of_float_ns f = Int64.of_float (Float.round f)

let pp fmt t =
  let f = Int64.to_float t in
  let open Stdlib in
  if Float.abs f >= 1e9 then Format.fprintf fmt "%.3fs" (f /. 1e9)
  else if Float.abs f >= 1e6 then Format.fprintf fmt "%.3fms" (f /. 1e6)
  else if Float.abs f >= 1e3 then Format.fprintf fmt "%.3fus" (f /. 1e3)
  else Format.fprintf fmt "%Ldns" t
