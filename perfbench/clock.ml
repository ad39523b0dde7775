(* Monotonic wall clock in integer nanoseconds.  The read is a C stub
   returning an unboxed int64, so timing a call allocates nothing. *)

let ns () = Int64.to_int (Monotonic_clock.now ())

(* Median cost of one clock read, from back-to-back reads in batches so
   the loop overhead is amortised. *)
let read_cost_ns () =
  let batch = 1000 in
  let samples =
    Array.init 201 (fun _ ->
        let t0 = ns () in
        for _ = 2 to batch do
          ignore (Sys.opaque_identity (ns ()))
        done;
        float_of_int (ns () - t0) /. float_of_int batch)
  in
  Array.sort compare samples;
  samples.(Array.length samples / 2)
