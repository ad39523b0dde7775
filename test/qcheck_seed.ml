(* One pinned qcheck seed for every suite, so a failing property
   replays; EDEN_QCHECK_SEED explores other seeds.  Each suite prints
   the seed it ran with [announce] before its tests. *)

let seed =
  match Sys.getenv_opt "EDEN_QCHECK_SEED" with Some s -> int_of_string s | None -> 0x5eed

let qcheck t = QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| seed |]) t
let announce () = Printf.printf "qcheck seed: %d (set EDEN_QCHECK_SEED to override)\n%!" seed
