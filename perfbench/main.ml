(* Eden benchmark entry point.

     main.exe --workload W --seed N --seconds S --trace 0|1
     main.exe --crosscheck

   Workloads: hot_flows, churn, sim_fig9.  With
   [--trace 0] the run reports the end-to-end metrics; with [--trace 1]
   it replays the same seeded traffic with per-layer spans and reports
   the per-layer metrics.  The last line of standard output is the JSON
   result.  [--crosscheck] compares the outside-in timer with the
   Bechamel row [micro/enclave/process compiled pias]. *)

open Perfbench

let usage () =
  prerr_endline
    "usage: main.exe --workload (hot_flows|churn|sim_fig9) --seed N --seconds S --trace (0|1)\n\
     \       main.exe --crosscheck";
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let crosscheck = ref false in
  let rec parse = function
    | "--workload" :: w :: rest ->
      workload := w;
      parse rest
    | "--seed" :: n :: rest ->
      seed := int_of_string n;
      parse rest
    | "--seconds" :: n :: rest ->
      seconds := int_of_string n;
      parse rest
    | "--trace" :: n :: rest ->
      trace := int_of_string n;
      parse rest
    | "--crosscheck" :: rest ->
      crosscheck := true;
      parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if !crosscheck then Layers.crosscheck ()
  else begin
    if !seconds < 1 || (!trace <> 0 && !trace <> 1) then usage ();
    let seed = Int64.of_int !seed and seconds = !seconds in
    let kind =
      match !workload with
      | "hot_flows" -> `Data Datapath.Hot
      | "churn" -> `Data Datapath.Churn
      | "sim_fig9" -> `Sim
      | _ -> usage ()
    in
    match (kind, !trace) with
    | `Data k, 0 -> E2e.datapath_e2e k ~workload:!workload ~seed ~seconds
    | `Sim, 0 -> E2e.sim_e2e ~workload:!workload ~seed ~seconds
    | `Data k, _ -> Layers.datapath_traced k ~workload:!workload ~seed ~seconds
    | `Sim, _ -> Layers.sim_traced ~workload:!workload ~seed ~seconds
  end
