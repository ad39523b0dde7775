(* The result line: one JSON object on the last line of standard output,
   preceded by a human-readable table of the same metrics. *)

type metric = { name : string; value : float; unit : string }

let m name unit value = { name; value; unit }

let json_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

(* A metric that is not a finite number marks the run incorrect. *)
let print ~workload ~correct ~attempted ~failed metrics =
  let correct = correct && List.for_all (fun x -> Float.is_finite x.value) metrics in
  let metrics =
    List.map (fun x -> if Float.is_finite x.value then x else { x with value = 0.0 }) metrics
  in
  List.iter
    (fun x -> Printf.printf "%-18s %-36s %20s %s\n" workload x.name (json_float x.value) x.unit)
    metrics;
  let fields =
    List.map
      (fun x ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name (json_float x.value) x.unit)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " fields)
