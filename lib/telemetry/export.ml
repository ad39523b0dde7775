open Registry

let fmt_float f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%g" f

(* ------------------------------------------------------------------ *)
(* Human table *)

let to_table samples =
  let buf = Buffer.create 512 in
  let width =
    List.fold_left (fun w s -> max w (String.length s.s_name)) 6 samples
  in
  Buffer.add_string buf
    (Printf.sprintf "%-*s  %-9s  %s\n" width "metric" "kind" "value");
  Buffer.add_string buf
    (Printf.sprintf "%-*s  %-9s  %s\n" width "------" "----" "-----");
  List.iter
    (fun s ->
      let kind, value =
        match s.s_value with
        | Counter v -> ("counter", string_of_int v)
        | Gauge v -> ("gauge", fmt_float v)
        | Histogram h ->
            let mean =
              if h.count = 0 then 0.0
              else float_of_int h.sum /. float_of_int h.count
            in
            let pct = Histogram.bucket_percentile h.buckets ~count:h.count ~max:h.max in
            ( "histogram",
              Printf.sprintf "count=%d mean=%.1f p50=%d p99=%d max=%d" h.count
                mean (pct 50.0) (pct 99.0) h.max )
      in
      Buffer.add_string buf
        (Printf.sprintf "%-*s  %-9s  %s\n" width s.s_name kind value))
    samples;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Prometheus text exposition *)

let to_prometheus samples =
  let buf = Buffer.create 1024 in
  List.iter
    (fun s ->
      if s.s_help <> "" then
        Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n" s.s_name s.s_help);
      (match s.s_value with
      | Counter v ->
          Buffer.add_string buf (Printf.sprintf "# TYPE %s counter\n" s.s_name);
          Buffer.add_string buf (Printf.sprintf "%s %d\n" s.s_name v)
      | Gauge v ->
          Buffer.add_string buf (Printf.sprintf "# TYPE %s gauge\n" s.s_name);
          Buffer.add_string buf (Printf.sprintf "%s %s\n" s.s_name (fmt_float v))
      | Histogram h ->
          Buffer.add_string buf (Printf.sprintf "# TYPE %s histogram\n" s.s_name);
          let cum = ref 0 in
          List.iter
            (fun (ub, c) ->
              cum := !cum + c;
              Buffer.add_string buf
                (Printf.sprintf "%s_bucket{le=\"%d\"} %d\n" s.s_name ub !cum))
            h.buckets;
          Buffer.add_string buf
            (Printf.sprintf "%s_bucket{le=\"+Inf\"} %d\n" s.s_name h.count);
          Buffer.add_string buf (Printf.sprintf "%s_sum %d\n" s.s_name h.sum);
          Buffer.add_string buf (Printf.sprintf "%s_count %d\n" s.s_name h.count)))
    samples;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* JSON *)

let sample_to_json s =
  let base = [ ("name", Json.Str s.s_name) ] in
  let help = if s.s_help = "" then [] else [ ("help", Json.Str s.s_help) ] in
  let value =
    match s.s_value with
    | Counter v -> [ ("kind", Json.Str "counter"); ("value", Json.Num (float_of_int v)) ]
    | Gauge v -> [ ("kind", Json.Str "gauge"); ("value", Json.Num v) ]
    | Histogram h ->
        [
          ("kind", Json.Str "histogram");
          ("count", Json.Num (float_of_int h.count));
          ("sum", Json.Num (float_of_int h.sum));
          ("max", Json.Num (float_of_int h.max));
          ( "buckets",
            Json.Arr
              (List.map
                 (fun (ub, c) ->
                   Json.Obj
                     [
                       ("le", Json.Num (float_of_int ub));
                       ("count", Json.Num (float_of_int c));
                     ])
                 h.buckets) );
        ]
  in
  Json.Obj (base @ help @ value)

let to_json samples =
  Json.Obj [ ("metrics", Json.Arr (List.map sample_to_json samples)) ]

let to_json_string samples = Json.to_string (to_json samples)
