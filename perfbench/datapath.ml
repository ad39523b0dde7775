(* The data-path workloads: a closed loop over the send path.  The caller
   classifies each application message once at its stage, then hands
   the message's packets to the enclave one at a time, each after the
   previous one returned, like a host's transmit path. *)

module Packet = Eden_base.Packet
module Metadata = Eden_base.Metadata
module Enclave = Eden_enclave.Enclave
module Shard = Eden_enclave.Shard

type kind = Hot | Churn

type workload = {
  kind : kind;
  seed : int64;
  warm : Traffic.t;  (* untimed: fills flow ids and caches *)
  timed : Traffic.t;
}

let hot_packets = 60_000
let churn_messages = 24_000

let make kind ~seed =
  match kind with
  | Hot ->
    let s = Traffic.hot ~seed ~packets:hot_packets in
    { kind; seed; warm = s; timed = s }
  | Churn ->
    {
      kind;
      seed;
      warm = Traffic.churn ~seed:(Int64.logxor seed 0x5eedL) ~messages:(churn_messages / 10);
      timed = Traffic.churn ~seed ~messages:churn_messages;
    }

let churn w = w.kind = Churn

(* A packet's observable treatment: the decision plus the mutations
   [process] applies (priority, route label), packed into one int. *)
let outcome d (p : Packet.t) =
  match d with
  | Enclave.Dropped _ -> -1
  | Enclave.Forward { queue; charge } ->
    let q = match queue with None -> 0 | Some q -> q + 1 in
    let r = match p.Packet.route_label with None -> 0 | Some r -> r + 1 in
    (((((charge * 64) + q) * 65_536) + r) * 8) + p.Packet.priority

let reset (p : Packet.t) md =
  p.Packet.metadata <- md;
  p.Packet.priority <- 0;
  p.Packet.route_label <- None;
  p.Packet.ecn <- false

(* Simulated send time of packet [i] of a stream that starts at [base]. *)
let now_of ~base i = Int64.of_int (1_000 * (base + i + 1))

let timed_base w = Traffic.packets w.warm

(* Untimed replay with a per-packet callback, which gets the packet's
   index and stage metadata, the packet and the decision; raises
   propagate. *)
let replay (sut : Policy.t) (s : Traffic.t) ~base ~pushes f =
  Array.iter
    (fun (m : Traffic.msg) ->
      let md = Policy.classify sut m in
      for k = 0 to m.Traffic.m_count - 1 do
        let i = m.Traffic.m_first + k in
        if pushes && i > 0 && i mod Policy.push_every = 0 then
          Policy.control_push sut (i / Policy.push_every);
        let p = s.Traffic.pkts.(i) in
        reset p md;
        let d = Enclave.process sut.Policy.enclave ~now:(now_of ~base i) p in
        f i md p d;
        if m.Traffic.m_close && k = m.Traffic.m_count - 1 then Policy.close_flow sut p md
      done)
    s.Traffic.msgs

let setup w ~engine =
  let sut = Policy.create ~churn:(churn w) ~engine ~seed:w.seed () in
  replay sut w.warm ~base:0 ~pushes:false (fun _ _ _ _ -> ());
  sut

let faults (sut : Policy.t) =
  Policy.scrape_counter (Enclave.scrape sut.Policy.enclave) "eden_enclave_faults_total"

(* The output oracle: the same stream through a second enclave built the
   same way but with every compiled action swapped for its interpreted
   build.  Returns the reference outcome of every timed packet and the
   number of packets whose treatment differs, raised, or faulted. *)
let oracle w =
  let n = Traffic.packets w.timed in
  let reference = Array.make n 0 in
  let failed = ref 0 in
  let side engine f =
    let sut = setup w ~engine in
    let f0 = faults sut in
    (try replay sut w.timed ~base:(timed_base w) ~pushes:(churn w) f
     with e ->
       Printf.eprintf "perfbench: %s replay raised %s\n%!"
         (match engine with Policy.Compiled -> "compiled" | Policy.Interpreted -> "interpreted")
         (Printexc.to_string e);
       failed := n);
    failed := !failed + (faults sut - f0)
  in
  side Policy.Interpreted (fun i _ p d -> reference.(i) <- outcome d p);
  side Policy.Compiled (fun i _ p d -> if outcome d p <> reference.(i) then incr failed);
  (reference, min n !failed)

type episode = {
  setup_ns : int;
  packets : int;
  wall_ns : int;
  words : float;  (* minor words allocated in the timed region *)
  failed : int;
  live_words : int option;  (* live major heap kept by the system under test *)
  gc : float * float * float;  (* minor collections, major collections, promoted words *)
}

let gc_counts () =
  let s = Gc.quick_stat () in
  ( float_of_int s.Gc.minor_collections,
    float_of_int s.Gc.major_collections,
    s.Gc.promoted_words )

let gc_delta (a, b, c) (a', b', c') = (a' -. a, b' -. b, c' -. c)

let live_words () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words

(* One episode: fresh set-up (policy push + warm-up), then one timed pass
   over the stream.  Every packet's wall time goes into [times]; every
   packet's outcome is checked against [reference]. *)
let episode w ~reference ~times ~measure_live =
  let live0 = if measure_live then live_words () else 0 in
  let t0 = Clock.ns () in
  let sut = setup w ~engine:Policy.Compiled in
  let setup_ns = Clock.ns () - t0 in
  let e = sut.Policy.enclave in
  let s = w.timed in
  let base = timed_base w and pushes = churn w in
  let f0 = faults sut in
  (* Every pass starts from the same heap, so the collector does the same
     work at the same points and the windows line up. *)
  Gc.full_major ();
  let failed = ref 0 in
  let g0 = gc_counts () in
  let w0 = Gc.minor_words () in
  let start = Clock.ns () in
  let prev = ref start in
  Array.iter
    (fun (m : Traffic.msg) ->
      let md = Policy.classify sut m in
      for k = 0 to m.Traffic.m_count - 1 do
        let i = m.Traffic.m_first + k in
        if pushes && i > 0 && i mod Policy.push_every = 0 then
          Policy.control_push sut (i / Policy.push_every);
        let p = s.Traffic.pkts.(i) in
        reset p md;
        (match Enclave.process e ~now:(now_of ~base i) p with
        | d -> if outcome d p <> reference.(i) then incr failed
        | exception _ -> incr failed);
        if m.Traffic.m_close && k = m.Traffic.m_count - 1 then Policy.close_flow sut p md;
        let t = Clock.ns () in
        Windows.add times (t - !prev);
        prev := t
      done)
    s.Traffic.msgs;
  let wall_ns = !prev - start in
  let words = Gc.minor_words () -. w0 in
  let gc = gc_delta g0 (gc_counts ()) in
  let failed = !failed + (faults sut - f0) in
  let live_words = if measure_live then Some (live_words () - live0) else None in
  ignore (Sys.opaque_identity sut);
  { setup_ns; packets = Traffic.packets s; wall_ns; words; failed; live_words; gc }

(* Minor words allocated by every domain: a minor collection is
   stop-the-world, so afterwards each domain's count is current. *)
let all_domain_minor_words () =
  Gc.minor ();
  (Gc.quick_stat ()).Gc.minor_words

let shard_processed sh = (Shard.counters sh).Enclave.packets

(* Feed a stream, then drain; returns the wall time of the final drain.
   [hist] gets each packet's producer-side time (classify + feed),
   [feed_hist] the [Shard.feed] call alone. *)
let feed_stream ?feed_hist (sut : Policy.t) sh (s : Traffic.t) ~base ~hist =
  let prev = ref (Clock.ns ()) in
  Array.iter
    (fun (m : Traffic.msg) ->
      let md = Policy.classify sut m in
      for k = 0 to m.Traffic.m_count - 1 do
        let i = m.Traffic.m_first + k in
        let p = s.Traffic.pkts.(i) in
        reset p md;
        let f0 = match feed_hist with Some _ -> Clock.ns () | None -> 0 in
        Shard.feed sh ~now:(now_of ~base i) p;
        let t = Clock.ns () in
        (match feed_hist with Some h -> Hist.add h (t - f0) | None -> ());
        (match hist with Some h -> Hist.add h (t - !prev) | None -> ());
        prev := t
      done)
    s.Traffic.msgs;
  let d0 = Clock.ns () in
  Shard.drain sh;
  Clock.ns () - d0

(* The same stream fed through [Shard.feed]/[drain] with the default
   shard count, for the traced runs' shard rows.  [hist] gets the
   producer's per-packet time (classify + feed); decisions are discarded
   by [feed], so the check is that every fed packet was processed without
   a worker error.  Also returns the front-end's own figures for the
   pass. *)
type shard_stats = { drain_ns : int; backpressure : int; parks : int }

let sharded_episode ?feed_hist w ~hist ~measure_live =
  let live0 = if measure_live then live_words () else 0 in
  let t0 = Clock.ns () in
  let sut = Policy.create ~churn:(churn w) ~engine:Policy.Compiled ~seed:w.seed () in
  let sh =
    match Shard.create sut.Policy.enclave with
    | Ok sh -> sh
    | Error msg -> failwith ("perfbench: Shard.create: " ^ msg)
  in
  ignore (feed_stream sut sh w.warm ~base:0 ~hist:None);
  let setup_ns = Clock.ns () - t0 in
  let before = shard_processed sh in
  let bp0 = Shard.backpressure_waits sh and cp0 = Shard.consumer_parks sh in
  let g0 = gc_counts () in
  let w0 = all_domain_minor_words () in
  let start = Clock.ns () in
  let drain_ns = feed_stream ?feed_hist sut sh w.timed ~base:(timed_base w) ~hist:(Some hist) in
  let wall_ns = Clock.ns () - start in
  let words = all_domain_minor_words () -. w0 in
  let gc = gc_delta g0 (gc_counts ()) in
  let stats =
    {
      drain_ns;
      backpressure = Shard.backpressure_waits sh - bp0;
      parks = Shard.consumer_parks sh - cp0;
    }
  in
  let fed = Traffic.packets w.timed in
  let processed = shard_processed sh - before in
  let failed = abs (fed - processed) + Shard.worker_errors sh in
  let live_words = if measure_live then Some (live_words () - live0) else None in
  Shard.stop sh;
  ignore (Sys.opaque_identity sut);
  ({ setup_ns; packets = fed; wall_ns; words; failed; live_words; gc }, stats)
