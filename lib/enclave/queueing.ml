module Time = Eden_base.Time

module Token_bucket = struct
  type t = {
    rate_bps : float;
    burst_bytes : int;
    mutable tokens : float;  (* bytes *)
    mutable last_update : Time.t;
  }

  let create ~rate_bps ~burst_bytes =
    if rate_bps <= 0.0 then invalid_arg "Token_bucket.create: rate must be positive";
    { rate_bps; burst_bytes; tokens = float_of_int burst_bytes; last_update = Time.zero }

  let refill t ~now =
    if Time.( > ) now t.last_update then begin
      let elapsed_s = Time.to_sec (Time.sub now t.last_update) in
      t.tokens <-
        Float.min
          (float_of_int t.burst_bytes)
          (t.tokens +. (elapsed_s *. t.rate_bps /. 8.0));
      t.last_update <- now
    end

  let wait_for t deficit_bytes =
    Time.of_float_ns (deficit_bytes *. 8.0 /. t.rate_bps *. 1e9)

  let consume t ~now ~cost_bytes =
    refill t ~now;
    let deficit = float_of_int cost_bytes -. t.tokens in
    t.tokens <- t.tokens -. float_of_int cost_bytes;
    if deficit <= 0.0 then now else Time.add now (wait_for t deficit)
end

module Priority = struct
  let levels = 8

  type 'a t = {
    queues : 'a Queue.t array;  (* index = priority *)
    sizes : int Queue.t array;
    capacity_bytes : int option;
    level_bytes : int array;
    mutable total_bytes : int;
    mutable total_count : int;
    mutable drop_count : int;
  }

  let create ?capacity_bytes () =
    {
      queues = Array.init levels (fun _ -> Queue.create ());
      sizes = Array.init levels (fun _ -> Queue.create ());
      capacity_bytes;
      level_bytes = Array.make levels 0;
      total_bytes = 0;
      total_count = 0;
      drop_count = 0;
    }

  (* The byte budget applies per priority level (hardware priority queues
     have their own buffers), so bulk low-priority traffic cannot crowd
     out latency-sensitive high-priority packets. *)
  let push t ~prio ~size x =
    let prio = max 0 (min (levels - 1) prio) in
    let fits =
      match t.capacity_bytes with
      | None -> true
      | Some cap -> t.level_bytes.(prio) + size <= cap
    in
    if fits then begin
      Queue.add x t.queues.(prio);
      Queue.add size t.sizes.(prio);
      t.level_bytes.(prio) <- t.level_bytes.(prio) + size;
      t.total_bytes <- t.total_bytes + size;
      t.total_count <- t.total_count + 1;
      true
    end
    else begin
      t.drop_count <- t.drop_count + 1;
      false
    end

  (* The highest non-empty level, or -1 when every level is empty. *)
  let highest_nonempty t =
    let p = ref (levels - 1) in
    while !p >= 0 && Queue.is_empty t.queues.(!p) do
      decr p
    done;
    !p

  let pop t =
    let p = highest_nonempty t in
    if p < 0 then None
    else begin
      let x = Queue.pop t.queues.(p) in
      let size = Queue.pop t.sizes.(p) in
      t.level_bytes.(p) <- t.level_bytes.(p) - size;
      t.total_bytes <- t.total_bytes - size;
      t.total_count <- t.total_count - 1;
      Some x
    end

  let peek t =
    let p = highest_nonempty t in
    if p < 0 then None else Queue.peek_opt t.queues.(p)

  let is_empty t = t.total_count = 0
  let length t = t.total_count
  let bytes t = t.total_bytes
  let drops t = t.drop_count
end
