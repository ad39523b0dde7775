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
    sizes : int array array;
        (* per level, a ring of the queued sizes: [heads.(p)] is the
           oldest, and the ring holds [Queue.length queues.(p)] of them.
           Ints need no box, so a push allocates only its queue cell.
           A level's ring is empty until its first push. *)
    heads : int array;
    capacity_bytes : int option;
    level_bytes : int array;
    mutable total_bytes : int;
    mutable total_count : int;
    mutable drop_count : int;
  }

  let create ?capacity_bytes () =
    {
      queues = Array.init levels (fun _ -> Queue.create ());
      sizes = Array.make levels [||];
      heads = Array.make levels 0;
      capacity_bytes;
      level_bytes = Array.make levels 0;
      total_bytes = 0;
      total_count = 0;
      drop_count = 0;
    }

  let kept_ring = 64

  (* Double level [p]'s full ring (an empty one to 16), oldest size
     first, so ring lengths stay powers of two. *)
  let grow_sizes t p =
    let ring = t.sizes.(p) and head = t.heads.(p) in
    let n = Array.length ring in
    let bigger = Array.make (Int.max 16 (2 * n)) 0 in
    Array.blit ring head bigger 0 (n - head);
    Array.blit ring 0 bigger (n - head) head;
    t.sizes.(p) <- bigger;
    t.heads.(p) <- 0

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
      let q = t.queues.(prio) in
      let n = Queue.length q in
      if n = Array.length t.sizes.(prio) then grow_sizes t prio;
      let ring = t.sizes.(prio) in
      ring.((t.heads.(prio) + n) land (Array.length ring - 1)) <- size;
      Queue.add x q;
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

  let take t =
    let p = highest_nonempty t in
    if p < 0 then raise Queue.Empty;
    let q = t.queues.(p) in
    let x = Queue.take q in
    let ring = t.sizes.(p) and head = t.heads.(p) in
    let size = ring.(head) in
    t.heads.(p) <- (head + 1) land (Array.length ring - 1);
    (* A drained level lets go of a ring grown past [kept_ring], so an
       idle buffer does not keep its peak depth live. *)
    if Queue.is_empty q && Array.length ring > kept_ring then begin
      t.sizes.(p) <- [||];
      t.heads.(p) <- 0
    end;
    t.level_bytes.(p) <- t.level_bytes.(p) - size;
    t.total_bytes <- t.total_bytes - size;
    t.total_count <- t.total_count - 1;
    x

  let pop t = if t.total_count = 0 then None else Some (take t)

  let peek t =
    let p = highest_nonempty t in
    if p < 0 then None else Queue.peek_opt t.queues.(p)

  let is_empty t = t.total_count = 0
  let length t = t.total_count
  let bytes t = t.total_bytes
  let drops t = t.drop_count
end
