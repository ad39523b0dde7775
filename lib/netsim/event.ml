module Time = Eden_base.Time

(* Binary min-heap ordered by (at, seq), laid out as three parallel
   arrays: times in integer nanoseconds, schedule sequence numbers, and
   the closures, so that scheduling stores two ints and a pointer and
   popping allocates nothing. *)
type t = {
  mutable times : int array;
  mutable seqs : int array;
  mutable fires : (unit -> unit) array;
  mutable size : int;
  mutable clock : int;
  mutable next_seq : int;
}

let initial_slots = 256
let nothing () = ()

let create () =
  {
    times = Array.make initial_slots 0;
    seqs = Array.make initial_slots 0;
    fires = Array.make initial_slots nothing;
    size = 0;
    clock = 0;
    next_seq = 0;
  }

let now_ticks t = t.clock
let now t = Int64.of_int t.clock

(* Times beyond the 63-bit int range (146 years of nanoseconds)
   saturate. *)
let ticks (at : Time.t) =
  if Int64.compare at (Int64.of_int max_int) >= 0 then max_int
  else if Int64.compare at (Int64.of_int min_int) <= 0 then min_int
  else Int64.to_int at

let grow t =
  let n = 2 * Array.length t.times in
  let extend a fill =
    let b = Array.make n fill in
    Array.blit a 0 b 0 t.size;
    b
  in
  t.times <- extend t.times 0;
  t.seqs <- extend t.seqs 0;
  t.fires <- extend t.fires nothing

(* Insert at tick [at]: walk the hole up from the end, moving later
   parents down, then fill it. *)
let insert t at fire =
  if t.size = Array.length t.times then grow t;
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let times = t.times and seqs = t.seqs and fires = t.fires in
  let i = ref t.size in
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    let pt = Array.unsafe_get times parent in
    (* [seq] is the largest yet, so it loses every tie. *)
    if at < pt then begin
      Array.unsafe_set times !i pt;
      Array.unsafe_set seqs !i (Array.unsafe_get seqs parent);
      Array.unsafe_set fires !i (Array.unsafe_get fires parent);
      i := parent
    end
    else continue := false
  done;
  Array.unsafe_set times !i at;
  Array.unsafe_set seqs !i seq;
  Array.unsafe_set fires !i fire;
  t.size <- t.size + 1

let schedule_at_ticks t at fire = insert t (if at < t.clock then t.clock else at) fire

let schedule_in_ticks t d fire =
  let at = if d <= 0 then t.clock else if d > max_int - t.clock then max_int else t.clock + d in
  insert t at fire

let schedule_at t at fire = schedule_at_ticks t (ticks at) fire
let schedule_in t delta fire = schedule_in_ticks t (ticks delta) fire

let pending t = t.size

(* Remove the root: move the last entry into the hole at the top and
   sift it down.  The vacated slot drops its closure so a fired event
   is not kept reachable. *)
let remove_min t =
  let times = t.times and seqs = t.seqs and fires = t.fires in
  let last = t.size - 1 in
  t.size <- last;
  let at = Array.unsafe_get times last
  and seq = Array.unsafe_get seqs last
  and fire = Array.unsafe_get fires last in
  Array.unsafe_set fires last nothing;
  if last > 0 then begin
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= last then continue := false
      else begin
        let r = l + 1 in
        let c =
          if r < last then begin
            let tl = Array.unsafe_get times l and tr = Array.unsafe_get times r in
            if tr < tl || (tr = tl && Array.unsafe_get seqs r < Array.unsafe_get seqs l) then r
            else l
          end
          else l
        in
        let tc = Array.unsafe_get times c in
        if tc < at || (tc = at && Array.unsafe_get seqs c < seq) then begin
          Array.unsafe_set times !i tc;
          Array.unsafe_set seqs !i (Array.unsafe_get seqs c);
          Array.unsafe_set fires !i (Array.unsafe_get fires c);
          i := c
        end
        else continue := false
      end
    done;
    Array.unsafe_set times !i at;
    Array.unsafe_set seqs !i seq;
    Array.unsafe_set fires !i fire
  end

(* Precondition: the calendar is not empty. *)
let fire_next t =
  let at = Array.unsafe_get t.times 0 and fire = Array.unsafe_get t.fires 0 in
  remove_min t;
  t.clock <- at;
  fire ()

let step t =
  if t.size = 0 then false
  else begin
    fire_next t;
    true
  end

let run ?until ?max_events t =
  let stop = match until with Some u -> ticks u | None -> max_int in
  let budget = match max_events with Some m -> m | None -> max_int in
  let fired = ref 0 in
  while !fired < budget && t.size > 0 && t.times.(0) <= stop do
    fire_next t;
    incr fired
  done;
  (* When stopped by [until] (not by [max_events]), advance the clock to
     the horizon so repeated bounded runs observe monotonic time. *)
  match until with
  | Some _ ->
    if (t.size = 0 || t.times.(0) > stop) && t.clock < stop then t.clock <- stop
  | None -> ()
