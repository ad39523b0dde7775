module Time = Eden_base.Time

type config = {
  br_window : int;
  br_min_samples : int;
  br_threshold : float;
  br_cooldown : Time.t;
}

let default = { br_window = 32; br_min_samples = 8; br_threshold = 0.5; br_cooldown = Time.us 100 }

type state = Closed | Open of Time.t  (* half-open probe time *) | Half_open

(* Outcome window as a bit queue in an int: newest at the LSB, oldest at
   bit [window - 1]; O(1) per invocation, no allocation. *)
type t = {
  mutable k_state : state;
  mutable k_hist : int;
  mutable k_count : int;
  mutable k_faults : int;
  mutable k_trips : int;
}

let create () = { k_state = Closed; k_hist = 0; k_count = 0; k_faults = 0; k_trips = 0 }

let reset_window k =
  k.k_hist <- 0;
  k.k_count <- 0;
  k.k_faults <- 0

let reset k =
  k.k_state <- Closed;
  reset_window k

let admit k ~now =
  match k.k_state with
  | Closed | Half_open -> true
  | Open probe_at ->
    if Time.( >= ) now probe_at then begin
      k.k_state <- Half_open;
      true
    end
    else false

let record k cfg ~now ~faulted =
  match k.k_state with
  | Half_open ->
    if faulted then begin
      k.k_state <- Open (Time.add now cfg.br_cooldown);
      k.k_trips <- k.k_trips + 1
    end
    else k.k_state <- Closed
  | Open _ -> ()
  | Closed ->
    if k.k_count = cfg.br_window then begin
      let oldest = (k.k_hist lsr (cfg.br_window - 1)) land 1 in
      k.k_faults <- k.k_faults - oldest;
      k.k_count <- k.k_count - 1
    end;
    k.k_hist <- ((k.k_hist lsl 1) lor (if faulted then 1 else 0)) land ((1 lsl cfg.br_window) - 1);
    k.k_count <- k.k_count + 1;
    if faulted then k.k_faults <- k.k_faults + 1;
    if
      k.k_count >= cfg.br_min_samples
      && float_of_int k.k_faults >= cfg.br_threshold *. float_of_int k.k_count
    then begin
      k.k_state <- Open (Time.add now cfg.br_cooldown);
      k.k_trips <- k.k_trips + 1;
      reset_window k
    end

let state k = match k.k_state with Closed -> `Closed | Open _ -> `Open | Half_open -> `Half_open
let trips k = k.k_trips
