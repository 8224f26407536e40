(* The event heap is struct-of-arrays: keys live unboxed in [times] (a
   flat float array) and [seqs], the handle to fire in [slots].  Each
   handle records its heap index, so cancelling and re-arming update the
   heap in place: there are no dead entries to discard or compact, and
   [step]/[run]/[run_slice] allocate nothing of their own.

   Ordering rule: an event's key is [(time, seq)], with [seq] drawn from
   [next_seq] at the moment the event is armed ([schedule], [rearm], a
   delay-line [push]).  Re-arming draws a fresh seq.  Equal times
   therefore fire in arming order. *)

type t = {
  mutable clock : float;
  mutable next_seq : int;
  mutable times : float array;
  mutable seqs : int array;
  mutable slots : handle array;
  mutable size : int;
  mutable parked : int;
      (** delay-line entries waiting behind their line's head (only the
          head of each line has a heap entry) *)
  mutable processed : int;  (** events fired over the engine's lifetime *)
}

and handle = {
  owner : t;
  mutable action : unit -> unit;
  mutable pos : int;  (** heap index while armed, else [idle]/[firing] *)
}

let idle = -1

(* An [every] handle between being popped and re-arming itself; a
   [cancel] meanwhile resets it to [idle], which ends the recurrence. *)
let firing = -2

let create () =
  {
    clock = 0.0;
    next_seq = 0;
    times = [||];
    seqs = [||];
    slots = [||];
    size = 0;
    parked = 0;
    processed = 0;
  }

let now t = t.clock

(* -- heap ------------------------------------------------------------- *)

let less t i j =
  let a = t.times.(i) and b = t.times.(j) in
  a < b || (a = b && t.seqs.(i) < t.seqs.(j))

let swap t i j =
  let times = t.times and seqs = t.seqs and slots = t.slots in
  let ti = times.(i) and si = seqs.(i) and hi = slots.(i) and hj = slots.(j) in
  times.(i) <- times.(j);
  times.(j) <- ti;
  seqs.(i) <- seqs.(j);
  seqs.(j) <- si;
  slots.(i) <- hj;
  hj.pos <- i;
  slots.(j) <- hi;
  hi.pos <- j

(* The sift loops recurse on indices (no while+ref) and return where the
   entry came to rest. *)
let rec sift_up t i =
  if i > 0 && less t i ((i - 1) / 2) then begin
    swap t i ((i - 1) / 2);
    sift_up t ((i - 1) / 2)
  end
  else i

let rec sift_down t i =
  let l = (2 * i) + 1 in
  let r = l + 1 in
  let m = if l < t.size && less t l i then l else i in
  let m = if r < t.size && less t r m then r else m in
  if m <> i then begin
    swap t i m;
    sift_down t m
  end

let grow t h =
  let cap = Array.length t.seqs in
  let ncap = max 16 (2 * cap) in
  (* doubling growth: amortized O(1), not a steady-state allocation *)
  let times = Array.make ncap 0.0 in
  let seqs = Array.make ncap 0 in
  let slots = Array.make ncap h in
  Array.blit t.times 0 times 0 t.size;
  Array.blit t.seqs 0 seqs 0 t.size;
  Array.blit t.slots 0 slots 0 t.size;
  t.times <- times;
  t.seqs <- seqs;
  t.slots <- slots
[@@leotp.allow "hot-path-may-alloc"]

(* Heap index for [h]'s key: its current entry when armed, else a fresh
   entry at the end.  The caller writes the key, then calls [settle]. *)
let slot_for t h =
  if h.pos >= 0 then h.pos
  else begin
    if t.size = Array.length t.seqs then grow t h;
    let i = t.size in
    t.size <- i + 1;
    t.slots.(i) <- h;
    h.pos <- i;
    i
  end

let settle t i = sift_down t (sift_up t i)

(* Slots past [size] keep a stale handle until overwritten: clearing
   them would cost a write barrier per pop. *)
let remove_at t i =
  let h = t.slots.(i) in
  h.pos <- idle;
  let last = t.size - 1 in
  t.size <- last;
  if i < last then begin
    let moved = t.slots.(last) in
    t.times.(i) <- t.times.(last);
    t.seqs.(i) <- t.seqs.(last);
    t.slots.(i) <- moved;
    moved.pos <- i;
    settle t i
  end

(* Arm [h] at [time] with a fresh seq.  Inlined so [time] stays an
   unboxed float from the caller's arithmetic to the key array. *)
let[@inline] arm t h time =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let i = slot_for t h in
  t.times.(i) <- time;
  t.seqs.(i) <- seq;
  settle t i

(* [clock + max 0 after], the time an [~after] delay lands on. *)
let[@inline] after_now t after = t.clock +. if after > 0.0 then after else 0.0

(* -- handles ---------------------------------------------------------- *)

(* One record per timer site, made at set-up and re-armed from then on
   (or one per [schedule], the one-shot API). *)
let handle t action =
  ({ owner = t; action; pos = idle } [@leotp.allow "hot-path-may-alloc"])
let set_action h action = h.action <- action
let is_pending h = h.pos >= 0
let rearm h ~after = arm h.owner h (after_now h.owner after)

let rearm_at h ~time =
  let t = h.owner in
  arm t h (if time > t.clock then time else t.clock)

let cancel h = if h.pos >= 0 then remove_at h.owner h.pos else h.pos <- idle

let schedule t ~after action =
  let h = handle t action in
  arm t h (after_now t after);
  h

let schedule_at t ~time action =
  let h = handle t action in
  rearm_at h ~time;
  h

let every t ~period ?start action =
  assert (period > 0.0);
  let start = match start with Some s -> s | None -> period in
  let h = handle t ignore in
  (* The next firing is armed after [action] returns, so its seq comes
     after anything [action] scheduled. *)
  h.action <-
    (fun () ->
      h.pos <- firing;
      action ();
      if h.pos = firing then rearm h ~after:period);
  rearm h ~after:start;
  h

(* -- dispatch --------------------------------------------------------- *)

let step t =
  if t.size = 0 then false
  else begin
    let time = t.times.(0) and h = t.slots.(0) in
    remove_at t 0;
    if time > t.clock then t.clock <- time;
    t.processed <- t.processed + 1;
    h.action ();
    true
  end

let advance_to t limit = if limit > t.clock then t.clock <- limit

let rec run_until t limit =
  if t.size > 0 && t.times.(0) <= limit then begin
    ignore (step t);
    run_until t limit
  end
  else advance_to t limit

let run ?until t =
  match until with
  | None -> while step t do () done
  | Some limit -> run_until t limit

(* Bounded variant of [run]: fire at most [max_events] events with
   [time <= until].  The caller loops, regaining control between slices —
   the seam where a progress callback runs today and where a partitioned
   (per-shard) queue would hand control across shards tomorrow. *)
let rec slice_loop t ~until budget fired =
  if fired >= budget then `Events
  else if t.size = 0 then begin
    advance_to t until;
    `Quiescent
  end
  else if t.times.(0) <= until then begin
    ignore (step t);
    slice_loop t ~until budget (fired + 1)
  end
  else begin
    advance_to t until;
    `Until
  end

let run_slice ?max_events t ~until =
  let budget = match max_events with None -> max_int | Some n -> max 1 n in
  slice_loop t ~until budget 0

let pending_events t = t.size + t.parked
let events_processed t = t.processed

(* -- delay lines ------------------------------------------------------ *)

module Delay_line = struct
  (* A ring of entries sorted by key.  Only the head has a heap entry
     (through [head]), keyed by the head's [(time, seq)]: the heap's
     minimum is then the same event it would be with every entry in the
     heap, at one heap entry per line. *)
  type 'a line = {
    eng : t;
    head : handle;
    mutable at : float array;
    mutable sq : int array;
    mutable items : 'a array;
    mutable epochs : int array;
    mutable first : int;
    mutable len : int;
    mutable deliver : 'a -> int -> unit;
  }

  type 'a t = 'a line

  let is_empty l = l.len = 0
  let set_deliver l f = l.deliver <- f

  (* (Re)key the line's heap entry to its current head. *)
  let rekey l =
    let e = l.eng in
    let i = slot_for e l.head in
    e.times.(i) <- l.at.(l.first);
    e.seqs.(i) <- l.sq.(l.first);
    settle e i

  (* Pop the head, re-key the line to the next entry, then deliver: the
     line's invariant holds again before [deliver] can push onto it.
     Popped slots keep their stale item until overwritten. *)
  let fire l =
    let f = l.first in
    let x = l.items.(f) and epoch = l.epochs.(f) in
    l.first <- (f + 1) land (Array.length l.sq - 1);
    l.len <- l.len - 1;
    if l.len > 0 then begin
      l.eng.parked <- l.eng.parked - 1;
      rekey l
    end;
    l.deliver x epoch

  let create eng deliver =
    let l =
      {
        eng;
        head = handle eng ignore;
        at = [||];
        sq = [||];
        items = [||];
        epochs = [||];
        first = 0;
        len = 0;
        deliver;
      }
    in
    l.head.action <- (fun () -> fire l);
    l

  (* Capacity stays a power of two so ring indices wrap with a mask.
     The new item fills the fresh array's unused slots. *)
  let grow l x =
    let cap = Array.length l.sq in
    let ncap = max 8 (2 * cap) in
    (* doubling growth: amortized O(1), not a steady-state allocation *)
    let at = Array.make ncap 0.0 in
    let sq = Array.make ncap 0 in
    let items = Array.make ncap x in
    let epochs = Array.make ncap 0 in
    for k = 0 to l.len - 1 do
      let j = (l.first + k) land (cap - 1) in
      at.(k) <- l.at.(j);
      sq.(k) <- l.sq.(j);
      items.(k) <- l.items.(j);
      epochs.(k) <- l.epochs.(j)
    done;
    l.at <- at;
    l.sq <- sq;
    l.items <- items;
    l.epochs <- epochs;
    l.first <- 0
  [@@leotp.allow "hot-path-may-alloc"]

  let swap l a b =
    let ta = l.at.(a) and sa = l.sq.(a) and xa = l.items.(a) and ea = l.epochs.(a) in
    l.at.(a) <- l.at.(b);
    l.sq.(a) <- l.sq.(b);
    l.items.(a) <- l.items.(b);
    l.epochs.(a) <- l.epochs.(b);
    l.at.(b) <- ta;
    l.sq.(b) <- sa;
    l.items.(b) <- xa;
    l.epochs.(b) <- ea

  (* Move the entry at ring offset [k] towards the head past every entry
     with a later time; returns its final offset.  Its seq is the
     newest, so among equal times it stays last. *)
  let rec sink_back l k =
    if k = 0 then 0
    else begin
      let mask = Array.length l.sq - 1 in
      let a = (l.first + k - 1) land mask and b = (l.first + k) land mask in
      if l.at.(a) > l.at.(b) then begin
        swap l a b;
        sink_back l (k - 1)
      end
      else k
    end

  let push l ~delay ~jitter x ~epoch =
    let e = l.eng in
    let seq = e.next_seq in
    e.next_seq <- seq + 1;
    if l.len = Array.length l.sq then grow l x;
    let k = l.len in
    let j = (l.first + k) land (Array.length l.sq - 1) in
    l.at.(j) <- after_now e (delay +. jitter);
    l.sq.(j) <- seq;
    l.items.(j) <- x;
    l.epochs.(j) <- epoch;
    l.len <- k + 1;
    (* FIFO pushes end at offset k; a reordering jitter or a shortened
       delay sorts the entry in, and a new head re-keys the line. *)
    if k = 0 then rekey l
    else begin
      e.parked <- e.parked + 1;
      if sink_back l k = 0 then rekey l
    end
end
