(** Deterministic discrete-event simulation engine.

    Every event has the key [(time, seq)], where [seq] is drawn from one
    engine-wide counter at the moment the event is armed: by {!schedule},
    {!schedule_at}, {!rearm}, {!rearm_at}, an {!every} recurrence, or a
    {!Delay_line.push}.  Events fire in key order, so equal times fire in
    arming order and runs are fully reproducible.

    Keys are held unboxed in a struct-of-arrays heap that tracks each
    handle's position: cancelling or re-arming updates the heap in place
    (O(log n)), and dispatch ({!step}, {!run}, {!run_slice}) allocates
    nothing of its own. *)

type t

type handle
(** An event that can be armed, re-armed and cancelled any number of
    times.  Armed at most once at a time: re-arming an armed handle moves
    its event. *)

val create : unit -> t

val now : t -> float
(** Current simulation time, seconds. *)

val handle : t -> (unit -> unit) -> handle
(** An unarmed handle that runs the action each time it fires.  Meant
    to be created once per timer site and re-armed. *)

val set_action : handle -> (unit -> unit) -> unit
(** Replace the action (ties the knot when the action needs the record
    that holds the handle). *)

val rearm : handle -> after:float -> unit
(** Arm (or move) the handle to fire at [now t +. after], with a fresh
    seq.  [after] is clamped to be non-negative. *)

val rearm_at : handle -> time:float -> unit
(** Absolute-time variant of {!rearm}; a [time] in the past fires at
    [now]. *)

val schedule : t -> after:float -> (unit -> unit) -> handle
(** [schedule t ~after f] runs [f] at [now t +. after]: a fresh handle,
    armed once.  [after] is clamped to be non-negative. *)

val schedule_at : t -> time:float -> (unit -> unit) -> handle
(** Absolute-time variant; [time] in the past fires immediately (at [now]). *)

val cancel : handle -> unit
(** Disarm.  Idempotent; cancelling a fired or unarmed handle is a
    no-op.  The event leaves the heap at once. *)

val is_pending : handle -> bool
(** Armed and not yet fired.  [false] while the handle's own action
    runs, so an action may re-arm its own handle. *)

val run : ?until:float -> t -> unit
(** Process events in order until the queue drains or the clock would pass
    [until] (the clock is left at [until] in that case). *)

val step : t -> bool
(** Process one event; [false] if the queue was empty. *)

val run_slice :
  ?max_events:int -> t -> until:float -> [ `Events | `Until | `Quiescent ]
(** Bounded batch of [run]: fire at most [max_events] events (default:
    unlimited) whose time is [<= until], in order.  Returns [`Events] when
    the budget stopped the slice (more work may remain before [until]),
    [`Until] when the next event lies beyond [until] (clock advanced to
    [until]), and [`Quiescent] when the queue drained (clock advanced to
    [until]).  Calling in a loop until a non-[`Events] result is
    equivalent to [run ~until].  This is the engine's event-batching seam:
    callers regain control between slices (progress reporting today,
    per-shard queue partitioning groundwork tomorrow). *)

val events_processed : t -> int
(** Total events fired since [create] (monotonic; instrumentation). *)

val pending_events : t -> int
(** Armed events not yet fired, delay-line entries included. *)

val every : t -> period:float -> ?start:float -> (unit -> unit) -> handle
(** Recurring event; cancelling the returned handle ends the recurrence
    (also from inside the action).  First firing at [now + start]
    (default: [now + period]); each next firing is armed after the
    action returns. *)

(** A FIFO of timed items in which only the head occupies the heap.

    Each entry is [(arrival time, seq, item, epoch)], its seq drawn at
    {!push}.  Entries are kept sorted by key, so the line's head is its
    minimum and the heap holding just the head fires everything in the
    same order as a heap holding every entry.  Pushes with a constant
    delay append; a shorter delay or a jitter sorts the entry in.  When
    the head fires it is popped and handed to the line's [deliver]
    callback with its epoch. *)
module Delay_line : sig
  type engine := t
  type 'a t

  val create : engine -> ('a -> int -> unit) -> 'a t
  (** [create e deliver]: an empty line; [deliver item epoch] runs when
      an entry fires. *)

  val set_deliver : 'a t -> ('a -> int -> unit) -> unit

  val push : 'a t -> delay:float -> jitter:float -> 'a -> epoch:int -> unit
  (** Enqueue [item] to arrive at [now +. max 0 (delay +. jitter)]
      seconds. *)

  val is_empty : 'a t -> bool
end
