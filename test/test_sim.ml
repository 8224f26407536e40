(* Tests for the discrete-event engine: ordering, determinism, timers. *)

open Leotp_sim

let test_event_order () =
  let e = Engine.create () in
  let log = ref [] in
  let note tag () = log := (tag, Engine.now e) :: !log in
  ignore (Engine.schedule e ~after:2.0 (note "b"));
  ignore (Engine.schedule e ~after:1.0 (note "a"));
  ignore (Engine.schedule e ~after:3.0 (note "c"));
  Engine.run e;
  Alcotest.(check (list (pair string (float 1e-9))))
    "order and times"
    [ ("a", 1.0); ("b", 2.0); ("c", 3.0) ]
    (List.rev !log)

let test_same_time_fifo () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 0 to 9 do
    ignore (Engine.schedule e ~after:1.0 (fun () -> log := i :: !log))
  done;
  Engine.run e;
  Alcotest.(check (list int))
    "FIFO among equal times"
    [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    (List.rev !log)

let test_schedule_from_handler () =
  let e = Engine.create () in
  let log = ref [] in
  ignore
    (Engine.schedule e ~after:1.0 (fun () ->
         log := ("outer", Engine.now e) :: !log;
         ignore
           (Engine.schedule e ~after:0.5 (fun () ->
                log := ("inner", Engine.now e) :: !log))));
  Engine.run e;
  Alcotest.(check (list (pair string (float 1e-9))))
    "nested schedule"
    [ ("outer", 1.0); ("inner", 1.5) ]
    (List.rev !log)

let test_cancel () =
  let e = Engine.create () in
  let fired = ref false in
  let t = Engine.schedule e ~after:1.0 (fun () -> fired := true) in
  Alcotest.(check bool) "pending" true (Engine.is_pending t);
  Engine.cancel t;
  Alcotest.(check bool) "not pending" false (Engine.is_pending t);
  Engine.run e;
  Alcotest.(check bool) "not fired" false !fired;
  Engine.cancel t (* idempotent *)

let test_run_until () =
  let e = Engine.create () in
  let count = ref 0 in
  for i = 1 to 10 do
    ignore (Engine.schedule e ~after:(float_of_int i) (fun () -> incr count))
  done;
  Engine.run ~until:5.5 e;
  Alcotest.(check int) "only first five" 5 !count;
  Alcotest.(check (float 1e-9)) "clock at limit" 5.5 (Engine.now e);
  Engine.run e;
  Alcotest.(check int) "rest" 10 !count

let test_run_slice () =
  let e = Engine.create () in
  let count = ref 0 in
  for i = 1 to 10 do
    ignore (Engine.schedule e ~after:(float_of_int i) (fun () -> incr count))
  done;
  (* Budget smaller than the pending work: stop on the event budget with
     the clock still inside the slice. *)
  let r = Engine.run_slice ~max_events:3 e ~until:20.0 in
  Alcotest.(check bool) "stopped on budget" true (r = `Events);
  Alcotest.(check int) "three fired" 3 !count;
  (* Time horizon before the next event: advance the clock, fire none. *)
  let r = Engine.run_slice ~max_events:100 e ~until:3.5 in
  Alcotest.(check bool) "stopped on horizon" true (r = `Until);
  Alcotest.(check int) "no extra events" 3 !count;
  Alcotest.(check (float 1e-9)) "clock at horizon" 3.5 (Engine.now e);
  (* Run dry: the queue empties inside the horizon. *)
  let r = Engine.run_slice e ~until:100.0 in
  Alcotest.(check bool) "quiescent" true (r = `Quiescent);
  Alcotest.(check int) "all fired" 10 !count;
  Alcotest.(check (float 1e-9)) "clock at final horizon" 100.0 (Engine.now e)

let test_run_slice_counts_events () =
  let e = Engine.create () in
  for i = 1 to 5 do
    ignore (Engine.schedule e ~after:(float_of_int i) ignore)
  done;
  let before = Engine.events_processed e in
  ignore (Engine.run_slice e ~until:10.0);
  Alcotest.(check int) "processed counter advanced" 5
    (Engine.events_processed e - before);
  (* Slicing is equivalent to one long run: interleaved slices fire
     handlers in the same order as Engine.run. *)
  let run_sliced () =
    let e = Engine.create () in
    let log = ref [] in
    let rng = Leotp_util.Rng.create ~seed:9 in
    for i = 0 to 30 do
      let t = Leotp_util.Rng.float rng 10.0 in
      ignore (Engine.schedule e ~after:t (fun () -> log := i :: !log))
    done;
    let until = ref 0.0 in
    let quiet = ref false in
    while not !quiet do
      match Engine.run_slice ~max_events:2 e ~until:!until with
      | `Events -> ()
      | `Until -> until := !until +. 1.0
      | `Quiescent -> quiet := true
    done;
    List.rev !log
  in
  let run_direct () =
    let e = Engine.create () in
    let log = ref [] in
    let rng = Leotp_util.Rng.create ~seed:9 in
    for i = 0 to 30 do
      let t = Leotp_util.Rng.float rng 10.0 in
      ignore (Engine.schedule e ~after:t (fun () -> log := i :: !log))
    done;
    Engine.run e;
    List.rev !log
  in
  Alcotest.(check (list int)) "sliced = direct" (run_direct ()) (run_sliced ())

let test_clock_monotone_negative_after () =
  let e = Engine.create () in
  ignore (Engine.schedule e ~after:5.0 ignore);
  Engine.run e;
  (* Negative [after] clamps to "now". *)
  let fired_at = ref Float.nan in
  ignore (Engine.schedule e ~after:(-3.0) (fun () -> fired_at := Engine.now e));
  Engine.run e;
  Alcotest.(check (float 1e-9)) "clamped" 5.0 !fired_at

let test_step () =
  let e = Engine.create () in
  Alcotest.(check bool) "empty step" false (Engine.step e);
  ignore (Engine.schedule e ~after:1.0 ignore);
  Alcotest.(check bool) "one step" true (Engine.step e);
  Alcotest.(check bool) "drained" false (Engine.step e)

let test_every () =
  let e = Engine.create () in
  let times = ref [] in
  let h = Engine.every e ~period:1.0 (fun () -> times := Engine.now e :: !times) in
  Engine.run ~until:3.5 e;
  Alcotest.(check (list (float 1e-9))) "periodic" [ 1.0; 2.0; 3.0 ] (List.rev !times);
  Engine.cancel h;
  Engine.run ~until:10.0 e;
  Alcotest.(check int) "cancelled" 3 (List.length !times)

let test_every_start () =
  let e = Engine.create () in
  let times = ref [] in
  ignore
    (Engine.every e ~period:2.0 ~start:0.5 (fun () ->
         times := Engine.now e :: !times));
  Engine.run ~until:5.0 e;
  Alcotest.(check (list (float 1e-9)))
    "start offset" [ 0.5; 2.5; 4.5 ] (List.rev !times)

let test_cancel_compaction () =
  (* A long-lived engine that schedules and cancels many timers (the RTO
     pattern) must not retain the cancelled ones until their pop time:
     a cancelled event leaves the queue at once. *)
  let e = Engine.create () in
  let fired = ref 0 in
  let keep = ref [] in
  for i = 1 to 1000 do
    let t =
      Engine.schedule e ~after:(1000.0 +. float_of_int i) (fun () -> incr fired)
    in
    if i mod 100 = 0 then keep := t :: !keep else Engine.cancel t
  done;
  Alcotest.(check int) "only survivors queued" 10 (Engine.pending_events e);
  Engine.run e;
  Alcotest.(check int) "survivors fire" 10 !fired

let test_cancel_compaction_order () =
  (* Cancellation must not disturb firing order of survivors. *)
  let e = Engine.create () in
  let log = ref [] in
  let timers =
    List.init 500 (fun i ->
        (i, Engine.schedule e ~after:(float_of_int (i + 1)) (fun () -> log := i :: !log)))
  in
  List.iter (fun (i, t) -> if i mod 7 <> 0 then Engine.cancel t) timers;
  Engine.run e;
  let expect = List.filter (fun i -> i mod 7 = 0) (List.init 500 Fun.id) in
  Alcotest.(check (list int)) "order preserved" expect (List.rev !log)

let test_determinism () =
  let run () =
    let e = Engine.create () in
    let log = ref [] in
    let rng = Leotp_util.Rng.create ~seed:11 in
    for i = 0 to 50 do
      let t = Leotp_util.Rng.float rng 10.0 in
      ignore (Engine.schedule e ~after:t (fun () -> log := i :: !log))
    done;
    Engine.run e;
    List.rev !log
  in
  Alcotest.(check (list int)) "identical runs" (run ()) (run ())

(* ------------------------------------------------------------------ *)
(* Handles and delay lines *)

let test_rearm_moves_event () =
  let e = Engine.create () in
  let log = ref [] in
  let h = Engine.handle e (fun () -> log := Engine.now e :: !log) in
  Alcotest.(check bool) "unarmed" false (Engine.is_pending h);
  Engine.rearm h ~after:5.0;
  Engine.rearm h ~after:2.0;
  Alcotest.(check int) "one event queued" 1 (Engine.pending_events e);
  Engine.run ~until:3.0 e;
  Engine.rearm_at h ~time:4.0;
  Engine.run e;
  Alcotest.(check (list (float 0.0))) "fired at re-armed times" [ 2.0; 4.0 ]
    (List.rev !log);
  Alcotest.(check int) "two events" 2 (Engine.events_processed e)

let test_rearm_fresh_seq () =
  (* A re-armed handle queues behind an event already armed for the same
     time: the re-arm draws a fresh seq. *)
  let e = Engine.create () in
  let log = ref [] in
  let h = Engine.handle e (fun () -> log := "h" :: !log) in
  Engine.rearm h ~after:1.0;
  ignore (Engine.schedule e ~after:1.0 (fun () -> log := "s" :: !log));
  Engine.rearm h ~after:1.0;
  Engine.run e;
  Alcotest.(check (list string)) "h after s" [ "s"; "h" ] (List.rev !log)

let test_delay_line_sorted_insert () =
  let e = Engine.create () in
  let log = ref [] in
  let line =
    Engine.Delay_line.create e (fun x _epoch -> log := (x, Engine.now e) :: !log)
  in
  let push x delay = Engine.Delay_line.push line ~delay ~jitter:0.0 x ~epoch:0 in
  push 0 3.0;
  push 1 1.0 (* new head *);
  push 2 2.0 (* sorted into the middle *);
  push 3 1.0 (* ties with 1: arming order *);
  push 4 0.5;
  (* A plain event at the same time as a line entry, armed later. *)
  ignore (Engine.schedule e ~after:1.0 (fun () -> log := (99, Engine.now e) :: !log));
  Alcotest.(check int) "all counted pending" 6 (Engine.pending_events e);
  Engine.run e;
  Alcotest.(check (list (pair int (float 0.0))))
    "fire order"
    [ (4, 0.5); (1, 1.0); (3, 1.0); (99, 1.0); (2, 2.0); (0, 3.0) ]
    (List.rev !log);
  Alcotest.(check int) "drained" 0 (Engine.pending_events e);
  Alcotest.(check bool) "empty" true (Engine.Delay_line.is_empty line)

let test_delay_line_flush_timing () =
  (* Entries keep the epoch they were pushed in; a flush (epoch bump by
     the owner) does not remove them, so a flushed entry is still seen
     at its own arrival time — the link drops it then. *)
  let e = Engine.create () in
  let epoch = ref 0 in
  let log = ref [] in
  let line =
    Engine.Delay_line.create e (fun x ep ->
        log := (x, ep = !epoch, Engine.now e) :: !log)
  in
  Engine.Delay_line.push line ~delay:1.0 ~jitter:0.0 "a" ~epoch:!epoch;
  Engine.Delay_line.push line ~delay:1.0 ~jitter:0.5 "b" ~epoch:!epoch;
  ignore
    (Engine.schedule e ~after:0.5 (fun () ->
         incr epoch;
         Engine.Delay_line.push line ~delay:0.25 ~jitter:0.0 "c" ~epoch:!epoch));
  Engine.run e;
  Alcotest.(check (list (triple string bool (float 0.0))))
    "flushed entries surface at arrival"
    [ ("c", true, 0.75); ("a", false, 1.0); ("b", false, 1.5) ]
    (List.rev !log)

let test_every_cancel_inside () =
  let e = Engine.create () in
  let n = ref 0 in
  let h = ref None in
  h :=
    Some
      (Engine.every e ~period:1.0 (fun () ->
           incr n;
           if !n = 2 then Option.iter Engine.cancel !h));
  Engine.run ~until:10.0 e;
  Alcotest.(check int) "stopped from its own action" 2 !n;
  Alcotest.(check int) "nothing left" 0 (Engine.pending_events e)

(* Engine-order property: random programs of schedule, schedule_at,
   handle/rearm/rearm_at, cancel, every, delay-line pushes and epoch
   flushes, interleaved with step and run ~until, against a reference
   that keeps every pending event in a sorted list keyed by (time, seq
   drawn at arm time).  Times are multiples of 1/4 so ties are common. *)

type op =
  | Sched of int
  | Sched_at of int
  | Handle
  | Rearm of int * int
  | Rearm_at of int * int
  | Cancel of int
  | Every of int * int
  | Push of int * int * int
  | Flush of int
  | Step
  | Run of int

let show_op = function
  | Sched a -> Printf.sprintf "sched %d" a
  | Sched_at a -> Printf.sprintf "sched_at %d" a
  | Handle -> "handle"
  | Rearm (k, a) -> Printf.sprintf "rearm %d %d" k a
  | Rearm_at (k, a) -> Printf.sprintf "rearm_at %d %d" k a
  | Cancel k -> Printf.sprintf "cancel %d" k
  | Every (p, s) -> Printf.sprintf "every %d %d" p s
  | Push (l, d, j) -> Printf.sprintf "push %d %d %d" l d j
  | Flush l -> Printf.sprintf "flush %d" l
  | Step -> "step"
  | Run d -> Printf.sprintf "run %d" d

let gen_op =
  let open QCheck2.Gen in
  let q = int_range 0 12 in
  frequency
    [
      (3, map (fun a -> Sched a) q);
      (1, map (fun a -> Sched_at a) (int_range 0 40));
      (1, return Handle);
      (3, map2 (fun k a -> Rearm (k, a)) (int_range 0 20) q);
      (1, map2 (fun k a -> Rearm_at (k, a)) (int_range 0 20) (int_range 0 40));
      (2, map (fun k -> Cancel k) (int_range 0 20));
      (1, map2 (fun p s -> Every (p, s)) (int_range 1 6) q);
      (4, map3 (fun l d j -> Push (l, d, j)) (int_range 0 1) q (int_range 0 3));
      (1, map (fun l -> Flush l) (int_range 0 1));
      (3, return Step);
      (2, map (fun d -> Run d) (int_range 0 8));
    ]

let quarter x = float_of_int x /. 4.0

module Ref = struct
  type kind = Once | Periodic of float | Entry of int * int * int

  type ev = { time : float; seq : int; hid : int; kind : kind; label : int }

  type t = {
    mutable clock : float;
    mutable seq : int;
    mutable pending : ev list;  (** sorted by (time, seq) *)
    mutable processed : int;
    mutable log : string list;
    epochs : int array;
    mutable labels : int;
  }

  let create () =
    {
      clock = 0.0;
      seq = 0;
      pending = [];
      processed = 0;
      log = [];
      epochs = [| 0; 0 |];
      labels = 0;
    }

  let before a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

  let add t ev =
    let rec ins = function
      | [] -> [ ev ]
      | x :: rest as l -> if before ev x then ev :: l else x :: ins rest
    in
    t.pending <- ins t.pending

  let fresh t =
    let s = t.seq in
    t.seq <- s + 1;
    s

  let after_now t a = t.clock +. if a > 0.0 then a else 0.0
  let at_time t x = if x > t.clock then x else t.clock
  let remove_hid t hid = t.pending <- List.filter (fun ev -> ev.hid <> hid) t.pending
  let is_pending t hid = List.exists (fun ev -> ev.hid = hid) t.pending

  (* Arm handle [hid]: its previous event (if any) is replaced. *)
  let arm t ~hid ~kind ~label time =
    remove_hid t hid;
    add t { time; seq = fresh t; hid; kind; label }

  let kind_of t hid =
    List.find_map (fun ev -> if ev.hid = hid then Some (ev.kind, ev.label) else None)
      t.pending

  let step t =
    match t.pending with
    | [] -> false
    | ev :: rest ->
      t.pending <- rest;
      if ev.time > t.clock then t.clock <- ev.time;
      t.processed <- t.processed + 1;
      (match ev.kind with
      | Once -> t.log <- Printf.sprintf "h%d@%h" ev.label t.clock :: t.log
      | Periodic p ->
        t.log <- Printf.sprintf "e%d@%h" ev.label t.clock :: t.log;
        add t
          { time = after_now t p; seq = fresh t; hid = ev.hid; kind = ev.kind;
            label = ev.label }
      | Entry (l, x, ep) ->
        t.log <-
          Printf.sprintf "l%d:%d:%b@%h" l x (ep = t.epochs.(l)) t.clock :: t.log);
      true

  let rec run_until t limit =
    match t.pending with
    | ev :: _ when ev.time <= limit ->
      ignore (step t);
      run_until t limit
    | _ -> if limit > t.clock then t.clock <- limit
end

let engine_matches_reference ops =
  let e = Engine.create () in
  let m = Ref.create () in
  let log = ref [] in
  (* handles.(i) = engine handle, its reference id, and what it does when
     re-armed after being cancelled (kind, label) *)
  let handles = ref [||] in
  let remember h kind label =
    let hid = Array.length !handles in
    handles := Array.append !handles [| (h, kind, label) |];
    hid
  in
  let new_label () =
    let l = m.Ref.labels in
    m.Ref.labels <- l + 1;
    l
  in
  let once label () = log := Printf.sprintf "h%d@%h" label (Engine.now e) :: !log in
  let epochs = [| 0; 0 |] in
  let items = ref 0 in
  let lines =
    Array.init 2 (fun l ->
        Engine.Delay_line.create e (fun x ep ->
            log :=
              Printf.sprintf "l%d:%d:%b@%h" l x (ep = epochs.(l)) (Engine.now e)
              :: !log))
  in
  let pick k = if Array.length !handles = 0 then None else Some (k mod Array.length !handles) in
  let rearm_ref hid time =
    let _, kind, label = !handles.(hid) in
    let kind, label =
      match Ref.kind_of m hid with Some kl -> kl | None -> (kind, label)
    in
    Ref.arm m ~hid ~kind ~label time
  in
  let apply = function
    | Sched a ->
      let label = new_label () in
      let h = Engine.schedule e ~after:(quarter a) (once label) in
      let hid = remember h Ref.Once label in
      Ref.arm m ~hid ~kind:Ref.Once ~label (Ref.after_now m (quarter a))
    | Sched_at a ->
      let label = new_label () in
      let h = Engine.schedule_at e ~time:(quarter a) (once label) in
      let hid = remember h Ref.Once label in
      Ref.arm m ~hid ~kind:Ref.Once ~label (Ref.at_time m (quarter a))
    | Handle ->
      let label = new_label () in
      ignore (remember (Engine.handle e (once label)) Ref.Once label)
    | Rearm (k, a) ->
      Option.iter
        (fun hid ->
          let h, _, _ = !handles.(hid) in
          Engine.rearm h ~after:(quarter a);
          rearm_ref hid (Ref.after_now m (quarter a)))
        (pick k)
    | Rearm_at (k, a) ->
      Option.iter
        (fun hid ->
          let h, _, _ = !handles.(hid) in
          Engine.rearm_at h ~time:(quarter a);
          rearm_ref hid (Ref.at_time m (quarter a)))
        (pick k)
    | Cancel k ->
      Option.iter
        (fun hid ->
          let h, _, _ = !handles.(hid) in
          Engine.cancel h;
          Ref.remove_hid m hid)
        (pick k)
    | Every (p, s) ->
      let label = new_label () in
      let period = quarter p in
      let h =
        Engine.every e ~period ~start:(quarter s) (fun () ->
            log := Printf.sprintf "e%d@%h" label (Engine.now e) :: !log)
      in
      let kind = Ref.Periodic period in
      let hid = remember h kind label in
      Ref.arm m ~hid ~kind ~label (Ref.after_now m (quarter s))
    | Push (l, d, j) ->
      let x = !items in
      incr items;
      Engine.Delay_line.push lines.(l) ~delay:(quarter d) ~jitter:(quarter j) x
        ~epoch:epochs.(l);
      Ref.add m
        {
          Ref.time = Ref.after_now m (quarter d +. quarter j);
          seq = Ref.fresh m;
          hid = -1;
          kind = Ref.Entry (l, x, epochs.(l));
          label = -1;
        }
    | Flush l ->
      epochs.(l) <- epochs.(l) + 1;
      m.Ref.epochs.(l) <- epochs.(l)
    | Step -> ignore (Engine.step e); ignore (Ref.step m)
    | Run d ->
      let limit = Engine.now e +. quarter d in
      Engine.run ~until:limit e;
      Ref.run_until m limit
  in
  let agree () =
    !log = m.Ref.log
    && Engine.events_processed e = m.Ref.processed
    && Engine.pending_events e = List.length m.Ref.pending
    && Float.equal (Engine.now e) m.Ref.clock
    && Array.for_all Fun.id
         (Array.mapi (fun hid (h, _, _) -> Engine.is_pending h = Ref.is_pending m hid)
            !handles)
  in
  List.for_all (fun op -> apply op; agree ()) ops
  && begin
       (* [every] recurrences never drain: finish on a horizon. *)
       let limit = Engine.now e +. 25.0 in
       Engine.run ~until:limit e;
       Ref.run_until m limit;
       agree ()
     end

let engine_order_prop =
  QCheck2.Test.make ~name:"engine order matches sorted-list reference"
    ~count:500
    ~print:(fun ops -> String.concat "; " (List.map show_op ops))
    QCheck2.Gen.(list_size (int_range 0 60) gen_op)
    engine_matches_reference

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "leotp_sim"
    [
      ( "engine",
        [
          Alcotest.test_case "event order" `Quick test_event_order;
          Alcotest.test_case "same-time FIFO" `Quick test_same_time_fifo;
          Alcotest.test_case "nested scheduling" `Quick test_schedule_from_handler;
          Alcotest.test_case "cancel" `Quick test_cancel;
          Alcotest.test_case "run until" `Quick test_run_until;
          Alcotest.test_case "run slice" `Quick test_run_slice;
          Alcotest.test_case "run slice counters" `Quick
            test_run_slice_counts_events;
          Alcotest.test_case "negative delay clamp" `Quick
            test_clock_monotone_negative_after;
          Alcotest.test_case "step" `Quick test_step;
          Alcotest.test_case "every" `Quick test_every;
          Alcotest.test_case "every with start" `Quick test_every_start;
          Alcotest.test_case "cancel compaction" `Quick test_cancel_compaction;
          Alcotest.test_case "compaction keeps order" `Quick
            test_cancel_compaction_order;
          Alcotest.test_case "determinism" `Quick test_determinism;
        ] );
      ( "handles",
        [
          Alcotest.test_case "rearm moves the event" `Quick
            test_rearm_moves_event;
          Alcotest.test_case "rearm draws a fresh seq" `Quick
            test_rearm_fresh_seq;
          Alcotest.test_case "every cancelled from its action" `Quick
            test_every_cancel_inside;
          qc engine_order_prop;
        ] );
      ( "delay line",
        [
          Alcotest.test_case "sorted insert" `Quick
            test_delay_line_sorted_insert;
          Alcotest.test_case "flushed entries drop at arrival" `Quick
            test_delay_line_flush_timing;
        ] );
    ]
