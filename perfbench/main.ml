(* perfbench: the simulator benchmark (see README.md in this directory).

     main.exe --workload chain_loss|fleet|handover_replay --seed N
              --seconds S --trace 0|1

   One process, one domain (Runner jobs = 1).  With --trace 0 it sets
   the workload up several times, runs one untimed warm-up pass, then
   repeats timed passes over the workload's operations (cells, shards or
   replays) for S seconds, checks every simulated output, and prints the
   end-to-end metrics.  With --trace 1 it runs one untraced pass and one
   traced pass over self-assembled copies of the entry points (Mirror)
   and prints the per-layer metrics.  The last stdout line is one JSON
   object; the process exits 1 when any operation or check failed. *)

module Common = Leotp_scenario.Common
module Fleet = Leotp_scenario.Fleet
module Workload = Leotp_scenario.Workload
module Pathtrace = Leotp_scenario.Pathtrace
module Invariants = Leotp_scenario.Invariants
module Runner = Leotp_scenario.Runner
module Path_trace = Leotp_net.Path_trace
module Trace = Leotp_net.Trace
module Packet = Leotp_net.Packet
module Pool = Leotp_net.Packet_pool
module Path_service = Leotp_constellation.Path_service
module Walker = Leotp_constellation.Walker
module Cities = Leotp_constellation.Cities
module Stats = Leotp_util.Stats

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let timed f =
  let t0 = Span.now_s () in
  let r = f () in
  (r, Span.now_s () -. t0)

let g = Printf.sprintf "%.17g"

(* ------------------------------------------------------------------ *)
(* Operations, checks and their accounting. *)

type outcome = { text : string; problems : string list }
(** [text] renders the operation's simulated outputs; it must repeat
    exactly for a given seed.  [problems] are failed output checks. *)

type op = { label : string; exec : unit -> outcome }

type check = { name : string; run : unit -> string list }
(** A check-phase operation; returns its failures. *)

let attempted = ref 0
let failed = ref 0

let fail label problems =
  incr failed;
  List.iter (fun p -> Printf.eprintf "FAIL %s: %s\n%!" label p) problems

let guard f =
  try f ()
  with e ->
    let m = "raised " ^ Printexc.to_string e in
    { text = m; problems = [ m ] }

let run_check c =
  incr attempted;
  let problems =
    try c.run () with e -> [ "raised " ^ Printexc.to_string e ]
  in
  if problems <> [] then fail c.name problems

(* Compare an outcome against the warm-up pass's text for the same
   operation and account for it. *)
let account ~reference label (o : outcome) =
  incr attempted;
  let problems =
    match List.assoc_opt label reference with
    | Some t when t <> o.text ->
      o.problems @ [ Printf.sprintf "output changed: %s, first pass %s" o.text t ]
    | _ -> o.problems
  in
  if problems <> [] then fail label problems

(* ------------------------------------------------------------------ *)
(* Per-layer metrics, the names and units of BENCHMARK.json's
   "per_layer" list: every name is printed by the traced run; layers a
   workload does not exercise read 0 (see README.md for which apply). *)

let per_layer_units =
  [
    ("engine.events", "count");
    ("engine.events_per_pkt", "count/pkt");
    ("engine.self_s", "s");
    ("link.hops_per_pkt", "count/pkt");
    ("link.enq", "count");
    ("link.drop_tail", "count");
    ("link.drop_error", "count");
    ("link.drop_flush", "count");
    ("link.drop_down", "count");
    ("trace.records", "count");
    ("trace.records_per_pkt", "count/pkt");
    ("trace.digest_s", "s");
    ("trace.digest_share", "fraction");
    ("trace_overhead_s", "s");
    ("pool.live_delta", "count");
    ("pool.free_end", "count");
    ("dynpath.switches", "count");
    ("dynpath.outage_s", "s");
    ("path_trace.gen_s", "s");
    ("path_trace.parse_s", "s");
    ("path_trace.bytes", "bytes");
    ("pit.register", "count");
    ("pit.aggregated", "count");
    ("pit.satisfy", "count");
    ("pit.expire", "count");
    ("pit.peak", "count");
    ("cache.hits", "count");
    ("shr.interests", "count");
    ("shr.vph", "count");
    ("consumer.rto_fires", "count");
    ("stack.rx_calls", "count");
    ("stack.rx_self_s", "s");
    ("stack.rx_ns_per_call", "ns");
    ("tcp.acks", "count");
    ("tcp.retx", "count");
    ("tcp.lost_marks", "count");
    ("tcp.rto_fires", "count");
    ("route.queries", "count");
    ("route.computes", "count");
    ("route.memo_hit_ratio", "fraction");
    ("route.compute_ms", "ms");
    ("workload.gen_s", "s");
    ("fleet.flows_started", "count");
    ("fleet.flows_completed", "count");
    ("fleet.flows_skipped", "count");
    ("fleet.peak_active", "count");
    ("fleet.shard_s_p50", "s");
    ("fleet.shard_s_max", "s");
    ("fleet.pit_pending_end", "count");
    ("gc.minor_collections", "count");
    ("gc.major_collections", "count");
    ("gc.promoted_words_per_pkt", "words/pkt");
  ]

let layer_values : (string, float) Hashtbl.t = Hashtbl.create 64
let set_layer name v = Hashtbl.replace layer_values name v
let seti name v = set_layer name (float_of_int v)

(* ------------------------------------------------------------------ *)
(* A workload: how to set it up, the operations of one pass over the
   program's entry points, the output checks, and the traced pass over
   the mirrored entry points. *)

type workload = {
  setup : unit -> unit;  (** (re)builds the inputs from the seed *)
  inputs : unit -> string;  (** the generated input size, once set up *)
  setup_reps : int;
      (** set-ups per timed run: fixed, so the heap the passes start
          from is the same in every run of a seed *)
  ops : unit -> op list;
  checks : reference:(string * string) list -> check list;
  traced_ops : unit -> op list;  (** mirrored, under handler spans *)
  digest_ab : (digesting:bool -> unit) option;
      (** one plain mirrored pass with the program's digest on or off *)
  layers : ops:(string * float) list -> unit;
      (** workload-specific per-layer values, from the untraced pass
          (per-operation host seconds given) *)
}

let pct_of s p = if Stats.count s = 0 then Float.nan else Stats.percentile s p

(* --- chain_loss ----------------------------------------------------- *)

(* One bulk flow per cell over a 5-hop 20 Mbps / 10 ms chain.  Cells sit
   where every protocol still moves data: Cubic at 1%/hop moves almost
   nothing in this window, so it is left out. *)
let chain_cells =
  let leotp = Common.Leotp Leotp.Config.default in
  let cubic = Common.Tcp Leotp_tcp.Cc.Cubic in
  let bbr = Common.Tcp Leotp_tcp.Cc.Bbr in
  [
    (leotp, 0.0); (leotp, 0.001); (leotp, 0.01);
    (cubic, 0.0); (cubic, 0.001);
    (bbr, 0.0); (bbr, 0.001); (bbr, 0.01);
  ]

let chain_duration = 10.0
let chain_warmup = 3.0
let chain_hops plr = Common.uniform_hops ~n:5 (Common.link ~plr ~bw:20.0 ~delay:0.01 ())

(* A lossy cell's cost swings with its loss pattern: over 24 seeds, the
   host time of BBR at 0.1% and 1%/hop varied by about a third (standard
   deviation over mean), and that of a pass with one seed per cell by
   15%.  So every lossy cell runs at [chain_seeds] transport seeds
   derived from the workload seed; a lossless cell gives the same
   outputs at every seed and runs once, at the workload seed. *)
let chain_seeds = 8

let seeded_cells ~seed =
  List.concat_map
    (fun ((_, plr) as c) ->
      if plr = 0.0 then [ (seed, c) ]
      else List.init chain_seeds (fun i -> ((seed * chain_seeds) + i, c)))
    chain_cells

let cell_label (s, (p, plr)) =
  Printf.sprintf "%s@%g%%/s%d" (Common.protocol_name p) (100.0 *. plr) s

let render_summary (s : Common.summary) =
  Printf.sprintf "goodput_mbps=%s owd_p50=%s owd_p99=%s retx=%d app_bytes=%d"
    (g s.Common.goodput_mbps)
    (g (pct_of s.Common.owd 50.0))
    (g (pct_of s.Common.owd 99.0))
    s.Common.retransmissions s.Common.app_bytes

let summary_outcome (s : Common.summary) =
  {
    text = render_summary s;
    problems =
      (if s.Common.goodput_mbps > 0.0 then [] else [ "moved no data" ]);
  }

let chain_loss ~seed =
  let cells = seeded_cells ~seed in
  let run ?(duration = chain_duration) (seed, (p, plr)) =
    Common.run_chain ~seed ~duration ~warmup:chain_warmup ~hops:(chain_hops plr) p
  in
  {
    (* The cells' fixed cost through the entry point: ids, engine,
       topology, sessions and the events of instant 0. *)
    setup = (fun () -> List.iter (fun c -> ignore (run ~duration:0.0 c)) cells);
    inputs =
      (fun () ->
        Printf.sprintf "%d cells (lossy ones at %d seeds), %gs simulated each"
          (List.length cells) chain_seeds chain_duration);
    setup_reps = 50;
    ops =
      (fun () ->
        List.map
          (fun c ->
            { label = cell_label c; exec = (fun () -> summary_outcome (run c)) })
          cells);
    (* The five invariants are checked by the traced run's mirrored
       cells, which also prove that observing a cell does not change
       its outputs. *)
    checks =
      (fun ~reference:_ ->
        [
          {
            name = "seed-reaches-program";
            run =
              (fun () ->
                let cell = List.nth chain_cells 2 in
                let digest seed =
                  let trace = Trace.create ~capacity:1 () in
                  ignore
                    (Common.run_chain ~seed ~duration:chain_duration
                       ~warmup:chain_warmup ~trace ~hops:(chain_hops (snd cell))
                       (fst cell));
                  Trace.digest trace
                in
                if digest seed <> digest (seed + 1) then []
                else [ "digest did not change with the seed" ]);
          };
        ]);
    traced_ops =
      (fun () ->
        List.map
          (fun ((seed, (p, plr)) as c) ->
            {
              label = cell_label c;
              exec =
                (fun () ->
                  summary_outcome
                    (Mirror.run_chain ~obs:Mirror.traced ~seed
                       ~duration:chain_duration ~warmup:chain_warmup
                       ~hops:(chain_hops plr) p));
            })
          cells);
    digest_ab = None;
    layers = (fun ~ops:_ -> ());
  }

(* --- fleet ---------------------------------------------------------- *)

(* The arrival schedule of [bench/main.exe --manyflow 600 --seed S]
   (non-quick: 60 s horizon, 8 shards), cut at the first arrival that
   would take the offered bytes past [fleet_budget]: the horizon becomes
   that arrival's time.  Poisson counts and lognormal sizes make a fixed
   horizon's offered load swing by about 10% from seed to seed; the cut
   fixes the input size instead.  Per-city arrivals do not depend on the
   horizon, so the cut schedule is what [Workload.generate] gives for the
   cut spec ([Fleet.run] on it is checked to agree). *)
let fleet_flows = 600
let fleet_budget = 40_000_000

let fleet_inputs ~seed =
  let wl =
    Workload.scale_to
      { Workload.default with Workload.seed; horizon = 60.0 }
      ~flows:fleet_flows
  in
  let full =
    Workload.generate { wl with Workload.horizon = 2.0 *. wl.Workload.horizon }
  in
  let rec cut acc bytes = function
    | [] -> failwith "fleet: the schedule never reaches the byte budget"
    | (a : Workload.arrival) :: rest ->
      if bytes + a.Workload.bytes > fleet_budget then (List.rev acc, a.Workload.at)
      else cut (a :: acc) (bytes + a.Workload.bytes) rest
  in
  let arrivals, horizon = cut [] 0 full in
  let spec =
    {
      Fleet.default with
      Fleet.workload = { wl with Workload.horizon };
      shards = 8;
    }
  in
  (spec, arrivals)

(* [Fleet.run]'s partition: by origin city, arrival order kept. *)
let partition (spec : Fleet.spec) arrivals =
  let parts = Array.make spec.Fleet.shards [] in
  List.iter
    (fun (a : Workload.arrival) ->
      let s = a.Workload.origin mod spec.Fleet.shards in
      parts.(s) <- a :: parts.(s))
    arrivals;
  Array.map List.rev parts

let render_shard ~started ~completed ~skipped ~peak ~packets ~events ~rq ~rc
    ~digest =
  Printf.sprintf
    "started=%d completed=%d skipped=%d peak_active=%d packets=%d events=%d \
     route_queries=%d route_computes=%d digest=%s"
    started completed skipped peak packets events rq rc digest

let shard_text (r : Fleet.shard_stats) =
  render_shard ~started:r.Fleet.flows_started ~completed:r.Fleet.flows_completed
    ~skipped:r.Fleet.flows_skipped ~peak:r.Fleet.peak_active
    ~packets:r.Fleet.packets ~events:r.Fleet.events ~rq:r.Fleet.route_queries
    ~rc:r.Fleet.route_computes ~digest:r.Fleet.digest

let shard_problems ~invariants_ok ~live ~pit ~started ~completed =
  List.concat
    [
      (if invariants_ok then [] else [ "invariant violation" ]);
      (if live = 0 then [] else [ Printf.sprintf "pool_live_delta=%d" live ]);
      (if pit = 0 then [] else [ Printf.sprintf "pit_pending_end=%d" pit ]);
      (if completed = started then []
       else [ Printf.sprintf "completed %d of %d started" completed started ]);
    ]

let shard_label i = Printf.sprintf "shard%d" i

(* Direct route computations at the shard's distinct (pair, epoch)
   instants, the work its Memo does on a miss. *)
let probe_budget = 12

let fleet_probes (spec : Fleet.spec) walker arrivals =
  let epoch = spec.Fleet.route_epoch in
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (a : Workload.arrival) ->
      let t = Float.of_int (int_of_float (a.Workload.at /. epoch)) *. epoch in
      let key = (a.Workload.origin, a.Workload.city, t) in
      if Hashtbl.length seen < probe_budget && not (Hashtbl.mem seen key) then begin
        Hashtbl.replace seen key ();
        Span.with_ "route.probe" (fun () ->
            ignore
              (Path_service.route_with_isls walker
                 ~src:Cities.all.(a.Workload.origin)
                 ~dst:Cities.all.(a.Workload.city) ~time:t ()))
      end)
    arrivals

let fleet ~seed =
  let spec = ref Fleet.default in
  let parts = ref [||] in
  let last = Hashtbl.create 8 in
  let walker = lazy (Walker.create Walker.starlink) in
  let run_shard i =
    let r = Fleet.run_shard !spec ~shard:i ~arrivals:!parts.(i) () in
    Hashtbl.replace last i r;
    {
      text = shard_text r;
      problems =
        shard_problems
          ~invariants_ok:(Invariants.all_ok r.Fleet.reports)
          ~live:r.Fleet.pool_live_delta ~pit:r.Fleet.pit_pending_end
          ~started:r.Fleet.flows_started ~completed:r.Fleet.flows_completed;
    }
  in
  let mirror obs i =
    let r = Mirror.run_shard ~obs !spec ~shard:i ~arrivals:!parts.(i) in
    {
      text =
        render_shard ~started:r.Mirror.started ~completed:r.Mirror.completed
          ~skipped:r.Mirror.skipped ~peak:r.Mirror.peak_active
          ~packets:r.Mirror.packets ~events:r.Mirror.events
          ~rq:r.Mirror.route_queries ~rc:r.Mirror.route_computes
          ~digest:r.Mirror.digest;
      problems =
        shard_problems ~invariants_ok:r.Mirror.invariants_ok
          ~live:r.Mirror.pool_live_delta ~pit:r.Mirror.pit_pending_end
          ~started:r.Mirror.started ~completed:r.Mirror.completed;
    }
  in
  let shards () = List.init !spec.Fleet.shards Fun.id in
  {
    setup =
      (fun () ->
        let (s, arrivals), gen_s = timed (fun () -> fleet_inputs ~seed) in
        set_layer "workload.gen_s" gen_s;
        spec := s;
        parts := partition s arrivals);
    inputs =
      (fun () ->
        let arrivals = Array.to_list !parts |> List.concat in
        Printf.sprintf "%d arrivals, %d bytes offered, horizon %ss"
          (List.length arrivals)
          (List.fold_left
             (fun acc (a : Workload.arrival) -> acc + a.Workload.bytes)
             0 arrivals)
          (g !spec.Fleet.workload.Workload.horizon));
    setup_reps = 50;
    ops =
      (fun () ->
        List.map (fun i -> { label = shard_label i; exec = (fun () -> run_shard i) })
          (shards ()));
    checks =
      (fun ~reference ->
        [
          {
            name = "fleet-run-equals-shards";
            run =
              (fun () ->
                let s = Fleet.run !spec in
                List.concat_map
                  (fun (r : Fleet.shard_stats) ->
                    let label = shard_label r.Fleet.shard in
                    if Some (shard_text r) = List.assoc_opt label reference then []
                    else [ label ^ ": Fleet.run disagrees with run_shard" ])
                  s.Fleet.shards
                @ if s.Fleet.invariants_ok then [] else [ "Fleet.run invariants" ]);
          };
          {
            name = "seed-reaches-program";
            run =
              (fun () ->
                let other, arrivals = fleet_inputs ~seed:(seed + 1) in
                let parts' = partition other arrivals in
                (* the shard with the fewest arrivals under the other seed *)
                let i = ref 0 in
                Array.iteri
                  (fun j p -> if List.length p < List.length parts'.(!i) then i := j)
                  parts';
                let r = Fleet.run_shard other ~shard:!i ~arrivals:parts'.(!i) () in
                match Hashtbl.find_opt last !i with
                | Some mine when mine.Fleet.digest <> r.Fleet.digest -> []
                | _ -> [ "shard digest did not change with the seed" ]);
          };
        ]);
    traced_ops =
      (fun () ->
        List.map
          (fun i ->
            {
              label = shard_label i;
              exec =
                (fun () ->
                  let o = mirror Mirror.traced i in
                  fleet_probes !spec (Lazy.force walker) !parts.(i);
                  o);
            })
          (shards ()));
    digest_ab =
      Some
        (fun ~digesting ->
          List.iter
            (fun i -> ignore (mirror (Mirror.plain ~digesting) i))
            (shards ()));
    layers =
      (fun ~ops ->
        let rs = Hashtbl.fold (fun _ r acc -> r :: acc) last [] in
        let sum f = List.fold_left (fun acc r -> acc + f r) 0 rs in
        seti "fleet.flows_started" (sum (fun r -> r.Fleet.flows_started));
        seti "fleet.flows_completed" (sum (fun r -> r.Fleet.flows_completed));
        seti "fleet.flows_skipped" (sum (fun r -> r.Fleet.flows_skipped));
        seti "fleet.peak_active" (sum (fun r -> r.Fleet.peak_active));
        seti "fleet.pit_pending_end" (sum (fun r -> r.Fleet.pit_pending_end));
        let q = sum (fun r -> r.Fleet.route_queries)
        and c = sum (fun r -> r.Fleet.route_computes) in
        seti "route.queries" q;
        seti "route.computes" c;
        if q > 0 then set_layer "route.memo_hit_ratio" (1.0 -. (float c /. float q));
        let times = List.map snd ops in
        set_layer "fleet.shard_s_p50" (median times);
        set_layer "fleet.shard_s_max" (List.fold_left Float.max 0.0 times));
  }

(* --- handover_replay ------------------------------------------------ *)

(* Trace horizon: long enough that the route sweep shows in setup_s.
   Replay windows: short enough to keep run_s in seconds; the Hong
   Kong-Tokyo window spans its first outage (34-97 s) and the
   reacquisition after it. *)
let trace_horizon = 1800.0

let replay_paths =
  [
    ("bj-ny-isl", { Pathtrace.default with Pathtrace.horizon = trace_horizon }, 10.0);
    ( "hk-tokyo-bent",
      {
        Pathtrace.default with
        Pathtrace.src = "Hong Kong";
        dst = "Tokyo";
        isls = false;
        horizon = trace_horizon;
        route_epoch = 1.0;
      },
      100.0 );
  ]

type prepared = {
  live : Path_trace.t;
  file : string;
  parsed : Path_trace.t;
}

let render_replay ~switches ~outage_fraction (s : Common.summary) ~digest =
  Printf.sprintf "switches=%d outage_fraction=%s %s digest=%s" switches
    (g outage_fraction) (render_summary s) digest

let replay_outcome (r : Pathtrace.run_result) =
  {
    text =
      render_replay ~switches:r.Pathtrace.switches
        ~outage_fraction:r.Pathtrace.outage_fraction r.Pathtrace.summary
        ~digest:r.Pathtrace.digest;
    problems = [];
  }

(* Direct route computations at evenly spread epoch instants of the
   trace horizon. *)
let replay_probes walker (spec : Pathtrace.spec) =
  let src = Cities.find_exn spec.Pathtrace.src
  and dst = Cities.find_exn spec.Pathtrace.dst in
  let epochs = int_of_float (spec.Pathtrace.horizon /. spec.Pathtrace.route_epoch) in
  for k = 0 to probe_budget - 1 do
    let time =
      Float.of_int (k * epochs / probe_budget) *. spec.Pathtrace.route_epoch
    in
    Span.with_ "route.probe" (fun () ->
        ignore
          (if spec.Pathtrace.isls then
             Path_service.route_with_isls walker ~src ~dst ~time ()
           else Path_service.route_bent_pipe walker ~src ~dst ~time ()))
  done

let handover_replay ~seed =
  let specs =
    List.map (fun (l, s, d) -> (l, { s with Pathtrace.seed }, d)) replay_paths
  in
  let prepared = Hashtbl.create 2 in
  let get label = Hashtbl.find prepared label in
  let walker = lazy (Walker.create Walker.starlink) in
  let mirror obs (label, _, duration) =
    let summary, switches, digest =
      Mirror.run_replay ~obs ~duration (get label).parsed
    in
    {
      text =
        render_replay ~switches
          ~outage_fraction:(Path_trace.outage_fraction (get label).parsed)
          summary ~digest;
      problems = [];
    }
  in
  {
    setup =
      (fun () ->
        let gen = ref 0.0 and parse = ref 0.0 and bytes = ref 0 in
        List.iter
          (fun (label, spec, _) ->
            let live, gen_s = timed (fun () -> Pathtrace.generate spec) in
            let file = Path_trace.to_string live in
            let parsed, parse_s = timed (fun () -> Path_trace.of_string file) in
            let parsed =
              match parsed with
              | Ok t -> t
              | Error msg -> failwith ("TRACE_PATH parse: " ^ msg)
            in
            gen := !gen +. gen_s;
            parse := !parse +. parse_s;
            bytes := !bytes + String.length file;
            Hashtbl.replace prepared label { live; file; parsed })
          specs;
        set_layer "path_trace.gen_s" !gen;
        set_layer "path_trace.parse_s" !parse;
        seti "path_trace.bytes" !bytes);
    inputs =
      (fun () ->
        String.concat ", "
          (List.map
             (fun (label, _, duration) ->
               let t = (get label).parsed in
               Printf.sprintf "%s: %d trace records, %d handovers, %gs replayed"
                 label (List.length t.Path_trace.records)
                 (Path_trace.handover_count t) duration)
             specs));
    setup_reps = 3;
    ops =
      (fun () ->
        List.map
          (fun (label, _, duration) ->
            {
              label;
              exec =
                (fun () ->
                  replay_outcome (Pathtrace.run ~duration (get label).parsed));
            })
          specs);
    checks =
      (fun ~reference ->
        [
          {
            name = "trace-roundtrip";
            run =
              (fun () ->
                List.concat_map
                  (fun (label, _, _) ->
                    let p = get label in
                    if Path_trace.to_string p.parsed = p.file then []
                    else [ label ^ ": of_string . to_string is not the identity" ])
                  specs);
          };
          {
            name = "live-equals-replay";
            run =
              (fun () ->
                List.concat_map
                  (fun (label, _, duration) ->
                    let o = replay_outcome (Pathtrace.run ~duration (get label).live) in
                    if Some o.text = List.assoc_opt label reference then []
                    else [ label ^ ": live run differs from the parsed replay" ])
                  specs);
          };
          {
            name = "seed-reaches-program";
            run =
              (fun () ->
                let label, spec, duration = List.nth specs 1 in
                let other =
                  Pathtrace.run ~duration
                    (Pathtrace.generate { spec with Pathtrace.seed = seed + 1 })
                in
                match List.assoc_opt label reference with
                | Some t when t <> (replay_outcome other).text -> []
                | _ -> [ "replay did not change with the seed" ]);
          };
        ]);
    traced_ops =
      (fun () ->
        List.map
          (fun ((label, spec, _) as p) ->
            {
              label;
              exec =
                (fun () ->
                  let o = mirror Mirror.traced p in
                  replay_probes (Lazy.force walker) spec;
                  o);
            })
          specs);
    digest_ab =
      Some
        (fun ~digesting ->
          List.iter (fun p -> ignore (mirror (Mirror.plain ~digesting) p)) specs);
    layers =
      (fun ~ops:_ ->
        (* The generator's route sweep ([Path_service.snapshots_with_gaps]),
           replayed on a Memo of the same epoch for its query and
           compute counts. *)
        let q = ref 0 and c = ref 0 in
        List.iter
          (fun (_, spec, _) ->
            let walker = Lazy.force walker in
            let memo =
              Path_service.Memo.create ~epoch:spec.Pathtrace.route_epoch walker
            in
            let src = Cities.find_exn spec.Pathtrace.src
            and dst = Cities.find_exn spec.Pathtrace.dst in
            Span.with_ "route.sweep" (fun () ->
                let time = ref 0.0 in
                while !time <= spec.Pathtrace.horizon do
                  ignore
                    (Path_service.Memo.route memo ~src ~dst
                       ~isls:spec.Pathtrace.isls ~time:!time);
                  time := !time +. spec.Pathtrace.step
                done);
            q := !q + Path_service.Memo.queries memo;
            c := !c + Path_service.Memo.computes memo)
          specs;
        seti "route.queries" !q;
        seti "route.computes" !c;
        if !q > 0 then
          set_layer "route.memo_hit_ratio" (1.0 -. (float !c /. float !q)));
  }

(* ------------------------------------------------------------------ *)
(* Passes. *)

type pass = {
  pass_s : float;
  packets : int;
  minor_words : float;
  op_s : (string * float) list;
  outcomes : (string * outcome) list;
}

let run_pass ops =
  let p0 = Packet.created_on_domain () and w0 = Gc.minor_words () in
  let t0 = Span.now_s () in
  let results =
    List.map
      (fun op ->
        let o, s = timed (fun () -> guard op.exec) in
        ((op.label, o), (op.label, s)))
      ops
  in
  let pass_s = Span.now_s () -. t0 in
  {
    pass_s;
    packets = Packet.created_on_domain () - p0;
    minor_words = Gc.minor_words () -. w0;
    op_s = List.map snd results;
    outcomes = List.map fst results;
  }

let account_pass ~reference p =
  List.iter (fun (label, o) -> account ~reference label o) p.outcomes

let texts p = List.map (fun (label, o) -> (label, o.text)) p.outcomes

let setup_times w = List.init w.setup_reps (fun _ -> snd (timed w.setup))

let top_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.0

let print_outputs p =
  List.iter
    (fun (label, o) -> Printf.printf "output %-14s %s\n" label o.text)
    p.outcomes

let metric_line name value unit =
  Printf.printf "metric %-28s %s %s\n" name (g value) unit

(* --trace 0: the end-to-end metrics. *)
let untraced w ~seconds =
  let setups = setup_times w in
  Printf.printf "inputs: %s\n" (w.inputs ());
  let ops = w.ops () in
  let warm = run_pass ops in
  account_pass ~reference:[] warm;
  let reference = texts warm in
  print_outputs warm;
  (* Timed passes fill [seconds]: a pass starts only if one more of the
     median length still ends in time (at least 3 passes). *)
  let t_start = Span.now_s () in
  let heap = ref 0.0 in
  let rec loop acc =
    let next = median (List.map (fun p -> p.pass_s) (warm :: acc)) in
    if List.length acc >= 3 && Span.now_s () -. t_start +. next > seconds then
      acc
    else begin
      let p = run_pass ops in
      account_pass ~reference p;
      (* after a fixed number of passes, so it does not depend on speed *)
      if List.length acc = 2 then heap := top_heap_mb ();
      loop (p :: acc)
    end
  in
  let passes = loop [] in
  List.iter run_check (w.checks ~reference);
  let per_pass f = median (List.map f passes) in
  let per_pkt p x = x /. float_of_int (max 1 p.packets) in
  Printf.printf
    "%d set-ups, min %ss max %ss\n%d timed passes, %d packets each: %s\n"
    (List.length setups)
    (g (List.fold_left Float.min infinity setups))
    (g (List.fold_left Float.max 0.0 setups))
    (List.length passes) warm.packets
    (String.concat " "
       (List.rev_map (fun p -> Printf.sprintf "%.4fs" p.pass_s) passes));
  [
    ("run_s", per_pass (fun p -> p.pass_s), "s");
    ("pkts_per_s", per_pass (fun p -> float_of_int p.packets /. p.pass_s), "1/s");
    ("setup_s", median setups, "s");
    ("minor_words_per_pkt", per_pass (fun p -> per_pkt p p.minor_words), "words/pkt");
    ("top_heap_mb", !heap, "MB");
  ]

(* --trace 1: the per-layer metrics. *)
let traced w ~workload =
  let result = ref [] in
  Span.with_ workload (fun () ->
      Span.with_ "setup" w.setup;
      Printf.printf "inputs: %s\n" (w.inputs ());
      let ops = w.ops () in
      (* Untraced reference: warm-up, then one timed pass. *)
      let reference, plain =
        Span.with_ "untraced" (fun () ->
            let warm = run_pass ops in
            account_pass ~reference:[] warm;
            let reference = texts warm in
            let g0 = Gc.quick_stat () and live0 = Pool.live_count () in
            let p = run_pass ops in
            account_pass ~reference p;
            let g1 = Gc.quick_stat () in
            seti "pool.live_delta" (Pool.live_count () - live0);
            seti "pool.free_end" (Pool.free_count ());
            seti "gc.minor_collections"
              (g1.Gc.minor_collections - g0.Gc.minor_collections);
            seti "gc.major_collections"
              (g1.Gc.major_collections - g0.Gc.major_collections);
            set_layer "gc.promoted_words_per_pkt"
              ((g1.Gc.promoted_words -. g0.Gc.promoted_words)
              /. float_of_int (max 1 p.packets));
            print_outputs p;
            (reference, p))
      in
      Span.with_ "layers" (fun () -> w.layers ~ops:plain.op_s);
      let traced_ops = w.traced_ops () in
      let (), run_s =
        timed (fun () ->
            Span.with_ "run" (fun () ->
                List.iter
                  (fun op ->
                    let o = Span.with_ op.label (fun () -> guard op.exec) in
                    account ~reference op.label o)
                  traced_ops))
      in
      Span.with_ "check" (fun () -> List.iter run_check (w.checks ~reference));
      (match w.digest_ab with
      | None -> ()
      | Some ab ->
        let pass name digesting =
          snd (timed (fun () -> Span.with_ name (fun () -> ab ~digesting)))
        in
        let on_s = pass "digest-on" true in
        let off_s = pass "digest-off" false in
        set_layer "trace.digest_s" (on_s -. off_s);
        set_layer "trace.digest_share" ((on_s -. off_s) /. on_s));
      run_check
        {
          name = "mirror-invariants";
          run =
            (fun () ->
              if Mirror.layers.Mirror.invariants_ok then []
              else [ "a mirrored run violated an invariant" ]);
        };
      let l = Mirror.layers in
      List.iter (fun (name, v) -> seti name v) (Mirror.counters ());
      let pk = float_of_int (max 1 plain.packets) in
      let per_pkt n = float_of_int n /. pk in
      let run_node = Span.find_path (workload ^ "/run") in
      let under name =
        match run_node with Some n -> Span.find_all n name | None -> []
      in
      let calls = List.fold_left (fun acc n -> acc + n.Span.count) 0 in
      let rx = under "stack.rx" and probes = under "route.probe" in
      let rx_calls = calls rx and probe_calls = calls probes in
      let rx_self = Span.seconds (Span.sum Span.self_ns rx) in
      let op_nodes =
        match run_node with Some n -> List.rev n.Span.order | None -> []
      in
      set_layer "engine.events_per_pkt" (per_pkt l.Mirror.events);
      set_layer "engine.self_s" (Span.seconds (Span.sum Span.self_ns op_nodes));
      set_layer "link.hops_per_pkt" (per_pkt l.Mirror.link_enq);
      set_layer "trace.records_per_pkt" (per_pkt l.Mirror.records);
      set_layer "trace_overhead_s" (run_s -. plain.pass_s);
      set_layer "dynpath.outage_s" l.Mirror.outage_s;
      seti "stack.rx_calls" rx_calls;
      set_layer "stack.rx_self_s" rx_self;
      if rx_calls > 0 then
        set_layer "stack.rx_ns_per_call" (rx_self *. 1e9 /. float_of_int rx_calls);
      if probe_calls > 0 then
        set_layer "route.compute_ms"
          (Span.seconds (Span.sum (fun n -> n.Span.total_ns) probes)
          *. 1e3 /. float_of_int probe_calls);
      Printf.printf "untraced pass %ss, traced pass %ss, %d packets\n"
        (g plain.pass_s) (g run_s) plain.packets;
      result :=
        List.map
          (fun (name, unit) ->
            (name, Option.value ~default:0.0 (Hashtbl.find_opt layer_values name), unit))
          per_layer_units);
  Span.dump stdout;
  !result

(* ------------------------------------------------------------------ *)

let json_number x =
  if Float.is_finite x then g x else "0"

let print_result metrics =
  let body =
    String.concat ", "
      (List.map
         (fun (name, v, unit) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (!failed = 0) !attempted !failed body

let usage () =
  prerr_endline
    "usage: main.exe --workload chain_loss|fleet|handover_replay --seed N \
     --seconds S --trace 0|1";
  exit 2

let () =
  let workload = ref "" and seed = ref None and seconds = ref None
  and trace = ref None in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string_opt v; parse rest
    | "--trace" :: v :: rest ->
      trace := (match v with "0" -> Some false | "1" -> Some true | _ -> None);
      parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let seed, seconds, trace =
    match (!seed, !seconds, !trace) with
    | Some s, Some t, Some tr when t > 0.0 -> (s, t, tr)
    | _ -> usage ()
  in
  let w =
    match !workload with
    | "chain_loss" -> chain_loss ~seed
    | "fleet" -> fleet ~seed
    | "handover_replay" -> handover_replay ~seed
    | _ -> usage ()
  in
  Runner.set_jobs 1;
  Printf.printf "perfbench workload=%s seed=%d seconds=%s trace=%b\n%!" !workload
    seed (g seconds) trace;
  let metrics =
    if trace then traced w ~workload:!workload else untraced w ~seconds
  in
  List.iter (fun (name, v, unit) -> metric_line name v unit) metrics;
  if not trace then
    metric_line "failed_frac"
      (float_of_int !failed /. float_of_int (max 1 !attempted))
      "fraction";
  print_result metrics;
  if !failed > 0 then exit 1
