(* Self-assembled copies of the three entry points the benchmark times
   ([Common.run_chain], [Pathtrace.run], [Fleet.run_shard]), built from
   the same public calls in the same order, for the traced run only.
   Building the topology here lets the benchmark wrap every
   [Link.set_sink] -> [Node.receive] delivery in a handler span, attach
   a counting [Trace] sink, switch the digest off for the A/B
   attribution, and read per-layer counters the entry points keep to
   themselves.  Each copy is checked against its entry point: equal
   packet-trace digests (or equal summaries where the entry point has no
   recorder), so a copy that drifts from the program fails the run. *)

module Engine = Leotp_sim.Engine
module Node = Leotp_net.Node
module Link = Leotp_net.Link
module Packet = Leotp_net.Packet
module Pool = Leotp_net.Packet_pool
module Topology = Leotp_net.Topology
module Trace = Leotp_net.Trace
module Bandwidth = Leotp_net.Bandwidth
module Dynamic_path = Leotp_net.Dynamic_path
module Path_trace = Leotp_net.Path_trace
module Cities = Leotp_constellation.Cities
module Walker = Leotp_constellation.Walker
module Path_service = Leotp_constellation.Path_service
module Geo = Leotp_constellation.Geo
module Rng = Leotp_util.Rng
module Common = Leotp_scenario.Common
module Fleet = Leotp_scenario.Fleet
module Workload = Leotp_scenario.Workload
module Invariants = Leotp_scenario.Invariants

let mbps = Leotp_util.Units.mbps_to_bytes_per_sec

(* ------------------------------------------------------------------ *)
(* Per-layer counters, summed over every mirrored operation of a run. *)

type layers = {
  mutable events : int;
  mutable link_enq : int;
  mutable drop_tail : int;
  mutable drop_error : int;
  mutable drop_flush : int;
  mutable drop_down : int;
  mutable records : int;  (** records the program's own recorder saw *)
  mutable pit_register : int;
  mutable pit_aggregated : int;
  mutable pit_satisfy : int;
  mutable pit_expire : int;
  mutable pit_peak : int;
  mutable cache_hits : int;
  mutable shr_interests : int;
  mutable shr_vph : int;
  mutable consumer_rto : int;
  mutable tcp_acks : int;
  mutable tcp_retx : int;
  mutable tcp_lost : int;
  mutable tcp_rto : int;
  mutable switches : int;
  mutable outage_s : float;
  mutable invariants_ok : bool;
}

let layers =
  {
    events = 0;
    link_enq = 0;
    drop_tail = 0;
    drop_error = 0;
    drop_flush = 0;
    drop_down = 0;
    records = 0;
    pit_register = 0;
    pit_aggregated = 0;
    pit_satisfy = 0;
    pit_expire = 0;
    pit_peak = 0;
    cache_hits = 0;
    shr_interests = 0;
    shr_vph = 0;
    consumer_rto = 0;
    tcp_acks = 0;
    tcp_retx = 0;
    tcp_lost = 0;
    tcp_rto = 0;
    switches = 0;
    outage_s = 0.0;
    invariants_ok = true;
  }

(* The counters under their per-layer metric names. *)
let counters () =
  let l = layers in
  [
    ("engine.events", l.events);
    ("link.enq", l.link_enq);
    ("link.drop_tail", l.drop_tail);
    ("link.drop_error", l.drop_error);
    ("link.drop_flush", l.drop_flush);
    ("link.drop_down", l.drop_down);
    ("trace.records", l.records);
    ("dynpath.switches", l.switches);
    ("pit.register", l.pit_register);
    ("pit.aggregated", l.pit_aggregated);
    ("pit.satisfy", l.pit_satisfy);
    ("pit.expire", l.pit_expire);
    ("pit.peak", l.pit_peak);
    ("cache.hits", l.cache_hits);
    ("shr.interests", l.shr_interests);
    ("shr.vph", l.shr_vph);
    ("consumer.rto_fires", l.consumer_rto);
    ("tcp.acks", l.tcp_acks);
    ("tcp.retx", l.tcp_retx);
    ("tcp.lost_marks", l.tcp_lost);
    ("tcp.rto_fires", l.tcp_rto);
  ]

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* The counting sink: event kinds the layer table names. *)
let count_event (r : Trace.record) =
  let l = layers in
  match r.Trace.event with
  | Trace.Pit_register { forwarded; pending; _ } ->
    l.pit_register <- l.pit_register + 1;
    if not forwarded then l.pit_aggregated <- l.pit_aggregated + 1;
    l.pit_peak <- max l.pit_peak pending
  | Trace.Pit_satisfy _ -> l.pit_satisfy <- l.pit_satisfy + 1
  | Trace.Pit_expire _ -> l.pit_expire <- l.pit_expire + 1
  | Trace.Rto_fire { who; _ } ->
    if starts_with ~prefix:"consumer:" who then
      l.consumer_rto <- l.consumer_rto + 1
    else if starts_with ~prefix:"tcp:" who then l.tcp_rto <- l.tcp_rto + 1
  | Trace.Ack_processed _ -> l.tcp_acks <- l.tcp_acks + 1
  | Trace.Seg_state { state = Trace.Seg_retx; _ } ->
    l.tcp_retx <- l.tcp_retx + 1
  | Trace.Seg_state { state = Trace.Seg_lost; _ } ->
    l.tcp_lost <- l.tcp_lost + 1
  | _ -> ()

let add_link_stats links =
  List.iter
    (fun link ->
      let s = Link.stats link in
      let l = layers in
      l.link_enq <- l.link_enq + s.Link.packets_in;
      l.drop_tail <- l.drop_tail + s.Link.drops_tail;
      l.drop_error <- l.drop_error + s.Link.drops_error;
      l.drop_flush <- l.drop_flush + s.Link.drops_flush;
      l.drop_down <- l.drop_down + s.Link.drops_down)
    links

let add_midnode_stats midnodes =
  List.iter
    (fun m ->
      let c = Leotp.Cache.stats (Leotp.Midnode.cache m) in
      layers.cache_hits <- layers.cache_hits + c.Leotp.Cache.hits;
      List.iter
        (fun flow ->
          match Leotp.Midnode.flow_stats m ~flow with
          | None -> ()
          | Some fs ->
            layers.shr_interests <-
              layers.shr_interests + fs.Leotp.Midnode.shr_interests;
            layers.shr_vph <- layers.shr_vph + fs.Leotp.Midnode.vph_sent)
        (Leotp.Midnode.flows m))
    midnodes

(* ------------------------------------------------------------------ *)
(* Observation switches for one mirrored run. *)

type observe = {
  traced : bool;
      (** per-delivery handler spans, the counting sink and the layer
          counters *)
  digesting : bool;  (** the program's recorder hashes every record *)
}

let traced = { traced = true; digesting = true }
let plain ~digesting = { traced = false; digesting }

(* Re-wire a duplex's deliveries exactly as [Topology.connect] does,
   inside a "stack.rx" span. *)
let wrap_duplex obs a b (d : Topology.duplex) =
  if obs.traced then begin
    let rx = Span.child (Span.top ()) "stack.rx" in
    let ida = Node.id a and idb = Node.id b in
    Link.set_sink d.Topology.fwd
      (Span.timed rx (fun pkt -> Node.receive b ~from:ida pkt));
    Link.set_sink d.Topology.rev
      (Span.timed rx (fun pkt -> Node.receive a ~from:idb pkt))
  end

let wrap_chain obs (chain : Topology.chain) =
  Array.iteri
    (fun i d ->
      wrap_duplex obs chain.Topology.nodes.(i) chain.Topology.nodes.(i + 1) d)
    chain.Topology.hops

let add_sinks obs recorder =
  if obs.traced then Trace.add_sink recorder count_event

let finish_recorder obs recorder =
  if obs.traced then layers.records <- layers.records + Trace.count recorder

(* [known] names invariants whose failure is a documented program defect
   on this scenario (see README.md): printed, not counted as a failure. *)
let check_reports ?(known = []) reports =
  List.iter
    (fun (r : Invariants.report) ->
      if not r.Invariants.ok then
        if List.mem r.Invariants.invariant known then
          Printf.printf "known-defect %s: %s\n" r.Invariants.invariant
            r.Invariants.detail
        else begin
          layers.invariants_ok <- false;
          Printf.eprintf "invariant %s: %s\n" r.Invariants.invariant
            r.Invariants.detail
        end)
    reports

(* ------------------------------------------------------------------ *)
(* [Common.run_chain] for a bulk flow (no bytes bound, faults,
   bottleneck override or bandwidth schedule). *)

let run_chain ~obs ~seed ~duration ~warmup ~hops protocol =
  Packet.reset_ids ();
  Node.reset_ids ();
  let engine = Engine.create () in
  let rng = Rng.create ~seed in
  let floor = List.fold_left (fun acc h -> acc +. h.Common.delay) 0.0 hops in
  let specs =
    Array.of_list
      (List.map
         (fun p ->
           Topology.hop ~plr:p.Common.plr ~buffer_bytes:p.Common.buffer_bytes
             ~bandwidth:(Bandwidth.Constant (mbps p.Common.bandwidth_mbps))
             ~delay:p.Common.delay ())
         hops)
  in
  let chain = Topology.chain engine ~rng specs in
  wrap_chain obs chain;
  let links =
    Array.fold_right
      (fun d acc -> d.Topology.fwd :: d.Topology.rev :: acc)
      chain.Topology.hops []
  in
  let n = Array.length chain.Topology.nodes - 1 in
  let midnodes = ref [] in
  (* Without a caller recorder [Common.run_chain] emits nothing; the
     counting recorder here only feeds the sinks. *)
  let trace =
    if obs.traced then begin
      let r = Trace.create ~capacity:1 ~digesting:false () in
      add_sinks obs r;
      Some r
    end
    else None
  in
  let on_reports =
    if obs.traced then Some (fun r -> check_reports r) else None
  in
  let summary =
    Common.observed ~engine ~links ?trace ?on_reports
      ~sweep:(fun ~now ->
        List.iter (fun m -> Leotp.Midnode.sweep_pit m ~now) !midnodes)
      ~label:(Common.protocol_name protocol)
    @@ fun () ->
    let metrics =
      match protocol with
      | Common.Tcp cc ->
        let session =
          Leotp_tcp.Session.connect engine ~src_node:chain.Topology.nodes.(0)
            ~dst_node:chain.Topology.nodes.(n) ~flow:1 ~cc
            ~source:Leotp_tcp.Sender.Unlimited ()
        in
        Leotp_tcp.Session.start session;
        session.Leotp_tcp.Session.metrics
      | Common.Leotp cfg ->
        let session =
          Leotp.Session.over_chain engine ~config:cfg ~chain ~flow:1 ()
        in
        midnodes := session.Leotp.Session.midnodes;
        Leotp.Session.start session;
        session.Leotp.Session.metrics
      | Common.Split_tcp _ | Common.Leotp_partial _ ->
        invalid_arg "Mirror.run_chain: protocol not in the workload"
    in
    Engine.run ~until:duration engine;
    let congestion_drops =
      Array.fold_left
        (fun acc d ->
          acc
          + (Link.stats d.Topology.fwd).Link.drops_tail
          + (Link.stats d.Topology.rev).Link.drops_tail)
        0 chain.Topology.hops
    in
    Common.summarize ~congestion_drops
      ~protocol:(Common.protocol_name protocol)
      ~metrics ~floor ~warmup ~duration ()
  in
  if obs.traced then begin
    layers.events <- layers.events + Engine.events_processed engine;
    add_link_stats links;
    add_midnode_stats !midnodes
  end;
  summary

(* ------------------------------------------------------------------ *)
(* [Pathtrace.run] with the default LEOTP protocol and hold-last
   interpolation. *)

let run_replay ~obs ~duration (trace : Path_trace.t) =
  Packet.reset_ids ();
  Node.reset_ids ();
  let meta = trace.Path_trace.meta in
  let seed = meta.Path_trace.seed in
  let warmup = Float.min 15.0 (0.15 *. duration) in
  let engine = Engine.create () in
  let rng = Rng.create ~seed in
  let max_hops = min 24 (Path_trace.max_hop_count trace) in
  let initial =
    match
      List.find_map
        (fun (r : Path_trace.record) ->
          match r.Path_trace.event with
          | Path_trace.Route { hops; _ } -> Some hops
          | Path_trace.No_route -> None)
        trace.Path_trace.records
    with
    | Some hops -> Dynamic_path.snapshot_of_hops ~max_hops hops
    | None -> invalid_arg "Mirror.run_replay: trace has no route records"
  in
  let dp = Dynamic_path.create engine ~rng ~max_hops ~initial () in
  Dynamic_path.schedule_trace dp trace;
  let chain = Dynamic_path.chain dp in
  wrap_chain obs chain;
  let links =
    Array.fold_left
      (fun acc (d : Topology.duplex) -> d.Topology.fwd :: d.Topology.rev :: acc)
      [] chain.Topology.hops
  in
  let recorder = Trace.create ~capacity:1 ~digesting:obs.digesting () in
  add_sinks obs recorder;
  (* [Pathtrace.run] never sweeps its midnodes' PITs at the end of the
     run, so an Interest registered as the path goes dark outlives its
     expiry and "pit-lifetime" fails. *)
  let on_reports =
    if obs.traced then Some (check_reports ~known:[ "pit-lifetime" ])
    else None
  in
  let midnodes = ref [] in
  let metrics =
    Common.observed ~engine ~links ~trace:recorder ?on_reports
      ~label:"pathtrace" (fun () ->
        let session =
          Leotp.Session.over_chain engine ~config:Leotp.Config.default ~chain
            ~flow:1 ()
        in
        midnodes := session.Leotp.Session.midnodes;
        Leotp.Session.start session;
        Engine.run ~until:duration engine;
        session.Leotp.Session.metrics)
  in
  let summary =
    Common.summarize ~protocol:"leotp" ~metrics
      ~floor:(Path_trace.min_total_delay trace)
      ~warmup ~duration ()
  in
  finish_recorder obs recorder;
  if obs.traced then begin
    layers.events <- layers.events + Engine.events_processed engine;
    layers.switches <- layers.switches + Dynamic_path.switch_count dp;
    layers.outage_s <-
      layers.outage_s
      +. List.fold_left
           (fun acc (a, b) ->
             acc +. Float.max 0.0 (Float.min b duration -. Float.min a duration))
           0.0
           (Path_trace.outage_intervals trace);
    add_link_stats links;
    add_midnode_stats !midnodes
  end;
  (summary, Dynamic_path.switch_count dp, Trace.digest recorder)

(* ------------------------------------------------------------------ *)
(* [Fleet.run_shard]. *)

type slot = {
  producer_node : Node.t;
  consumer_node : Node.t;
  access : Topology.duplex;
  space : Topology.duplex;
}

type site = {
  gateway : Node.t;
  sky : Node.t;
  uplink : Topology.duplex;
  gw_mid : Leotp.Midnode.t;
  sky_mid : Leotp.Midnode.t;
  mutable free_slots : slot list;
  mutable next_slot : int;
}

type active = {
  slot : slot;
  site_origin : int;
  session : [ `Leotp of Leotp.Session.t | `Tcp of Leotp_tcp.Session.t ];
  mutable retired : bool;
}

type shard = {
  spec : Fleet.spec;
  obs : observe;
  engine : Engine.t;
  rng : Rng.t;
  memo : Path_service.Memo.t;
  sites : site option array;
  flows : (int, active) Hashtbl.t;
  mutable links : Link.t list;
  mutable started : int;
  mutable completed : int;
  mutable skipped : int;
  mutable peak_active : int;
}

let connect st a b hop =
  let d = Topology.connect st.engine ~rng:st.rng a b hop in
  wrap_duplex st.obs a b d;
  d

let access_delay = 0.0005

let space_params spec route ~uplink_delay =
  let total = Path_service.total_delay route in
  let delay = Float.max 0.0005 (total -. uplink_delay) in
  let isls =
    List.length
      (List.filter (fun h -> h.Path_service.kind = Path_service.Isl) route)
  in
  let p_ok =
    ((1.0 -. spec.Fleet.isl_plr) ** float_of_int isls)
    *. (1.0 -. spec.Fleet.gsl_plr)
  in
  (delay, 1.0 -. p_ok)

let get_site st ~origin ~route =
  match st.sites.(origin) with
  | Some site -> site
  | None ->
    let uplink_delay =
      match route with
      | h :: _ -> Geo.propagation_delay h.Path_service.distance
      | [] -> 0.01
    in
    let name = Printf.sprintf "o%02d" origin in
    let gateway = Node.create ~name:(name ^ ".gw") in
    let sky = Node.create ~name:(name ^ ".sky") in
    let uplink =
      connect st gateway sky
        (Topology.hop
           ~bandwidth:(Bandwidth.Constant (mbps st.spec.Fleet.uplink_mbps))
           ~delay:uplink_delay ~plr:st.spec.Fleet.gsl_plr ())
    in
    st.links <- uplink.Topology.rev :: uplink.Topology.fwd :: st.links;
    let gw_mid =
      Leotp.Midnode.create st.engine ~config:st.spec.Fleet.config
        ~node:gateway ()
    in
    let sky_mid =
      Leotp.Midnode.create st.engine ~config:st.spec.Fleet.config ~node:sky ()
    in
    let site =
      { gateway; sky; uplink; gw_mid; sky_mid; free_slots = []; next_slot = 0 }
    in
    st.sites.(origin) <- Some site;
    site

let get_slot st ~origin site =
  match site.free_slots with
  | slot :: rest ->
    site.free_slots <- rest;
    slot
  | [] ->
    let name = Printf.sprintf "o%02d.s%03d" origin site.next_slot in
    site.next_slot <- site.next_slot + 1;
    let producer_node = Node.create ~name:(name ^ ".p") in
    let consumer_node = Node.create ~name:(name ^ ".c") in
    let access =
      connect st producer_node site.gateway
        (Topology.hop
           ~bandwidth:(Bandwidth.Constant (mbps st.spec.Fleet.access_mbps))
           ~delay:access_delay ())
    in
    let space =
      connect st site.sky consumer_node
        (Topology.hop
           ~bandwidth:(Bandwidth.Constant (mbps st.spec.Fleet.space_mbps))
           ~delay:0.01 ())
    in
    st.links <-
      space.Topology.rev :: space.Topology.fwd :: access.Topology.rev
      :: access.Topology.fwd :: st.links;
    { producer_node; consumer_node; access; space }

let retire st flow =
  match Hashtbl.find_opt st.flows flow with
  | None -> ()
  | Some fl when fl.retired -> ()
  | Some fl ->
    fl.retired <- true;
    (match fl.session with
    | `Leotp s ->
      Leotp.Session.stop s;
      Leotp.Producer.stop s.Leotp.Session.producer
    | `Tcp s -> Leotp_tcp.Session.stop s);
    (match st.sites.(fl.site_origin) with
    | None -> ()
    | Some site ->
      (* Per-flow SHR counters die with the flow's midnode state. *)
      if st.obs.traced then
        List.iter
          (fun m ->
            match Leotp.Midnode.flow_stats m ~flow with
            | None -> ()
            | Some fs ->
              layers.shr_interests <-
                layers.shr_interests + fs.Leotp.Midnode.shr_interests;
              layers.shr_vph <- layers.shr_vph + fs.Leotp.Midnode.vph_sent)
          [ site.gw_mid; site.sky_mid ];
      Leotp.Midnode.retire_flow site.gw_mid ~flow;
      Leotp.Midnode.retire_flow site.sky_mid ~flow;
      let cid = Node.id fl.slot.consumer_node
      and pid = Node.id fl.slot.producer_node in
      Node.remove_route site.gateway ~dst:cid;
      Node.remove_route site.gateway ~dst:pid;
      Node.remove_route site.sky ~dst:cid;
      Node.remove_route site.sky ~dst:pid;
      Link.flush fl.slot.access.Topology.fwd;
      Link.flush fl.slot.access.Topology.rev;
      Link.flush fl.slot.space.Topology.fwd;
      Link.flush fl.slot.space.Topology.rev;
      site.free_slots <- fl.slot :: site.free_slots);
    Hashtbl.remove st.flows flow

let admit st (a : Workload.arrival) =
  let now = Engine.now st.engine in
  match
    Path_service.Memo.route st.memo
      ~src:Cities.all.(a.Workload.origin)
      ~dst:Cities.all.(a.Workload.city)
      ~isls:true ~time:now
  with
  | None -> st.skipped <- st.skipped + 1
  | Some route ->
    let site = get_site st ~origin:a.Workload.origin ~route in
    let slot = get_slot st ~origin:a.Workload.origin site in
    let uplink_delay = Link.delay site.uplink.Topology.fwd in
    let delay, plr = space_params st.spec route ~uplink_delay in
    Link.set_delay slot.space.Topology.fwd delay;
    Link.set_delay slot.space.Topology.rev delay;
    Link.set_plr slot.space.Topology.fwd plr;
    Link.set_plr slot.space.Topology.rev plr;
    let cid = Node.id slot.consumer_node
    and pid = Node.id slot.producer_node in
    Node.add_route slot.producer_node ~dst:cid slot.access.Topology.fwd;
    Node.add_route slot.consumer_node ~dst:pid slot.space.Topology.rev;
    Node.add_route site.gateway ~dst:cid site.uplink.Topology.fwd;
    Node.add_route site.gateway ~dst:pid slot.access.Topology.rev;
    Node.add_route site.sky ~dst:cid slot.space.Topology.fwd;
    Node.add_route site.sky ~dst:pid site.uplink.Topology.rev;
    let flow = a.Workload.seq + 1 in
    let on_complete () =
      st.completed <- st.completed + 1;
      ignore
        (Engine.schedule st.engine ~after:st.spec.Fleet.retire_grace (fun () ->
             retire st flow))
    in
    let session =
      match a.Workload.protocol with
      | Workload.Leotp ->
        let s =
          Leotp.Session.attach st.engine ~config:st.spec.Fleet.config
            ~consumer_node:slot.consumer_node ~producer_node:slot.producer_node
            ~midnodes:[ site.gw_mid; site.sky_mid ] ~flow
            ~total_bytes:a.Workload.bytes ~on_complete ()
        in
        Leotp.Session.start s;
        `Leotp s
      | Workload.Tcp ->
        let s =
          Leotp_tcp.Session.connect st.engine ~src_node:slot.producer_node
            ~dst_node:slot.consumer_node ~flow ~cc:st.spec.Fleet.tcp_cc
            ~source:(Leotp_tcp.Sender.Fixed a.Workload.bytes) ~on_complete ()
        in
        Leotp_tcp.Session.start s;
        `Tcp s
    in
    Hashtbl.replace st.flows flow
      { slot; site_origin = a.Workload.origin; session; retired = false };
    st.started <- st.started + 1;
    st.peak_active <- max st.peak_active (Hashtbl.length st.flows)

let pump st ~until =
  let continue = ref true in
  while !continue do
    match
      Engine.run_slice ~max_events:st.spec.Fleet.batch st.engine ~until
    with
    | `Events -> ()
    | `Until | `Quiescent -> continue := false
  done

type shard_result = {
  started : int;
  completed : int;
  skipped : int;
  peak_active : int;
  packets : int;
  events : int;
  route_queries : int;
  route_computes : int;
  pool_live_delta : int;
  pit_pending_end : int;
  digest : string;
  invariants_ok : bool;
}

let run_shard ~obs (spec : Fleet.spec) ~shard ~arrivals =
  Packet.reset_ids ();
  Node.reset_ids ();
  let pool_live0 = Pool.live_count () in
  let packets0 = Packet.created_on_domain () in
  let engine = Engine.create () in
  let rng =
    Rng.substream
      (Rng.create ~seed:spec.Fleet.workload.Workload.seed)
      (Printf.sprintf "fleet-shard-%02d" shard)
  in
  let st =
    {
      spec;
      obs;
      engine;
      rng;
      memo =
        Path_service.Memo.create ~epoch:spec.Fleet.route_epoch
          (Walker.create Walker.starlink);
      sites = Array.make Cities.count None;
      flows = Hashtbl.create 64;
      links = [];
      started = 0;
      completed = 0;
      skipped = 0;
      peak_active = 0;
    }
  in
  let recorder = Trace.create ~capacity:1 ~digesting:obs.digesting () in
  let checker = Invariants.create () in
  Trace.add_sink recorder (Invariants.sink checker);
  add_sinks obs recorder;
  let reports = ref [] in
  let pit_end = ref 0 in
  Trace.with_recorder recorder
    ~clock:(fun () -> Engine.now engine)
    (fun () ->
      List.iter
        (fun (a : Workload.arrival) ->
          pump st ~until:a.Workload.at;
          admit st a)
        arrivals;
      pump st
        ~until:(spec.Fleet.workload.Workload.horizon +. spec.Fleet.drain);
      let active =
        List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) st.flows [])
      in
      List.iter (retire st) active;
      List.iter Link.flush (List.rev st.links);
      pump st ~until:(Engine.now engine +. spec.Fleet.retire_grace +. 1.0);
      let now = Engine.now engine in
      Array.iter
        (function
          | None -> ()
          | Some site ->
            Leotp.Midnode.sweep_pit site.gw_mid ~now;
            Leotp.Midnode.sweep_pit site.sky_mid ~now;
            pit_end :=
              !pit_end
              + Leotp.Midnode.pit_pending site.gw_mid
              + Leotp.Midnode.pit_pending site.sky_mid)
        st.sites;
      List.iter Link.trace_final (List.rev st.links);
      reports := Invariants.finalize ~now checker);
  finish_recorder obs recorder;
  if obs.traced then begin
    layers.events <- layers.events + Engine.events_processed engine;
    add_link_stats st.links;
    Array.iter
      (function
        | None -> ()
        | Some site ->
          List.iter
            (fun m ->
              let c = Leotp.Cache.stats (Leotp.Midnode.cache m) in
              layers.cache_hits <- layers.cache_hits + c.Leotp.Cache.hits)
            [ site.gw_mid; site.sky_mid ])
      st.sites;
    check_reports !reports
  end;
  {
    started = st.started;
    completed = st.completed;
    skipped = st.skipped;
    peak_active = st.peak_active;
    packets = Packet.created_on_domain () - packets0;
    events = Engine.events_processed engine;
    route_queries = Path_service.Memo.queries st.memo;
    route_computes = Path_service.Memo.computes st.memo;
    pool_live_delta = Pool.live_count () - pool_live0;
    pit_pending_end = !pit_end;
    digest = Trace.digest recorder;
    invariants_ok = Invariants.all_ok !reports;
  }
