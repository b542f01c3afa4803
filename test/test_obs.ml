(* The event stack (DESIGN.md §8.6): event-ring wraparound and
   deterministic merge, concurrent ring writers on real domains, the
   zero-allocation record path, trace-wide tracks and flows, lane
   phase-accounting arithmetic, the registry's Prometheus exposition
   grammar, and the 'stats metrics' protocol verb. *)

module Obs = Privagic_obs
module Ring = Privagic_obs.Ring
module Lane = Privagic_obs.Lane
module Phase = Privagic_obs.Phase
module Registry = Privagic_obs.Registry
module Protocol = Privagic_server.Protocol
module Metrics = Privagic_telemetry.Metrics

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let check_contains what needle hay =
  if not (contains ~needle hay) then
    Alcotest.failf "%s: expected %S in:\n%s" what needle hay

(* --- ring: overwrite-oldest wraparound --- *)

let test_ring_wraparound () =
  let r = Ring.create ~cap:8 ~id:3 ~label:"w" () in
  Alcotest.(check int) "capacity" 8 (Ring.capacity r);
  for i = 0 to 19 do
    Ring.record r ~code:1 ~arg:i ~t_us:(100 + i)
  done;
  Alcotest.(check int) "total" 20 (Ring.total r);
  Alcotest.(check int) "length" 8 (Ring.length r);
  Alcotest.(check int) "dropped" 12 (Ring.dropped r);
  let evs = Ring.to_events r in
  Alcotest.(check int) "surviving" 8 (Array.length evs);
  Array.iteri
    (fun k e ->
      Alcotest.(check int) "oldest-first arg" (12 + k) e.Ring.ev_arg;
      Alcotest.(check int) "seq" (12 + k) e.Ring.ev_seq;
      Alcotest.(check (float 0.0)) "ts" (float_of_int (112 + k)) e.Ring.ev_at)
    evs

let test_ring_cap_rounding () =
  let r = Ring.create ~cap:5 ~id:0 ~label:"r" () in
  Alcotest.(check int) "5 -> 8" 8 (Ring.capacity r);
  let r = Ring.create ~cap:1 ~id:0 ~label:"r" () in
  Alcotest.(check int) "1 -> 2" 2 (Ring.capacity r)

(* --- ring: concurrent writers, deterministic post-merge order --- *)

let test_concurrent_merge () =
  let n = 1000 in
  let mk id = Ring.create ~cap:2048 ~id ~label:(string_of_int id) () in
  let rings = [ mk 0; mk 1; mk 2 ] in
  let doms =
    List.map
      (fun r ->
        Domain.spawn (fun () ->
            (* deliberately colliding timestamps across rings: the
               (ring, seq) tiebreak must make the merge total *)
            for i = 0 to n - 1 do
              Ring.record r ~code:2 ~arg:(Ring.id r) ~t_us:i
            done))
      rings
  in
  List.iter Domain.join doms;
  let a = Ring.merge rings in
  let b = Ring.merge rings in
  let c = Ring.merge [ List.nth rings 2; List.nth rings 0; List.nth rings 1 ] in
  Alcotest.(check int) "all events survive" (3 * n) (Array.length a);
  Alcotest.(check bool) "merge is reproducible" true (a = b);
  Alcotest.(check bool) "merge is input-order independent" true (a = c);
  Array.iteri
    (fun k e ->
      if k > 0 then begin
        let p = a.(k - 1) in
        let ordered =
          p.Ring.ev_at < e.Ring.ev_at
          || (p.Ring.ev_at = e.Ring.ev_at
             && (p.Ring.ev_ring < e.Ring.ev_ring
                || (p.Ring.ev_ring = e.Ring.ev_ring
                   && p.Ring.ev_seq < e.Ring.ev_seq)))
        in
        if not ordered then
          Alcotest.failf "merge not strictly ordered at %d" k
      end)
    a

(* --- ring: zero allocation on the record path --- *)

let test_zero_alloc_record () =
  let minor_words_for n record =
    record 0;
    let w0 = Gc.minor_words () in
    for i = 1 to n do
      record i
    done;
    Gc.minor_words () -. w0
  in
  (* both measurements carry the same constant harness cost (the boxed
     floats of Gc.minor_words itself); any per-record allocation would
     make the 50x loop strictly larger *)
  let check what record =
    let small = minor_words_for 1_000 record in
    let large = minor_words_for 50_000 record in
    Alcotest.(check (float 0.0)) what small large
  in
  let r = Ring.create ~cap:64 ~id:9 ~label:"z" () in
  check "per-record allocation is zero" (fun i ->
      Ring.record r ~code:1 ~arg:i ~t_us:i);
  (* a traced VM event: explicit track, interned name, cycle stamp *)
  let vm = Ring.Trace.vm_ring (Ring.Trace.create ~cap:64 ()) in
  let track = Ring.fresh_track vm "t0/blue" in
  let name = Ring.intern vm "main#blue" in
  let at = 1234567.875 in
  check "traced cycle event allocates nothing" (fun i ->
      Ring.record_cycles vm ~code:Ring.code_chunk_begin ~track ~name ~arg:i at);
  let e = (Ring.to_events vm).(0) in
  Alcotest.(check (float 0.0)) "cycle stamp round-trips" at e.Ring.ev_at;
  Alcotest.(check int) "track kept" track e.Ring.ev_track;
  Alcotest.(check string) "name kept" "main#blue" e.Ring.ev_name

(* --- trace: track names and flow ids shared by its rings --- *)

let test_trace_tracks_and_flows () =
  let tr = Ring.Trace.create ~cap:16 () in
  let r = Ring.Trace.ring tr "srv/shard0" in
  let a = Ring.fresh_track r "alpha" in
  let b = Ring.fresh_track r "beta" in
  Alcotest.(check bool) "distinct tracks" true (a <> b);
  Alcotest.(check string) "name kept" "alpha" (Ring.Trace.track_name tr a);
  Alcotest.(check string) "ring names its track" "srv/shard0"
    (Ring.Trace.track_name tr (Ring.track r));
  (* a second ring reusing a name gets a distinct one *)
  let r2 = Ring.Trace.ring tr "srv/shard0" in
  let names = List.map snd (Ring.Trace.tracks tr) in
  Alcotest.(check int) "track names unique" (List.length names)
    (List.length (List.sort_uniq compare names));
  let f1 = Ring.fresh_flow r in
  let f2 = Ring.fresh_flow r2 in
  Alcotest.(check bool) "flows distinct across rings" true (f1 <> f2);
  Ring.record r ~code:Ring.code_ecall ~arg:0 ~t_us:5;
  Ring.Trace.clear tr;
  Alcotest.(check int) "clear empties events" 0
    (Array.length (Ring.Trace.events tr));
  Alcotest.(check bool) "flow ids survive clear" true
    (Ring.fresh_flow r > max f1 f2);
  Alcotest.(check string) "tracks survive clear" "beta"
    (Ring.Trace.track_name tr b)

let test_flows_across_domains () =
  let tr = Ring.Trace.create ~cap:16 () in
  let n = 10_000 in
  let alloc r =
    Domain.spawn (fun () -> Array.init n (fun _ -> Ring.fresh_flow r))
  in
  let d1 = alloc (Ring.Trace.ring tr "d0/U") in
  let d2 = alloc (Ring.Trace.ring tr "d1/U") in
  let all = Array.append (Domain.join d1) (Domain.join d2) in
  Alcotest.(check int) "no flow id collides" (2 * n)
    (List.length (List.sort_uniq compare (Array.to_list all)))

(* --- lane: phase accounting arithmetic --- *)

let test_lane_accounting () =
  let l = Lane.create ~ring:(Ring.create ~id:7 ~label:"d0/blue" ()) ~now_us:0 in
  Alcotest.(check int) "starts in queue-wait"
    (Phase.index Phase.Queue_wait) (Lane.current l);
  Lane.enter l Phase.Run ~now_us:100;
  Lane.enter l Phase.Run ~now_us:120 (* same phase: no-op *);
  Lane.enter l Phase.Queue_wait ~now_us:250;
  Lane.enter l Phase.Park ~now_us:400;
  let b = Lane.snapshot l ~now_us:1000 in
  Alcotest.(check int) "wall" 1000 b.Lane.b_wall_us;
  Alcotest.(check string) "label" "d0/blue" b.Lane.b_label;
  let us p = b.Lane.b_phase_us.(Phase.index p) in
  Alcotest.(check int) "run" 150 (us Phase.Run);
  Alcotest.(check int) "queue-wait" 250 (us Phase.Queue_wait);
  Alcotest.(check int) "park (open tail closed)" 600 (us Phase.Park);
  Alcotest.(check int) "pump-wait" 0 (us Phase.Pump_wait);
  Alcotest.(check int) "barrier" 0 (us Phase.Barrier);
  Alcotest.(check (float 1e-9)) "coverage" 1.0 (Lane.coverage b);
  Alcotest.(check string) "dominant stall" "park"
    (Phase.name (Lane.dominant_stall b));
  (* the three transitions each dropped a phase-entry event *)
  Alcotest.(check int) "ring events" 3 (Ring.total (Lane.ring l))

(* --- registry: exposition grammar --- *)

let test_registry_exposition () =
  let reg = Registry.create () in
  let c =
    Registry.counter reg
      ~labels:[ ("op", "get") ]
      ~help:"Requests served" "test_ops_total"
  in
  for _ = 1 to 7 do
    Atomic.incr c
  done;
  Registry.gauge reg ~help:"Queue depth" "test_depth" (fun () -> 3.5);
  Registry.multi_gauge reg ~help:"Per-lane series" "test_lane" (fun () ->
      [ ([ ("lane", "0") ], 1.0); ([ ("lane", "1") ], 2.0) ]);
  Registry.summary reg ~help:"Latency" "test_lat" (fun () ->
      {
        Metrics.n = 4;
        p_mean = 2.5;
        p50 = 2.0;
        p95 = 4.0;
        p99 = 4.0;
        p999 = 4.0;
        p_max = 4.0;
      });
  let text = Registry.expose reg in
  check_contains "counter type" "# TYPE test_ops_total counter" text;
  check_contains "counter sample" "test_ops_total{op=\"get\"} 7" text;
  check_contains "gauge type" "# TYPE test_depth gauge" text;
  check_contains "gauge sample" "test_depth 3.5" text;
  check_contains "multi type" "# TYPE test_lane gauge" text;
  check_contains "multi sample 0" "test_lane{lane=\"0\"} 1" text;
  check_contains "multi sample 1" "test_lane{lane=\"1\"} 2" text;
  check_contains "summary type" "# TYPE test_lat summary" text;
  check_contains "p999 quantile" "test_lat{quantile=\"0.999\"} 4" text;
  check_contains "max quantile" "test_lat{quantile=\"1\"} 4" text;
  check_contains "sum" "test_lat_sum 10" text;
  check_contains "count" "test_lat_count 4" text;
  (* idempotent counter registration returns the same atomic *)
  let c' =
    Registry.counter reg
      ~labels:[ ("op", "get") ]
      ~help:"Requests served" "test_ops_total"
  in
  Alcotest.(check bool) "same counter" true (c == c')

let test_registry_label_escaping () =
  let reg = Registry.create () in
  Registry.gauge reg
    ~labels:[ ("k", "a\"b\\c\nd") ]
    ~help:"" "test_esc" (fun () -> 1.0);
  check_contains "escaped label" "test_esc{k=\"a\\\"b\\\\c\\nd\"} 1"
    (Registry.expose reg)

(* --- metrics: the latency quartet gained p99.9 and max --- *)

let test_pctiles_p999 () =
  let m = Metrics.create () in
  let h = Metrics.histogram m "lat" in
  for i = 1 to 1000 do
    Metrics.observe h (float_of_int i)
  done;
  let p = Metrics.pctiles h in
  Alcotest.(check int) "n" 1000 p.Metrics.n;
  Alcotest.(check (float 1e-9)) "max is exact" 1000.0 p.Metrics.p_max;
  let ordered =
    p.Metrics.p50 <= p.Metrics.p95
    && p.Metrics.p95 <= p.Metrics.p99
    && p.Metrics.p99 <= p.Metrics.p999
    && p.Metrics.p999 <= p.Metrics.p_max
  in
  Alcotest.(check bool) "p50 <= p95 <= p99 <= p99.9 <= max" true ordered

(* --- protocol: the stats-metrics verb --- *)

let test_protocol_stats_metrics () =
  let rd = Protocol.reader () in
  let s = Bytes.of_string "stats metrics\r\n" in
  (match Protocol.feed rd s (Bytes.length s) with
  | [ `Req Protocol.Stats_metrics ] -> ()
  | _ -> Alcotest.fail "expected Stats_metrics");
  Alcotest.(check string) "round-trips" "stats metrics\r\n"
    (Protocol.render_request Protocol.Stats_metrics);
  let out = Protocol.render (Protocol.Metrics_reply "a 1\nb 2\n") in
  Alcotest.(check string) "exposition + END" "a 1\nb 2\nEND\r\n" out;
  Alcotest.(check string) "trailing newline is normalized" "a 1\nEND\r\n"
    (Protocol.render (Protocol.Metrics_reply "a 1"))

let suite =
  [
    Alcotest.test_case "ring wraparound overwrites oldest" `Quick
      test_ring_wraparound;
    Alcotest.test_case "ring capacity rounds to pow2" `Quick
      test_ring_cap_rounding;
    Alcotest.test_case "concurrent writers merge deterministically" `Quick
      test_concurrent_merge;
    Alcotest.test_case "record path allocates nothing" `Quick
      test_zero_alloc_record;
    Alcotest.test_case "trace tracks/flows" `Quick test_trace_tracks_and_flows;
    Alcotest.test_case "flows from two domains never collide" `Quick
      test_flows_across_domains;
    Alcotest.test_case "lane phase accounting" `Quick test_lane_accounting;
    Alcotest.test_case "registry exposition grammar" `Quick
      test_registry_exposition;
    Alcotest.test_case "registry label escaping" `Quick
      test_registry_label_escaping;
    Alcotest.test_case "pctiles p99.9/max" `Quick test_pctiles_p999;
    Alcotest.test_case "protocol stats metrics" `Quick
      test_protocol_stats_metrics;
  ]
