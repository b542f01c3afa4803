(* Partitioned execution tests: functional equivalence with the plain
   interpreter, message accounting, virtual-time latencies, persistence
   across requests, thread spawning. *)

open Privagic_secure
open Privagic_vm
module P = Privagic_workloads.Programs
module Sgx = Privagic_sgx

let test_fig6_equivalence () =
  let plain_v, plain_out = Helpers.run_plain P.fig6 "main" [] in
  let part_v, part_out = Helpers.run_partitioned ~mode:Mode.Relaxed P.fig6 "main" [] in
  Alcotest.(check int64) "same value" (Rvalue.to_int64 plain_v)
    (Rvalue.to_int64 part_v);
  Alcotest.(check string) "same output" plain_out part_out

let test_fig6_messages () =
  let pt = Helpers.pinterp ~mode:Mode.Relaxed P.fig6 in
  let _ = Pinterp.call_entry pt "main" [] in
  let c = Sgx.Machine.counters (Pinterp.machine pt) in
  (* Fig. 7: s1..s3 spawns, c1..c5 conts, completions — several crossings,
     but bounded *)
  Alcotest.(check bool) "crossings happened" true (c.Sgx.Machine.queue_msgs >= 4);
  Alcotest.(check bool) "crossings bounded" true (c.Sgx.Machine.queue_msgs <= 16)

let test_latency_positive_and_persistent () =
  let pt = Helpers.pinterp ~mode:Mode.Relaxed P.fig6 in
  let r1 = Pinterp.call_entry pt "main" [] in
  let r2 = Pinterp.call_entry pt "main" [] in
  Alcotest.(check bool) "latency > 0" true (r1.Pinterp.latency_cycles > 0.0);
  Alcotest.(check bool) "virtual time advances" true
    (r2.Pinterp.completed_at > r1.Pinterp.completed_at);
  (* warm caches: the second request is no slower *)
  Alcotest.(check bool) "warm request not slower" true
    (r2.Pinterp.latency_cycles <= r1.Pinterp.latency_cycles)

let test_state_persists_across_requests () =
  let src =
    {|
ignore extern void classify_i64(int* d, int v);
ignore extern void declassify_i64(int* d, int v);
int color(blue) counter;
int rstatus;
entry int bump(int by) {
  int color(blue) k;
  classify_i64(&k, by);
  counter = counter + k;
  declassify_i64(&rstatus, counter);
  return rstatus;
}
|}
  in
  let pt = Helpers.pinterp ~mode:Mode.Hardened src in
  let v1 = (Pinterp.call_entry pt "bump" [ Helpers.rvalue_int 5 ]).Pinterp.value in
  let v2 = (Pinterp.call_entry pt "bump" [ Helpers.rvalue_int 7 ]).Pinterp.value in
  Alcotest.(check int64) "first" 5L (Rvalue.to_int64 v1);
  Alcotest.(check int64) "accumulated" 12L (Rvalue.to_int64 v2)

let roundtrip_structure ~mode src ~put ~get =
  let pt = Helpers.pinterp ~mode src in
  let heap = pt.Pinterp.exec.Exec.heap in
  let vbuf = Heap.alloc heap Heap.Unsafe 128 in
  let obuf = Heap.alloc heap Heap.Unsafe 128 in
  for i = 0 to 7 do
    Heap.store heap (vbuf + i) 1 (Int64.of_int (65 + i))
  done;
  (* insert three keys, update one, then read *)
  List.iter
    (fun k ->
      ignore
        (Pinterp.call_entry pt put [ Helpers.rvalue_int k; Rvalue.Ptr vbuf ]))
    [ 3; 11; 19 ];
  Heap.store heap vbuf 1 90L;
  ignore (Pinterp.call_entry pt put [ Helpers.rvalue_int 11; Rvalue.Ptr vbuf ]);
  let hit k =
    Rvalue.to_int64
      (Pinterp.call_entry pt get [ Helpers.rvalue_int k; Rvalue.Ptr obuf ])
        .Pinterp.value
  in
  Alcotest.(check int64) "hit 3" 1L (hit 3);
  Alcotest.(check int64) "miss 4" 0L (hit 4);
  Alcotest.(check int64) "hit 11" 1L (hit 11);
  Alcotest.(check int64) "updated value visible" 90L
    (Heap.load heap obuf 1)

let test_hashmap_partitioned () =
  roundtrip_structure ~mode:Mode.Hardened
    (P.hashmap ~nbuckets:64 ~vsize:32 `Colored)
    ~put:"hm_put" ~get:"hm_get"

let test_llist_partitioned () =
  roundtrip_structure ~mode:Mode.Hardened
    (P.linked_list ~vsize:32 `Colored)
    ~put:"ll_put" ~get:"ll_get"

let test_rbtree_partitioned () =
  roundtrip_structure ~mode:Mode.Hardened
    (P.rbtree ~vsize:32 `Colored)
    ~put:"tm_put" ~get:"tm_get"

let test_two_color_partitioned () =
  roundtrip_structure ~mode:Mode.Relaxed
    (P.hashmap_two_color ~nbuckets:64 ~vsize:32 `Colored)
    ~put:"h2_put" ~get:"h2_get"

let test_rbtree_ordering_respected () =
  (* many keys: the tree must stay a valid search structure under the
     partitioned execution *)
  let pt =
    Helpers.pinterp ~mode:Mode.Hardened (P.rbtree ~vsize:16 `Colored)
  in
  let heap = pt.Pinterp.exec.Exec.heap in
  let vbuf = Heap.alloc heap Heap.Unsafe 64 in
  let obuf = Heap.alloc heap Heap.Unsafe 64 in
  let keys = List.init 64 (fun i -> (i * 37) mod 101) in
  List.iter
    (fun k ->
      ignore
        (Pinterp.call_entry pt "tm_put" [ Helpers.rvalue_int k; Rvalue.Ptr vbuf ]))
    keys;
  List.iter
    (fun k ->
      let v =
        (Pinterp.call_entry pt "tm_get" [ Helpers.rvalue_int k; Rvalue.Ptr obuf ])
          .Pinterp.value
      in
      Alcotest.(check int64)
        (Printf.sprintf "key %d found" k)
        1L (Rvalue.to_int64 v))
    keys;
  let missing =
    (Pinterp.call_entry pt "tm_get" [ Helpers.rvalue_int 9999; Rvalue.Ptr obuf ])
      .Pinterp.value
  in
  Alcotest.(check int64) "absent key" 0L (Rvalue.to_int64 missing)

let test_memcached_partitioned () =
  let pt =
    Helpers.pinterp ~mode:Mode.Hardened
      (P.memcached ~nbuckets:64 ~vsize:32 `Colored)
  in
  let heap = pt.Pinterp.exec.Exec.heap in
  let vbuf = Heap.alloc heap Heap.Unsafe 64 in
  let obuf = Heap.alloc heap Heap.Unsafe 64 in
  ignore (Pinterp.call_entry pt "mc_init" [ Helpers.rvalue_int 3 ]);
  List.iter
    (fun k ->
      ignore
        (Pinterp.call_entry pt "mc_set" [ Helpers.rvalue_int k; Rvalue.Ptr vbuf ]))
    [ 1; 2; 3; 4; 5 ];
  (* capacity 3: keys 1 and 2 evicted in LRU order *)
  let get k =
    Rvalue.to_int64
      (Pinterp.call_entry pt "mc_get" [ Helpers.rvalue_int k; Rvalue.Ptr obuf ])
        .Pinterp.value
  in
  Alcotest.(check int64) "evicted 1" 0L (get 1);
  Alcotest.(check int64) "evicted 2" 0L (get 2);
  Alcotest.(check int64) "kept 4" 1L (get 4);
  let count =
    Rvalue.to_int64 (Pinterp.call_entry pt "mc_count" []).Pinterp.value
  in
  Alcotest.(check int64) "count" 3L count;
  let evictions =
    Rvalue.to_int64
      (Pinterp.call_entry pt "mc_stat" [ Helpers.rvalue_int 3 ]).Pinterp.value
  in
  Alcotest.(check int64) "evictions" 2L evictions

let test_memcached_maintenance_thread () =
  (* shrink the capacity, then let the background thread evict the excess
     — the paper's multi-threaded memcached structure (§9.2) *)
  let pt =
    Helpers.pinterp ~mode:Mode.Hardened
      (P.memcached ~nbuckets:64 ~vsize:32 `Colored)
  in
  let heap = pt.Pinterp.exec.Exec.heap in
  let vbuf = Heap.alloc heap Heap.Unsafe 64 in
  ignore (Pinterp.call_entry pt "mc_init" [ Helpers.rvalue_int 100 ]);
  List.iter
    (fun k ->
      ignore
        (Pinterp.call_entry pt "mc_set" [ Helpers.rvalue_int k; Rvalue.Ptr vbuf ]))
    [ 1; 2; 3; 4; 5 ];
  ignore (Pinterp.call_entry pt "mc_set_capacity" [ Helpers.rvalue_int 2 ]);
  ignore (Pinterp.call_entry pt "mc_maintain" []);
  let count =
    Rvalue.to_int64 (Pinterp.call_entry pt "mc_count" []).Pinterp.value
  in
  Alcotest.(check int64) "crawler evicted down to capacity" 2L count

let test_spawned_thread () =
  (* a spawned thread writes into the blue enclave via its own workers *)
  let src =
    {|
ignore extern void classify_i64(int* d, int v);
ignore extern void declassify_i64(int* d, int v);
int color(blue) cell;
int rstatus;
void worker(int v) {
  int color(blue) k;
  classify_i64(&k, v);
  cell = k;
}
entry void start(int v) { spawn worker(v); }
entry int read_cell() {
  declassify_i64(&rstatus, cell);
  return rstatus;
}
|}
  in
  let pt = Helpers.pinterp ~mode:Mode.Hardened src in
  ignore (Pinterp.call_entry pt "start" [ Helpers.rvalue_int 77 ]);
  let v = (Pinterp.call_entry pt "read_cell" []).Pinterp.value in
  Alcotest.(check int64) "thread effect visible" 77L (Rvalue.to_int64 v)

let test_crossing_cost_scales_latency () =
  let mk crossing =
    let plan = Helpers.plan_of ~mode:Mode.Relaxed P.fig6 in
    Pinterp.create ~config:Sgx.Config.machine_test ~crossing plan
  in
  let cheap = mk (fun _ -> 100.0) in
  let expensive = mk (fun _ -> 10_000.0) in
  let l1 = (Pinterp.call_entry cheap "main" []).Pinterp.latency_cycles in
  let l2 = (Pinterp.call_entry expensive "main" []).Pinterp.latency_cycles in
  Alcotest.(check bool) "latency grows with crossing cost" true (l2 > l1 +. 9_000.0)

let test_concurrent_client_threads () =
  (* the paper's headline claim: partitioning stays correct with multiple
     threads. Two client threads (distinct worker sets, shared map)
     interleave sets and gets; the map must stay coherent and each
     thread's virtual clock advances independently. *)
  let pt =
    Helpers.pinterp ~mode:Mode.Hardened (P.hashmap ~nbuckets:64 ~vsize:32 `Colored)
  in
  let heap = pt.Pinterp.exec.Exec.heap in
  let vbuf = Heap.alloc heap Heap.Unsafe 64 in
  let obuf = Heap.alloc heap Heap.Unsafe 64 in
  for i = 0 to 9 do
    let thread = i mod 2 in
    ignore
      (Pinterp.call_entry pt ~thread "hm_put"
         [ Helpers.rvalue_int i; Rvalue.Ptr vbuf ])
  done;
  (* either thread sees every key *)
  for i = 0 to 9 do
    let thread = (i + 1) mod 2 in
    let v =
      (Pinterp.call_entry pt ~thread "hm_get"
         [ Helpers.rvalue_int i; Rvalue.Ptr obuf ])
        .Pinterp.value
    in
    Alcotest.(check int64) (Printf.sprintf "key %d visible cross-thread" i) 1L
      (Rvalue.to_int64 v)
  done;
  (* both threads have their own blue workers *)
  Alcotest.(check bool) "thread 0 blue worker" true
    (Hashtbl.mem pt.Pinterp.workers (0, "blue"));
  Alcotest.(check bool) "thread 1 blue worker" true
    (Hashtbl.mem pt.Pinterp.workers (1, "blue"))

let test_trace () =
  let module Obs = Privagic_obs in
  let pt = Helpers.pinterp ~mode:Mode.Relaxed P.fig6 in
  let tr = Obs.Trace.create () in
  Pinterp.set_telemetry pt (Some tr);
  ignore (Pinterp.call_entry pt "main" []);
  let evs = Array.to_list (Obs.Trace.events tr) in
  let has pred = List.exists pred evs in
  let is code name (e : Obs.Ring.event) =
    e.ev_code = code && e.ev_name = name
  in
  let recv_track flow =
    List.find_map
      (fun (e : Obs.Ring.event) ->
        if e.ev_code = Obs.Ring.code_msg_recv && e.ev_arg = flow then
          Some (Obs.Trace.track_name tr e.ev_track)
        else None)
      evs
  in
  (* the spawned chunk starts on the worker the spawn message reached *)
  Alcotest.(check bool) "spawned main#blue" true
    (has (fun (b : Obs.Ring.event) ->
         is Obs.Ring.code_chunk_begin "main#blue" b
         && has (fun r ->
                is Obs.Ring.code_msg_recv "spawn" r
                && r.ev_track = b.ev_track)));
  Alcotest.(check bool) "retval cont to U" true
    (has (fun e ->
         is Obs.Ring.code_msg_send "retval" e
         && recv_track e.ev_arg = Some "t0/U"));
  Alcotest.(check bool) "g executed in red" true
    (has (fun e ->
         is Obs.Ring.code_chunk_end "g#red" e
         && Obs.Trace.track_name tr e.ev_track = "t0/red"));
  List.iter
    (fun (e : Obs.Ring.event) ->
      Alcotest.(check bool) "non-negative time" true (e.ev_at >= 0.0))
    evs;
  (* detached: a fresh request records nothing *)
  Pinterp.set_telemetry pt None;
  ignore (Pinterp.call_entry pt "main" []);
  Alcotest.(check int) "no trace once stopped" (List.length evs)
    (Array.length (Obs.Trace.events tr))

let suite =
  [
    Alcotest.test_case "fig6 equivalence" `Quick test_fig6_equivalence;
    Alcotest.test_case "fig6 messages" `Quick test_fig6_messages;
    Alcotest.test_case "latency and persistence" `Quick
      test_latency_positive_and_persistent;
    Alcotest.test_case "state across requests" `Quick
      test_state_persists_across_requests;
    Alcotest.test_case "hashmap partitioned" `Quick test_hashmap_partitioned;
    Alcotest.test_case "linked list partitioned" `Quick test_llist_partitioned;
    Alcotest.test_case "rbtree partitioned" `Quick test_rbtree_partitioned;
    Alcotest.test_case "two colors partitioned" `Quick test_two_color_partitioned;
    Alcotest.test_case "rbtree ordering" `Quick test_rbtree_ordering_respected;
    Alcotest.test_case "memcached partitioned" `Quick test_memcached_partitioned;
    Alcotest.test_case "spawned thread" `Quick test_spawned_thread;
    Alcotest.test_case "memcached maintenance thread" `Quick
      test_memcached_maintenance_thread;
    Alcotest.test_case "crossing cost scales" `Quick
      test_crossing_cost_scales_latency;
    Alcotest.test_case "execution trace" `Quick test_trace;
    Alcotest.test_case "concurrent client threads" `Quick
      test_concurrent_client_threads;
  ]
