(* The serving benchmark. One process: build and partition the colored
   memcached program, serve it from a 1-shard server, drive it from one
   client thread over two pipelined connections, check every answer, and
   print one JSON result line.

     perfbench.exe --workload NAME --seed N --seconds S --trace 0|1

   --trace 0 is the untraced end-to-end run; --trace 1 prints the
   per-layer metrics of a traced run and writes its spans. README.md
   documents the workloads and every metric. *)

module Server = Rig.Server
module Loadgen = Rig.Loadgen
module Repl = Rig.Repl
module Par = Rig.Par
module Machine = Rig.Machine
module Ycsb = Privagic_workloads.Ycsb
module Protocol = Privagic_server.Protocol
module Lane = Privagic_obs.Lane
module Metrics = Privagic_telemetry.Metrics
module T = Tracer

let workloads =
  [
    { Rig.name = "kv-read-sim"; backend = Rig.Sim; vsize = 1024; records = 32768;
      mix = Loadgen.Custom; read_prop = 0.95; replica = false; ol_rate = 3000.0 };
    { Rig.name = "kv-read-domains"; backend = Rig.Domains; vsize = 32; records = 4096;
      mix = Loadgen.Custom; read_prop = 0.95; replica = false; ol_rate = 800.0 };
    { Rig.name = "kv-rmw-sync-repl"; backend = Rig.Sim; vsize = 32; records = 4096;
      mix = Loadgen.Ycsb_f; read_prop = 0.5; replica = true; ol_rate = 700.0 };
  ]

(* the self-test's tiny inputs *)
let tiny wl = { wl with Rig.records = 256; ol_rate = wl.Rig.ol_rate /. 4.0 }

let setup_reps = 3

(* The measured phase runs as this many equal slices; the end-to-end
   throughput and latencies are the medians over the slices. *)
let slices = 10

let log fmt = Printf.eprintf (fmt ^^ "\n%!")

(* ------------------------------------------------------------------ *)
(* failure accounting: every op the benchmark attempts, every way it can
   fail *)

type acct = { mutable attempted : int; mutable failed : int; mutable why : string list }

let acct = { attempted = 0; failed = 0; why = [] }

let fail_n n what =
  if n > 0 then begin
    acct.failed <- acct.failed + n;
    acct.why <- Printf.sprintf "%d %s" n what :: acct.why
  end

let busy = ref 0 and errors = ref 0 and misses = ref 0

(* Every post-preload phase counts its ops and failures here. *)
let account ~ops ~busy:b ~errors:e ~misses:m =
  acct.attempted <- acct.attempted + ops + b;
  busy := !busy + b;
  errors := !errors + e;
  misses := !misses + m;
  fail_n b "busy retries";
  fail_n e "error responses";
  fail_n m "misses after preload"

let drive (cfg : Loadgen.config) =
  let r = Loadgen.run cfg in
  account ~ops:r.Loadgen.r_ops_ok ~busy:r.Loadgen.r_busy ~errors:r.Loadgen.r_errors
    ~misses:r.Loadgen.r_misses;
  r

(* The primary's write ledger: its log head and its set and commit
   counters. Every write the server answers STORED appends one delta and
   bumps one counter. *)
let ledger (rig : Rig.t) =
  let st = Server.stats rig.Rig.primary in
  (Repl.Log.head (Server.repl_log rig.Rig.primary), st.Server.s_sets, st.Server.s_txn_commits)

(* A closed-loop phase of [seconds] on the workload's request mix. The
   STORED answers the client counts must match the primary's ledger over
   the phase: a write acknowledged but never logged or counted fails. *)
let closed (rig : Rig.t) ~seed ~seconds ~slices =
  let wl = rig.Rig.wl in
  let ops = max_int / 2 in
  let spec =
    match wl.Rig.mix with
    | Loadgen.Ycsb_f ->
      Ycsb.workload_f ~seed ~record_count:wl.Rig.records ~operation_count:ops
        ~value_size:wl.Rig.vsize ()
    | Loadgen.Ycsb_e -> invalid_arg "perfbench: no workload runs YCSB-E"
    | Loadgen.Custom ->
      { (Ycsb.uniform_mix ~seed ~record_count:wl.Rig.records ~operation_count:ops
           ~value_size:wl.Rig.vsize ~read_proportion:wl.Rig.read_prop ())
        with Ycsb.distribution = Ycsb.Zipfian }
  in
  let head0, sets0, commits0 = ledger rig in
  let r =
    Client.closed_loop ~port:(Rig.port rig) ~conns:Rig.connections ~depth:Rig.depth ~seconds
      ~slices spec
  in
  let head1, sets1, commits1 = ledger rig in
  account ~ops:r.Client.ops ~busy:r.Client.busy ~errors:r.Client.errors ~misses:r.Client.misses;
  let off a b = abs (a - b) in
  fail_n (off (head1 - head0) (r.Client.sets_stored + r.Client.cas_stored))
    "STORED answers missing from the primary's log";
  fail_n (off (sets1 - sets0) r.Client.sets_stored) "set STORED answers missing from the set count";
  fail_n (off (commits1 - commits0) r.Client.cas_stored)
    "cas STORED answers missing from the commit count";
  r

(* Read every key back and compare with the value the generator wrote
   (every set and cas of key k writes [Ycsb.value_for k]). Returns what
   was read, value and version, in key order. Since every write of a key
   writes the same bytes, the values show corruption and misses only; the
   versions show lost writes: each write bumps its key's version once and
   appends one delta, so the versions must sum to the log head. *)
let read_back (wl : Rig.workload) ~port ~who ~log_head =
  let keys = Array.init wl.Rig.records Fun.id in
  let got = Array.make wl.Rig.records None in
  let wrong = ref 0 and miss = ref 0 and versions = ref 0 in
  T.with_span ("readback." ^ who) (fun () ->
      Client.get_all ~port keys (fun k r ->
          match r with
          | Protocol.Version { v_key; v_ver; v_val = Some v } when v_key = k ->
            got.(k) <- Some (v, v_ver);
            versions := !versions + v_ver;
            if v <> Ycsb.value_for ~size:wl.Rig.vsize k then incr wrong
          | Protocol.Version { v_val = None; _ } -> incr miss
          | _ -> incr wrong));
  acct.attempted <- acct.attempted + wl.Rig.records;
  fail_n !wrong (who ^ " read-back mismatches");
  fail_n !miss (who ^ " read-back misses");
  fail_n (abs (log_head - !versions)) (who ^ " writes logged but not in the key versions");
  got

let primary_head (rig : Rig.t) = Repl.Log.head (Server.repl_log rig.Rig.primary)

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" (fun kb -> float_of_int kb /. 1024.0)
    | _ -> find ()
    | exception End_of_file -> 0.0
  in
  Fun.protect ~finally:(fun () -> close_in ic) find

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0 else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* live major-heap words after a full collection *)
let live_words () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words

let ratio a b = if b = 0.0 then 0.0 else a /. b
let fi = float_of_int

(* ------------------------------------------------------------------ *)
(* the run's phases *)

let warm_up rig ~seed = ignore (closed rig ~seed:(seed + 1) ~seconds:1.0 ~slices:1)

type snap = {
  calls : int;
  cycles : float;
  busy_s : float;
  steps : int;
  mc : Machine.counters option;
  st : Server.stats;
  lanes : Lane.breakdown list;
  entries : int;
  domains : int;
  shipped : int;
}

let snap (rig : Rig.t) =
  let vm = rig.Rig.vm in
  let p = vm.Rig.probe in
  { calls = p.Rig.calls; cycles = p.Rig.cycles; busy_s = p.Rig.busy; steps = Rig.steps vm;
    mc = Option.map (fun (c : Machine.counters) -> { c with instrs = c.instrs }) (Rig.counters vm);
    st = Server.stats rig.Rig.primary;
    lanes = (match vm.Rig.par with Some p -> Par.lane_breakdowns p | None -> []);
    entries = (match vm.Rig.par with Some p -> (Par.stats p).Par.ps_entries_served | None -> 0);
    domains = (match vm.Rig.par with Some p -> Par.domain_count p | None -> 0);
    shipped = Repl.Shipper.shipped (Server.repl_hub rig.Rig.primary) }

(* After the primary drains, the replica must hold exactly what the
   primary served, values and versions, with no sequence gap. *)
let check_replica (rig : Rig.t) ~(primary_view : (string * int) option array) =
  let gap = ref 0 in
  let on_replica (r : Rig.replica) =
    let head = primary_head rig in
    gap := head - Repl.Replica.applied_seq r.Rig.r_client;
    let view =
      read_back rig.Rig.wl ~port:(Server.port r.Rig.r_srv) ~who:"replica" ~log_head:head
    in
    let diff = ref 0 in
    Array.iteri (fun k v -> if v <> primary_view.(k) then incr diff) view;
    fail_n !diff "replica keys differing from the primary";
    fail_n (max 0 !gap) "deltas the replica never applied";
    fail_n r.Rig.r_probe.Rig.apply_errors "replica apply errors"
  in
  let drain_s = Rig.teardown ~on_replica rig in
  (drain_s, !gap)

type fault = No_fault | Corrupt_read | Drop_delta

(* ------------------------------------------------------------------ *)
(* --trace 0: the end-to-end run *)

let timed_run (wl : Rig.workload) ~seed ~seconds ~fault =
  let rig = Rig.setup wl in
  (* the high-water mark of a fixed amount of work: serving keeps growing
     the heap with every op (heap.retained_kb_per_op), so a mark read
     after the time-boxed phase would track throughput *)
  let peak = peak_rss_mb () in
  warm_up rig ~seed;
  if fault = Drop_delta then
    Option.iter (fun r -> Atomic.set r.Rig.r_probe.Rig.drop_in 50) rig.Rig.replica;
  let s0 = snap rig in
  let r = closed rig ~seed:(seed + 3) ~seconds ~slices in
  let s1 = snap rig in
  (* each end-to-end figure is the median over the phase's slices, so a
     stall confined to one or two slices does not move it *)
  let slice_s = seconds /. fi slices in
  let tput = Array.map (fun n -> fi n /. slice_s /. 1000.0) r.Client.slice_ops in
  let q p = Array.map (fun l -> T.Samples.quantile l p) r.Client.slice_lat in
  let p50 = q 0.5 and p99 = q 0.99 in
  log "%s: slices (kops/s p50 p99) %s" wl.Rig.name
    (String.concat " "
       (List.init slices (fun i -> Printf.sprintf "%.2f/%.0f/%.0f" tput.(i) p50.(i) p99.(i))));
  if fault = Corrupt_read then Atomic.set rig.Rig.vm.Rig.probe.Rig.corrupt_in 100;
  let view = read_back wl ~port:(Rig.port rig) ~who:"primary" ~log_head:(primary_head rig) in
  (* tear down in the background while the remaining set-ups are timed:
     each drain idles in the server's drain wait (see README) *)
  let first = Thread.create (fun () -> ignore (check_replica rig ~primary_view:view)) () in
  let reps =
    List.init (setup_reps - 1) (fun _ ->
        let rep = Rig.setup wl in
        (rep.Rig.times.Rig.total, Thread.create (fun () -> ignore (Rig.teardown rep)) ()))
  in
  List.iter Thread.join (first :: List.map snd reps);
  fail_n rig.Rig.vm.Rig.probe.Rig.errors "VM call errors";
  let setups = rig.Rig.times.Rig.total :: List.map fst reps in
  log "%s: %d ops in %.2f s, %d latency samples in the window (at least %d per slice), setups [%s] s"
    wl.Rig.name r.Client.ops r.Client.wall (Array.fold_left ( + ) 0 r.Client.slice_ops)
    (Array.fold_left min max_int r.Client.slice_ops)
    (String.concat "; " (List.map (Printf.sprintf "%.3f") setups));
  (* printed, not in the result line: p99 does not repeat within any
     bound the gate allows (README.md, "Gated metrics"); the modelled
     enclave time exists on the sim backend only *)
  Printf.printf "%-36s %14.4f us (not gated)\n" "p99_us" (median (Array.to_list p99));
  if wl.Rig.backend = Rig.Sim then
    Printf.printf "%-36s %14.4f us (not gated)\n" "model_us_per_op"
      (Rig.model_seconds rig.Rig.vm (s1.cycles -. s0.cycles) *. 1e6 /. fi r.Client.ops);
  [
    ("throughput_kops", median (Array.to_list tput), "kops/s");
    ("p50_us", median (Array.to_list p50), "us");
    ("ok_frac", 1.0 -. ratio (fi acct.failed) (fi acct.attempted), "frac");
    ("setup_s", median setups, "s");
    ("peak_rss_mb", peak, "MB");
  ]

(* ------------------------------------------------------------------ *)
(* --trace 1: the traced run, per layer *)

(* Every replication-wire byte, to prove no value crosses it in plaintext. *)
let wire = Buffer.create 65536
let wire_mu = Mutex.create ()

let plaintext_on_wire (wl : Rig.workload) =
  let values = Hashtbl.create wl.Rig.records in
  for k = 0 to wl.Rig.records - 1 do
    Hashtbl.replace values (Ycsb.value_for ~size:wl.Rig.vsize k) ()
  done;
  let s = Buffer.contents wire in
  let n = ref 0 in
  for i = 0 to String.length s - wl.Rig.vsize do
    if Hashtbl.mem values (String.sub s i wl.Rig.vsize) then incr n
  done;
  (!n, String.length s)

let traced_run (wl : Rig.workload) ~seed ~seconds ~trace_out ~stamp =
  Repl.Shipper.set_wire_tap
    (Some (fun b -> Mutex.lock wire_mu; Buffer.add_string wire b; Mutex.unlock wire_mu));
  T.set_on true;
  let rig = T.phase "setup" (fun () -> Rig.setup wl) in
  let port = Rig.port rig in
  let vm = rig.Rig.vm in
  T.set_on false;
  warm_up rig ~seed;
  (* alternate untraced and traced closed-loop slices: their throughput
     ratio is the tracing overhead; the traced slices give the layers *)
  let slice seed = closed rig ~seed ~seconds:(seconds /. 5.0) ~slices:1 in
  let kops (r : Client.result) = fi r.Client.ops /. r.Client.wall /. 1000.0 in
  T.Samples.clear vm.Rig.probe.Rig.call_us;
  Option.iter (fun r -> T.Samples.clear r.Rig.r_probe.Rig.apply_us) rig.Rig.replica;
  let s0 = snap rig in
  let plain = ref [] and traced = ref [] and traced_lat = T.Samples.create () in
  let plain_lat = T.Samples.create () and traced_wall = ref 0.0 in
  let retained_kb_per_op = ref 0.0 and loop_ops = ref 0 in
  let live0 = live_words () in
  for i = 0 to 1 do
    let r = slice (seed + 10 + (2 * i)) in
    (* the heap the first untraced slice leaves behind: the traced ones
       also keep their spans *)
    if i = 0 then
      retained_kb_per_op := fi (live_words () - live0) *. fi (Sys.word_size / 8) /. 1024.0
                            /. fi r.Client.ops;
    plain := kops r :: !plain;
    loop_ops := !loop_ops + r.Client.ops;
    Array.iter (T.Samples.append plain_lat) r.Client.slice_lat;
    T.set_on true;
    let r = T.phase "closed-loop" (fun () -> slice (seed + 11 + (2 * i))) in
    T.set_on false;
    traced := kops r :: !traced;
    Array.iter (T.Samples.append traced_lat) r.Client.slice_lat;
    traced_wall := !traced_wall +. r.Client.wall;
    loop_ops := !loop_ops + r.Client.ops
  done;
  let s1 = snap rig in
  let d_busy = vm.Rig.probe.Rig.busy in
  let call_p50 = T.Samples.quantile vm.Rig.probe.Rig.call_us 0.5 in
  let call_p99 = T.Samples.quantile vm.Rig.probe.Rig.call_us 0.99 in
  let apply_p50, apply_p99 =
    match rig.Rig.replica with
    | Some r -> (T.Samples.quantile r.Rig.r_probe.Rig.apply_us 0.5,
                 T.Samples.quantile r.Rig.r_probe.Rig.apply_us 0.99)
    | None -> (0.0, 0.0)
  in
  T.set_on true;
  let ol_ops = max 50 (int_of_float (wl.Rig.ol_rate *. seconds /. 5.0)) in
  let ol =
    T.phase "open-loop" (fun () ->
        drive { (Rig.loadgen_config wl ~port ~seed:(seed + 20) ~ops:ol_ops) with
                Loadgen.rate = wl.Rig.ol_rate })
  in
  let view = read_back wl ~port ~who:"primary" ~log_head:(primary_head rig) in
  let st = Server.stats rig.Rig.primary in
  let hub = Server.repl_hub rig.Rig.primary in
  let drain_s, gap = check_replica rig ~primary_view:view in
  T.set_on false;
  Repl.Shipper.set_wire_tap None;
  let leaks, wire_bytes = plaintext_on_wire wl in
  fail_n leaks "plaintext values on the replication wire";
  fail_n vm.Rig.probe.Rig.errors "VM call errors";
  (* layer accounting: a VM call sits inside the server's dispatch→response
     time, which sits inside the client's latency *)
  let e2e_p50 = T.Samples.quantile traced_lat 0.5 in
  let srv_p50 = s1.st.Server.s_latency.Metrics.p50 in
  if not (call_p50 <= srv_p50 && srv_p50 <= e2e_p50) then
    fail_n 1
      (Printf.sprintf "layer order violated at p50: vm %.1f us, server %.1f us, client %.1f us"
         call_p50 srv_p50 e2e_p50);
  let ops = fi (s1.st.Server.s_ops - s0.st.Server.s_ops) in
  let per_op a b = ratio (fi (a - b)) ops in
  let mcd f = match (s0.mc, s1.mc) with Some a, Some b -> per_op (f b) (f a) | _ -> 0.0 in
  let phase_frac i =
    let sum f l = List.fold_left (fun a b -> a + f b) 0 l in
    let ph l = sum (fun b -> b.Lane.b_phase_us.(i)) l and wall l = sum (fun b -> b.Lane.b_wall_us) l in
    ratio (fi (ph s1.lanes - ph s0.lanes)) (fi (wall s1.lanes - wall s0.lanes))
  in
  let d f = f s1.st - f s0.st in
  let writes = d (fun s -> s.Server.s_sets) + d (fun s -> s.Server.s_txn_commits) in
  let shipped = Repl.Shipper.shipped hub in
  let busy_frac = ratio (d_busy -. s0.busy_s) !traced_wall in
  let t = rig.Rig.times in
  let ms x = x *. 1000.0 in
  T.write_chrome trace_out ~stamp;
  log "%s: %d spans written to %s; %d replication-wire bytes checked" wl.Rig.name (T.count ())
    trace_out wire_bytes;
  log "%s: VM calls busy %.1f%% of the traced closed-loop wall time, %.1f%% outside the VM"
    wl.Rig.name (100.0 *. busy_frac) (100.0 *. (1.0 -. busy_frac));
  [
    ("minic.compile_ms", ms t.Rig.plan_t.Rig.compile, "ms");
    ("passes.prepare_ms", ms t.Rig.plan_t.Rig.prepare, "ms");
    ("secure.infer_ms", ms t.Rig.plan_t.Rig.infer, "ms");
    ("partition.plan_ms", ms t.Rig.plan_t.Rig.partition, "ms");
    ("vm.create_ms", ms t.Rig.vm_create, "ms");
    ("vm.calls_per_op", per_op s1.calls s0.calls, "1/op");
    ("vm.call_us.p50", call_p50, "us");
    ("vm.call_us.p99", call_p99, "us");
    ("vm.busy_frac", busy_frac, "frac");
    ("vm.steps_per_op", per_op s1.steps s0.steps, "1/op");
    ("vm.model_cycles_per_call",
     ratio (s1.cycles -. s0.cycles) (fi (s1.calls - s0.calls)), "cycles");
    ("vm.call_errors", fi vm.Rig.probe.Rig.errors, "count");
    (* per completed op, as the client counts them: an RMW is one op *)
    ("model_us_per_op",
     ratio (Rig.model_seconds vm (s1.cycles -. s0.cycles) *. 1e6) (fi !loop_ops), "us");
    ("sgx.queue_msgs_per_op", mcd (fun c -> c.Machine.queue_msgs), "1/op");
    ("sgx.enclave_llc_misses_per_op", mcd (fun c -> c.Machine.enclave_llc_misses), "1/op");
    ("sgx.epc_faults_per_op", mcd (fun c -> c.Machine.epc_faults), "1/op");
    ("sgx.instrs_per_op", mcd (fun c -> c.Machine.instrs), "1/op");
    ("sgx.mem_accesses_per_op", mcd (fun c -> c.Machine.mem_accesses), "1/op");
    ("parallel.domains", fi s1.domains, "count");
    ("parallel.run_frac", phase_frac 0, "frac");
    ("parallel.pump_wait_frac", phase_frac 1, "frac");
    ("parallel.queue_wait_frac", phase_frac 2, "frac");
    ("parallel.barrier_frac", phase_frac 3, "frac");
    ("parallel.park_frac", phase_frac 4, "frac");
    ("parallel.entries_per_op", per_op s1.entries s0.entries, "1/op");
    ("server.start_ms", ms t.Rig.server_start, "ms");
    ("server.ops_per_batch",
     ratio ops (fi (d (fun s -> s.Server.s_batches))), "1/batch");
    ("server.coalesced_frac",
     ratio (fi (d (fun s -> s.Server.s_coalesced))) (fi (d (fun s -> s.Server.s_gets))), "frac");
    ("server.latency_us.p50", srv_p50, "us");
    ("server.latency_us.p99", s1.st.Server.s_latency.Metrics.p99, "us");
    ("server.queue_wait_us.p50", s1.st.Server.s_queue_wait.Metrics.p50, "us");
    ("server.queue_wait_us.p99", s1.st.Server.s_queue_wait.Metrics.p99, "us");
    ("server.outside_us.p50", e2e_p50 -. srv_p50, "us");
    ("server.shed", fi st.Server.s_shed, "count");
    ("server.bad", fi st.Server.s_bad, "count");
    ("server.drain_s", drain_s, "s");
    ("txn.cas_per_op", per_op s1.st.Server.s_cas s0.st.Server.s_cas, "1/op");
    ("txn.cas_conflict_frac",
     ratio (fi (d (fun s -> s.Server.s_cas_conflicts))) (fi (d (fun s -> s.Server.s_cas))), "frac");
    ("txn.commits_per_op", per_op s1.st.Server.s_txn_commits s0.st.Server.s_txn_commits, "1/op");
    ("replication.lag_us.p50", (Repl.Shipper.lag_pctiles hub).Metrics.p50, "us");
    ("replication.lag_us.p99", (Repl.Shipper.lag_pctiles hub).Metrics.p99, "us");
    ("replication.apply_us.p50", apply_p50, "us");
    ("replication.apply_us.p99", apply_p99, "us");
    ("replication.shipped_per_write", ratio (fi (s1.shipped - s0.shipped)) (fi writes), "1/write");
    ("replication.sealed_frac", ratio (fi (Repl.Shipper.sealed_count hub)) (fi shipped), "frac");
    ("replication.seal_cycles_per_write", ratio (Repl.Shipper.seal_cycles hub) (fi shipped), "cycles");
    ("replication.fence_timeouts", fi st.Server.s_fence_timeouts, "count");
    ("replication.replica_gap", fi gap, "count");
    ("heap.retained_kb_per_op", !retained_kb_per_op, "KiB/op");
    ("loadgen.preload_s", t.Rig.preload, "s");
    ("loadgen.ol_p50_us", ol.Loadgen.r_latency.Metrics.p50, "us");
    ("loadgen.ol_p99_us", ol.Loadgen.r_latency.Metrics.p99, "us");
    ("loadgen.ol_achieved_frac",
     ratio (ratio (fi ol.Loadgen.r_ops_ok) ol.Loadgen.r_wall_seconds) wl.Rig.ol_rate, "frac");
    ("loadgen.busy_retries", fi !busy, "count");
    ("loadgen.errors", fi !errors, "count");
    ("loadgen.misses", fi !misses, "count");
    ("closed_loop.throughput_kops", median !plain, "kops/s");
    ("closed_loop.p50_us", T.Samples.quantile plain_lat 0.5, "us");
    ("closed_loop.p99_us", T.Samples.quantile plain_lat 0.99, "us");
    ("trace.overhead_frac", 1.0 -. ratio (median !traced) (median !plain), "frac");
  ]

(* ------------------------------------------------------------------ *)

let json_num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let fault = ref No_fault and small = ref false and rev = ref "unknown" in
  let digest = ref "unknown" and trace_out = ref "perfbench-trace.json" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S length of the measured phase");
      ("--trace", Arg.Set_int trace, "0|1 untraced end-to-end run or traced per-layer run");
      ("--fault", Arg.Symbol ([ "corrupt-read"; "drop-delta" ], fun s ->
           fault := if s = "corrupt-read" then Corrupt_read else Drop_delta),
       " plant a fault the correctness gate must catch");
      ("--tiny", Arg.Set small, " tiny inputs (self-test smoke)");
      ("--rev", Arg.Set_string rev, "REV source revision for the stamp");
      ("--src-digest", Arg.Set_string digest, "HEX source digest for the stamp");
      ("--trace-out", Arg.Set_string trace_out, "PATH where the traced run writes its spans");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench.exe --workload NAME --seed N --seconds S --trace 0|1";
  let wl =
    match List.find_opt (fun w -> w.Rig.name = !workload) workloads with
    | Some w -> if !small then tiny w else w
    | None ->
      log "unknown workload %S (known: %s)" !workload
        (String.concat ", " (List.map (fun w -> w.Rig.name) workloads));
      exit 2
  in
  (* each phase draws its own stream: seed * 1000 + a phase offset *)
  let seed = !seed * 1000 in
  let stamp =
    Printf.sprintf
      "{\"workload\": %S, \"seed\": %d, \"seconds\": %g, \"trace\": %d, \"nproc\": %d, \
       \"ocaml\": %S, \"git_rev\": %S, \"src_digest\": %S, \"program\": \"memcached (colored)\", \
       \"mode\": %S, \"backend\": %S, \"engine\": \"image\", \"vsize\": %d, \"records\": %d, \
       \"nbuckets\": %d, \"mix\": %S, \"read_prop\": %g, \"connections\": %d, \"depth\": %d, \
       \"shards\": 1, \"max_batch\": %d, \"replica\": %s, \"ol_rate\": %g, \"tiny\": %b}"
      wl.Rig.name (seed / 1000) !seconds !trace (Domain.recommended_domain_count ())
      Sys.ocaml_version !rev !digest (Privagic_secure.Mode.to_string Rig.mode)
      (Rig.backend_name wl.Rig.backend) wl.Rig.vsize wl.Rig.records Rig.nbuckets
      (Loadgen.mix_name wl.Rig.mix) wl.Rig.read_prop Rig.connections Rig.depth Rig.max_batch
      (if wl.Rig.replica then "\"sync\"" else "null") wl.Rig.ol_rate !small
  in
  Printf.printf "stamp %s\n%!" stamp;
  let metrics =
    if !trace = 1 then traced_run wl ~seed ~seconds:!seconds ~trace_out:!trace_out ~stamp
    else timed_run wl ~seed ~seconds:!seconds ~fault:!fault
  in
  List.iter (fun w -> log "FAILED: %s" w) (List.rev acct.why);
  List.iter (fun (n, v, u) -> Printf.printf "%-36s %14.4f %s\n" n v u) metrics;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (acct.failed = 0) acct.attempted acct.failed
    (String.concat ", "
       (List.map
          (fun (n, v, u) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (json_num v) u)
          metrics))
