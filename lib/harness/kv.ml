(* Generic key-value benchmark runner: loads a dataset into one of the
   evaluation programs under a system configuration, replays a YCSB
   workload, and reports throughput / latency / cache statistics. *)

open Privagic_vm
module Sgx = Privagic_sgx
module Ycsb = Privagic_workloads.Ycsb
module Programs = Privagic_workloads.Programs
module System = Privagic_baselines.System

type family = Hashmap | Linked_list | Rbtree | Hashmap2 | Memcached

let family_name = function
  | Hashmap -> "hashmap"
  | Linked_list -> "linked-list"
  | Rbtree -> "treemap"
  | Hashmap2 -> "hashmap-2color"
  | Memcached -> "memcached"

let entries = function
  | Hashmap -> ("hm_put", "hm_get")
  | Linked_list -> ("ll_put", "ll_get")
  | Rbtree -> ("tm_put", "tm_get")
  | Hashmap2 -> ("h2_put", "h2_get")
  | Memcached -> ("mc_set", "mc_get")

let source family (variant : Programs.variant) ~nbuckets ~vsize =
  match family with
  | Hashmap -> Programs.hashmap ~nbuckets ~vsize variant
  | Linked_list -> Programs.linked_list ~vsize variant
  | Rbtree -> Programs.rbtree ~vsize variant
  | Hashmap2 -> Programs.hashmap_two_color ~nbuckets ~vsize variant
  | Memcached -> Programs.memcached ~nbuckets ~vsize variant

(* The secure-typing mode a family runs under: two colors in one structure
   require relaxed mode (§8). *)
let mode_for = function
  | Hashmap2 -> Privagic_secure.Mode.Relaxed
  | _ -> Privagic_secure.Mode.Hardened

type result = {
  family : family;
  system : string;
  record_count : int;
  dataset_bytes : int;
  operations : int;
  throughput_kops : float;       (* thousand operations per second *)
  mean_latency_us : float;
  p_found : float;               (* sanity: fraction of successful reads *)
  llc_miss_ratio : float;
  queue_msgs : int;
  ecalls_switchless : int;
}

(* --- real-parallel backend (OCaml 5 domains, wall-clock time) --- *)

module Parallel = Privagic_parallel.Parallel

type parallel_result = {
  pr_family : family;
  pr_record_count : int;
  pr_operations : int;
  pr_drivers : int;            (* issuing threads (1 = closed loop) *)
  pr_domains : int;            (* domains the worker pool actually spawned *)
  pr_wall_seconds : float;     (* run phase only, wall clock *)
  pr_throughput_kops : float;
  pr_p_found : float;
  pr_steps : int;              (* VM steps retired during the run phase *)
  pr_steps_per_sec : float;
  pr_stalls : Privagic_obs.Lane.breakdown list;
      (* per-lane phase decomposition at run end (empty with obs off) *)
}

let colored_plan ?(auth_pointers = false) ~mode src =
  let m = Privagic_minic.Driver.compile ~file:"program.mc" src in
  let infer = Privagic_secure.Infer.run ~mode ~auth_pointers m in
  if not (Privagic_secure.Infer.ok infer) then
    invalid_arg "run_parallel: program rejected by the checker";
  let plan = Privagic_partition.Plan.build ~mode ~auth_pointers infer in
  if plan.Privagic_partition.Plan.diagnostics <> [] then
    invalid_arg "run_parallel: partitioning rejected";
  plan

let run_parallel ?(nbuckets = 4096) ?(vsize = 1024) ?(seed = 42)
    ?(distribution = Ycsb.Zipfian) ?(lanes = 2) ?(drivers = 1)
    ?engine (family : family) ~(record_count : int) ~(operations : int) () :
    parallel_result =
  let src = source family `Colored ~nbuckets ~vsize in
  let plan = colored_plan ~mode:(mode_for family) src in
  let p = Parallel.create ~lanes ?engine plan in
  let heap = (Parallel.exec p).Exec.heap in
  let put_entry, get_entry = entries family in
  let vbuf = Heap.alloc heap Heap.Unsafe vsize in
  String.iteri
    (fun i c -> Heap.store heap (vbuf + i) 1 (Int64.of_int (Char.code c)))
    (Ycsb.value_for ~size:vsize 1);
  (if family = Memcached then
     ignore
       (Parallel.call_entry p "mc_init"
          [ Rvalue.Int (Int64.of_int (record_count * 2)) ]));
  for k = 0 to record_count - 1 do
    ignore
      (Parallel.call_entry p put_entry
         [ Rvalue.Int (Int64.of_int k); Rvalue.Ptr vbuf ])
  done;
  (* Measured phase. [drivers = 1] is the closed loop of old: one
     blocking caller, so with more than one lane the pool mostly parks
     waiting for the driver (E14) and the stall table measures the
     driver. [drivers > 1] is the multi-inflight mode: that many
     issuing threads keep the lanes fed concurrently, so stalls
     attribute to the engine. Each driver owns its generator (offset
     seeds), its output buffer and its share of the ops; keys are
     shared on purpose — that is the contended case. *)
  let drivers = max 1 drivers in
  let mk_gen i =
    let spec =
      { (Ycsb.workload_b ~seed:(seed + (i * 1000003)) ~record_count
           ~operation_count:operations ~value_size:vsize ())
        with Ycsb.distribution }
    in
    Ycsb.create spec
  in
  let obufs = Array.init drivers (fun _ -> Heap.alloc heap Heap.Unsafe vsize) in
  let founds = Array.make drivers 0 and readss = Array.make drivers 0 in
  let share i =
    (operations / drivers) + if i < operations mod drivers then 1 else 0
  in
  let drive i () =
    let gen = mk_gen i in
    let obuf = obufs.(i) in
    for _ = 1 to share i do
      match Ycsb.next_op gen with
      | Ycsb.Read k | Ycsb.Scan (k, _) ->
        readss.(i) <- readss.(i) + 1;
        let r =
          Parallel.call_entry p ~thread:i get_entry
            [ Rvalue.Int (Int64.of_int k); Rvalue.Ptr obuf ]
        in
        if Rvalue.truthy r.Parallel.value then founds.(i) <- founds.(i) + 1
      | Ycsb.Rmw k ->
        readss.(i) <- readss.(i) + 1;
        let r =
          Parallel.call_entry p ~thread:i get_entry
            [ Rvalue.Int (Int64.of_int k); Rvalue.Ptr obuf ]
        in
        if Rvalue.truthy r.Parallel.value then founds.(i) <- founds.(i) + 1;
        ignore
          (Parallel.call_entry p ~thread:i put_entry
             [ Rvalue.Int (Int64.of_int k); Rvalue.Ptr vbuf ])
      | Ycsb.Update k | Ycsb.Insert k ->
        ignore
          (Parallel.call_entry p ~thread:i put_entry
             [ Rvalue.Int (Int64.of_int k); Rvalue.Ptr vbuf ])
    done
  in
  let steps0 = Parallel.total_steps p in
  let start = Unix.gettimeofday () in
  (if drivers = 1 then drive 0 ()
   else
     let ths = List.init drivers (fun i -> Thread.create (drive i) ()) in
     List.iter Thread.join ths);
  let found = Array.fold_left ( + ) 0 founds
  and reads = Array.fold_left ( + ) 0 readss in
  let found = ref found and reads = ref reads in
  let wall = Unix.gettimeofday () -. start in
  let steps = Parallel.total_steps p - steps0 in
  let stalls = Parallel.lane_breakdowns p in
  let domains = Parallel.domain_count p in
  ignore (Parallel.shutdown p);
  {
    pr_family = family;
    pr_record_count = record_count;
    pr_operations = operations;
    pr_drivers = drivers;
    pr_domains = domains;
    pr_wall_seconds = wall;
    pr_throughput_kops =
      (if wall > 0.0 then float_of_int operations /. wall /. 1000.0 else 0.0);
    pr_p_found =
      (if !reads > 0 then float_of_int !found /. float_of_int !reads else 1.0);
    pr_steps = steps;
    pr_steps_per_sec =
      (if wall > 0.0 then float_of_int steps /. wall else 0.0);
    pr_stalls = stalls;
  }

let run ?(config = Sgx.Config.machine_b) ?cost ?(nbuckets = 4096)
    ?(vsize = 1024) ?(seed = 42) ?(distribution = Ycsb.Zipfian)
    ?(auth_pointers = false) ?telemetry ?engine (family : family)
    (kind : System.kind) ~(record_count : int) ~(operations : int) () :
    result =
  let src = source family (System.variant kind) ~nbuckets ~vsize in
  let sys =
    System.create ~config ?cost ~auth_pointers ?telemetry ?engine kind src
  in
  let put_entry, get_entry = entries family in
  let vbuf = System.alloc_buffer sys vsize in
  let obuf = System.alloc_buffer sys vsize in
  (* one deterministic payload per run: what matters to the cost model is
     the byte traffic, not the content *)
  System.write_bytes sys vbuf (Ycsb.value_for ~size:vsize 1);
  (if family = Memcached then
     (* capacity above the dataset: fig. 8 measures the cache effects, not
        evictions *)
     ignore (sys.System.call "mc_init" [ Rvalue.Int (Int64.of_int (record_count * 2)) ]));
  (* load phase *)
  for k = 0 to record_count - 1 do
    ignore (sys.System.call put_entry [ Rvalue.Int (Int64.of_int k); Rvalue.Ptr vbuf ])
  done;
  Sgx.Machine.reset_stats sys.System.machine;
  (* the load phase is warm-up: telemetry covers the measured phase only *)
  Option.iter Privagic_obs.Trace.clear telemetry;
  (* run phase *)
  let spec =
    { (Ycsb.workload_b ~seed ~record_count ~operation_count:operations
         ~value_size:vsize ())
      with Ycsb.distribution }
  in
  let gen = Ycsb.create spec in
  let total_latency = ref 0.0 in
  let found = ref 0 and reads = ref 0 in
  for _ = 1 to operations do
    match Ycsb.next_op gen with
    | Ycsb.Read k | Ycsb.Scan (k, _) ->
      incr reads;
      let v, lat = sys.System.call get_entry
          [ Rvalue.Int (Int64.of_int k); Rvalue.Ptr obuf ]
      in
      if Rvalue.truthy v then incr found;
      total_latency := !total_latency +. lat
    | Ycsb.Rmw k ->
      incr reads;
      let v, lat = sys.System.call get_entry
          [ Rvalue.Int (Int64.of_int k); Rvalue.Ptr obuf ]
      in
      if Rvalue.truthy v then incr found;
      let _, lat2 = sys.System.call put_entry
          [ Rvalue.Int (Int64.of_int k); Rvalue.Ptr vbuf ]
      in
      total_latency := !total_latency +. lat +. lat2
    | Ycsb.Update k | Ycsb.Insert k ->
      let _, lat = sys.System.call put_entry
          [ Rvalue.Int (Int64.of_int k); Rvalue.Ptr vbuf ]
      in
      total_latency := !total_latency +. lat
  done;
  let machine = sys.System.machine in
  let seconds = Sgx.Machine.seconds machine !total_latency in
  let counters = Sgx.Machine.counters machine in
  {
    family;
    system = sys.System.name;
    record_count;
    dataset_bytes = record_count * vsize;
    operations;
    throughput_kops =
      (if seconds > 0.0 then float_of_int operations /. seconds /. 1000.0
       else 0.0);
    mean_latency_us =
      (if operations > 0 then
         Sgx.Machine.seconds machine (!total_latency /. float_of_int operations)
         *. 1e6
       else 0.0);
    p_found =
      (if !reads > 0 then float_of_int !found /. float_of_int !reads else 1.0);
    llc_miss_ratio = Sgx.Machine.llc_miss_ratio machine;
    queue_msgs = counters.Sgx.Machine.queue_msgs;
    ecalls_switchless = counters.Sgx.Machine.switchless_calls;
  }
