(** Generic key-value benchmark runner: load a dataset into one of the
    evaluation programs under a system configuration, replay a YCSB
    workload, report throughput / latency / cache statistics in
    deterministic simulated time. *)

module Sgx = Privagic_sgx
module Ycsb = Privagic_workloads.Ycsb
module Programs = Privagic_workloads.Programs
module System = Privagic_baselines.System

type family = Hashmap | Linked_list | Rbtree | Hashmap2 | Memcached

val family_name : family -> string

(** [(put, get)] entry names of a family. *)
val entries : family -> string * string

val source :
  family -> Programs.variant -> nbuckets:int -> vsize:int -> string

(** The mode a family needs: two colors in one structure require relaxed
    mode (§8). *)
val mode_for : family -> Privagic_secure.Mode.t

type result = {
  family : family;
  system : string;
  record_count : int;
  dataset_bytes : int;
  operations : int;
  throughput_kops : float;
  mean_latency_us : float;
  p_found : float;          (** sanity: fraction of successful reads *)
  llc_miss_ratio : float;
  queue_msgs : int;
  ecalls_switchless : int;
}

type parallel_result = {
  pr_family : family;
  pr_record_count : int;
  pr_operations : int;
  pr_drivers : int;        (** issuing threads (1 = closed loop) *)
  pr_domains : int;        (** domains the worker pool actually spawned *)
  pr_wall_seconds : float; (** run phase only, wall clock *)
  pr_throughput_kops : float;
  pr_p_found : float;
  pr_steps : int;          (** VM steps retired during the run phase *)
  pr_steps_per_sec : float;
  pr_stalls : Privagic_obs.Lane.breakdown list;
      (** per-lane phase decomposition at run end (lib/obs), empty when
          obs is disabled *)
}

(** Same load/replay protocol as {!run}, but on the real-parallel backend
    ({!Privagic_parallel.Parallel}): OCaml 5 domains, wall-clock
    throughput. No machine counters — the cost model does not run here. *)
val run_parallel :
  ?nbuckets:int ->
  ?vsize:int ->
  ?seed:int ->
  ?distribution:Ycsb.distribution ->
  ?lanes:int ->
  ?drivers:int ->
  ?engine:Privagic_vm.Exec.engine ->
  family ->
  record_count:int ->
  operations:int ->
  unit ->
  parallel_result

val run :
  ?config:Sgx.Config.t ->
  ?cost:Sgx.Cost.t ->
  ?nbuckets:int ->
  ?vsize:int ->
  ?seed:int ->
  ?distribution:Ycsb.distribution ->
  ?auth_pointers:bool ->
  ?telemetry:Privagic_obs.Trace.t ->
  ?engine:Privagic_vm.Exec.engine ->
  family ->
  System.kind ->
  record_count:int ->
  operations:int ->
  unit ->
  result
