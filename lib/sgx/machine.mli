(** The simulated machine: cache hierarchy, EPC working set, cost and
    event counters. The VM charges every simulated memory access and every
    control event here and adds the returned cycles to the current
    worker's virtual clock. *)

type zone = Normal | Enclave of string

type counters = {
  mutable instrs : int;
  mutable mem_accesses : int;
  mutable l1_misses : int;
  mutable llc_misses : int;
  mutable enclave_llc_misses : int;
  mutable epc_faults : int;
  mutable ecalls : int;
  mutable switchless_calls : int;
  mutable queue_msgs : int;
  mutable syscalls : int;
  mutable enclave_syscalls : int;
  mutable threads_spawned : int;
}

val fresh_counters : unit -> counters

module Ring = Privagic_obs.Ring

type t = {
  config : Config.t;
  cost : Cost.t;
  l1 : Cache.t;
  llc : Cache.t;
  epc : Cache.t;
  c : counters;
  mutable trace : (int * int -> unit) option;
  mutable tel : (Ring.t * (unit -> float)) option;
}

val create : ?cost:Cost.t -> Config.t -> t

(** Optional per-machine access trace for debugging cache behaviour:
    receives [(addr, size)] before each access. A field rather than a
    global so two machines in one harness run (e.g. baseline vs.
    partitioned) cannot clobber each other's hooks. *)
val set_trace : t -> (int * int -> unit) option -> unit

(** Attach a cycle ring and the clock that stamps it; transition and
    fault events (ecalls, ocalls, switchless calls, queue messages, EPC
    faults, thread spawns) are recorded on the ring's current track,
    which the VM keeps on the running worker. [None] detaches. *)
val set_telemetry : t -> (Ring.t * (unit -> float)) option -> unit

val instr_cost : t -> int -> float

(** [mem_cost m ~cpu ~data addr size]: [cpu] is the processor mode (misses
    taken in enclave mode pay the Eleos multiplier), [data] is where the
    memory lives (enclave pages occupy EPC and may fault). *)
val mem_cost : t -> cpu:zone -> data:zone -> int -> int -> float

val ecall_cost : t -> float
val switchless_cost : t -> float
val queue_msg_cost : t -> float
val syscall_cost : t -> zone:zone -> float
val thread_spawn_cost : t -> float
val counters : t -> counters
val llc_miss_ratio : t -> float

(** Convert cycles to seconds at this machine's frequency. *)
val seconds : t -> float -> float

val reset_stats : t -> unit
