(** The TCP serving layer: a socket front-end that drives partitioned
    programs under real concurrent load (the paper's §8 evaluation shape
    — memcached behind memtier-style clients — realized over this
    repo's runtime backends).

    Architecture (DESIGN.md §8.14): the keyspace is hash-partitioned
    ([key mod shards]) across N single-writer shards. Each shard owns —
    exclusively — one execution backend instance (the caller builds one
    store per shard), its slice of the version table and secondary
    indexes, and an event loop on its own domain: nonblocking sockets,
    [Unix.select] readiness with self-pipe wakeups (no timeout
    polling), incremental parsing, and fully pipelined connections
    (many requests in flight per connection; responses flush strictly
    in arrival order).

    There is no global store mutex. Gets, sets and single-shard
    transactions execute entirely inside one shard, under a per-shard
    latch that only the owner loop takes on the hot path. Cross-shard
    requests hop to the owning shard over a bounded inbox; multi-shard
    transactions commit via two-phase commit under the participant
    latches (taken in ascending shard order), and scans merge per-shard
    index cursors without any global lock. Same-key requests of one
    connection always land in the same shard FIFO, so per-key program
    order is preserved; a multi-shard transaction or scan waits for the
    connection's earlier requests before executing (connection
    barrier). All shards append commit deltas to one shared log, so
    replication keeps a single merged monotone sequence. *)

module Tel = Privagic_telemetry

(** What the server needs from an execution backend. Each shard owns
    one store; [st_call] is only invoked under that shard's latch. The
    buffer helpers address the backend's simulated unsafe memory. *)
type store = {
  st_name : string;
  st_call :
    string -> Privagic_vm.Rvalue.t list -> (Privagic_vm.Rvalue.t, string) result;
  st_alloc : int -> int;
  st_write : int -> string -> unit;
  st_read : int -> int -> string;
  st_drain : unit -> unit;  (** close/join the backend (idempotent) *)
  st_register_obs : Privagic_obs.Registry.t -> unit;
      (** register the backend's gauges (steps, externs, lane phases,
          declassify counts) on the server's obs registry *)
}

val store_of_parallel : Privagic_parallel.Parallel.t -> store
val store_of_pinterp : Privagic_vm.Pinterp.t -> store

(** Entry points a key-value protocol maps onto. *)
type bindings = {
  b_family : string;
  b_set : string;
  b_get : string;
  b_del : string option;
  b_init : string option;  (** capacity-taking init entry, called by serve *)
  b_vcolor : string;
      (** color token of stored values on the replication wire: the
          enclave name the plan placed the store's globals in, or [U]
          for a plain (uncolored) plan. Frames with an enclave color are
          sealed by the shipper ({!Privagic_replication.Seal}). *)
}

(** Probe the plan's entry list for a known program family (the mc_,
    hm_, h2_, tm_, ll_ entry prefixes of the evaluation programs). *)
val bindings_of_plan : Privagic_partition.Plan.t -> bindings option

(** The replication value color of a plan (see {!bindings.b_vcolor}). *)
val value_color : Privagic_partition.Plan.t -> string

type policy = Block | Shed

type config = {
  host : string;            (** default 127.0.0.1 *)
  port : int;               (** 0 picks an ephemeral port; see {!port} *)
  shards : int;             (** single-writer keyspace shards (event loops) *)
  lanes : int;              (** per-shard backend pool lanes (display/config) *)
  queue_depth : int;        (** cross-shard inbox high-water mark; also the
                                local-batch shed threshold under [Shed] *)
  policy : policy;
  max_batch : int;          (** requests executed per latch hold *)
  vsize : int;              (** value-buffer size of the program *)
  telemetry : Tel.Recorder.t;
  repl_window : int;        (** in-flight deltas per replica (default 1024) *)
  repl_cluster : string;    (** sealing-key derivation secret *)
}

val default_config : config

(** Open client connections the acceptor admits before refusing with a
    clear error: [Unix.select] readiness breaks past FD_SETSIZE (1024),
    so the cap — surfaced in [STATS] as [fd_cap] — keeps every loop's
    fd set valid. *)
val fd_cap : int

type t

(** Bind, listen, and start the shard loops (one domain per shard, plus
    an acceptor thread). [stores] must have exactly [cfg.shards]
    elements — shard [i] owns [stores.(i)] exclusively; the caller
    initializes each one (e.g. the family's init entry). The server is
    serving when [start] returns. [replica_of] starts it in the
    read-only replica role (the string is the primary's address, for
    display only — the caller runs the {!Privagic_replication.Replica}
    client and feeds {!apply_put}/{!apply_del}); {!promote} flips it to
    primary.
    @raise Failure when the socket cannot be bound. *)
val start : ?replica_of:string -> config -> bindings -> store array -> t
(** The bound stores must hold no keys yet: the transaction layer's
    version tables and ordered indexes start empty and only advance
    through commit hooks, so keys pre-populated before [start] would be
    invisible to [scan], report version 0 via [getv], and fail the
    in-transaction del presence check. The known families' init entries
    all build empty tables. *)

val port : t -> int

(** Graceful drain: stop accepting, let every shard loop dispatch and
    flush every parsed request (a two-stage barrier guarantees no
    cross-shard handoff races the inbox close), close the inboxes
    (loops exit via the Msqueue drain protocol, so no queued request is
    lost), then drain the backends. Idempotent; safe to call from any
    thread — a [shutdown] verb routes here through a supervisor thread
    on the main domain. *)
val drain : t -> unit

(** Block until a drain (triggered by {!drain} or a [shutdown] verb)
    completes. *)
val wait : t -> unit

val is_draining : t -> bool

type stats = {
  s_uptime : float;
  s_conns_accepted : int;
  s_conns_open : int;
  s_ops : int;              (** executed data-path requests (all verbs) *)
  s_gets : int;
  s_sets : int;
  s_dels : int;
  s_hits : int;
  s_shed : int;             (** requests answered SERVER_BUSY *)
  s_bad : int;              (** protocol errors answered CLIENT_ERROR *)
  s_batches : int;          (** latch holds (execution chunks) *)
  s_coalesced : int;        (** duplicate gets served from a chunk *)
  s_depth : int array;      (** current per-shard cross-shard inbox depth *)
  s_latency : Tel.Metrics.pctiles;  (** dispatch->response, microseconds *)
  s_queue_wait : Tel.Metrics.pctiles;  (** dispatch->execution, microseconds *)
  s_role : string;          (** ["primary"] or ["replica:<addr>"] *)
  s_replicas : int;         (** live replica connections (as a primary) *)
  s_repl_lag_us : float;    (** most recent send->ack lag sample *)
  s_repl_seq : int;         (** commit-log head *)
  s_applied : int;          (** deltas applied (as a replica) *)
  s_fence_timeouts : int;   (** sync fences that hit their timeout *)
  s_getv : int;
  s_cas : int;
  s_cas_conflicts : int;    (** CAS guards that lost to an earlier writer *)
  s_txns : int;             (** txn ... exec requests executed *)
  s_txn_commits : int;      (** committed transactions (incl. single-op cas) *)
  s_txn_aborts : int;       (** transactions aborted by a CAS guard *)
  s_scans : int;
  s_scan_items : int;       (** total items returned by scans *)
  s_shards : int;
  s_xshard : int;           (** requests routed or committed across shards *)
  s_conns_rejected : int;   (** connections refused at {!fd_cap} *)
  s_fd_cap : int;
  s_drain_timeouts : int;   (** drain selects that hit their 5 s bound *)
}

val stats : t -> stats

(** The [STAT k v] pairs of the protocol's [stats] verb. The historical
    fields keep their names and order; new fields append. *)
val stats_fields : t -> (string * string) list

(** The server's live metrics registry (lib/obs) — what the
    [stats metrics] verb exposes. Populated at {!start} with server
    counters/summaries, per-shard inbox depths, replication shipper
    gauges, and the shard-0 store's backend contribution. *)
val metrics_registry : t -> Privagic_obs.Registry.t

(** {1 Replication}

    A primary needs no calls here: the [repl] handshake registers
    replica connections with the server's shipper, [set]/[del] commits
    append to its delta log, and {!drain} flushes the log tail to every
    replica. The functions below are the replica side and introspection
    (DESIGN.md §8.10). *)

(** Apply one delta received from the primary: executes through the same
    entry path as a client [set]/[del], under the owning shard's latch,
    and mirrors the primary's seq into the local log. The replica
    client calls strictly in seq order, so the mirrored log stays dense
    even though deltas fan out across shards. Fails on a seq gap. *)
val apply_put :
  t -> seq:int -> key:int -> payload:string -> (unit, string) result

val apply_del : t -> seq:int -> key:int -> (unit, string) result

(** Leave the read-only replica role and accept client writes; the
    promoted server's mirrored log lets downstream replicas keep
    streaming from their positions. *)
val promote : t -> unit

val is_replica : t -> bool

(** ["primary"] or ["replica:<addr>"]. *)
val role_name : t -> string

(** The commit log — the merged monotone sequence every shard appends
    to under its latch (convergence oracles replay it, whole or
    filtered per shard). *)
val repl_log : t -> Privagic_replication.Log.t

(** The delta shipper (lag percentiles, seal counters). *)
val repl_hub : t -> Privagic_replication.Shipper.t

(** Wire-capture tap for the robust-safety monitor ({!Privagic_robust}):
    observes every response byte any server in the process writes to a
    client connection, before the socket write. [None] detaches. The
    secrecy trace property asserts that no live secret-colored value
    appears on a client connection unsealed. *)
val set_wire_tap : (string -> unit) option -> unit
