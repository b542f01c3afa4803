(** Primary-side delta shipping: one thread per connected replica
    streams the commit log ({!Log}) over the replica's own TCP
    connection, seals secret-colored payloads ({!Seal}), enforces a
    bounded in-flight window, and tracks acknowledgement lag.

    The serving layer hands a connection here when its protocol reader
    sees the [repl <sync|async> <from_seq>] handshake; from then on the
    shipper owns the socket (writes frames, reads [ack] lines). The
    handshake guarantees the replica sends nothing after the hello until
    it has received frames, so ownership transfers with an empty input
    buffer.

    Sync vs async is the replica's choice, per connection: a sync
    replica participates in {!wait_synced} — the server delays a write's
    response until every live sync replica acked the commit, which is
    what gives clients read-your-writes on replica reads. An async
    replica only bounds its in-flight window. *)

type t

(** [create ~log ()] — [window] bounds unacknowledged in-flight deltas
    per replica (default 1024); [cluster] is the shared secret sealing
    keys derive from; [span name f] wraps shipping work in a telemetry
    span (default: call [f] directly). *)
val create :
  ?window:int ->
  ?cluster:string ->
  ?span:(string -> (unit -> unit) -> unit) ->
  log:Log.t ->
  unit ->
  t

(** Adopt a replica connection (fd already non-blocking) and start its
    shipping thread. Refused (fd closed) when the shipper is draining. *)
val register : t -> Unix.file_descr -> sync:bool -> from_seq:int -> unit

(** Wake the shipping threads: the serving layer calls this once per
    committed chunk, after the log append. A thread with nothing to send
    blocks until this, an ack, or the drain — never on a timer. *)
val notify : t -> unit

(** Live replica connections. *)
val connected : t -> int

val sync_connected : t -> int

(** Block until every live sync replica has acknowledged [seq] (dead
    replicas stop gating). [true] on success, [false] on timeout. The
    wait sleeps on a wake that each recorded ack and each dropped link
    signal. *)
val wait_synced : t -> seq:int -> timeout_s:float -> bool

(** {!wait_synced} calls that returned [false]. *)
val fence_timeouts : t -> int

(** Most recent send→ack lag sample, microseconds (0.0 before any). *)
val last_lag_us : t -> float

val lag_pctiles : t -> Privagic_telemetry.Metrics.pctiles

(** Deltas written to the wire / payloads sealed, over all replicas. *)
val shipped : t -> int

val sealed_count : t -> int

(** Modeled sealing cost accumulated so far ({!Seal.cost_cycles}). *)
val seal_cycles : t -> float

(** Register the shipper's gauges (connections, lag, shipped/sealed
    counts, lag summary) on an obs registry. Closures take the hub mutex
    only at exposition time. *)
val register_obs : t -> Privagic_obs.Registry.t -> unit

(** Flush the log tail to every live replica, wait (bounded) for their
    acks, close the connections and join the threads. Idempotent. *)
val drain : t -> timeout_s:float -> unit

(** Wire-capture tap for the robust-safety monitor
    ({!Privagic_robust}): observes every byte any shipper in the process
    writes to a replication link, before the socket write. [None]
    detaches. The secrecy trace property asserts that no live
    secret-colored value appears in this stream unsealed. *)
val set_wire_tap : (string -> unit) option -> unit
