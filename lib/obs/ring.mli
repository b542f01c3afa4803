(** Per-domain lock-free event ring: the one event store of the runtime.

    Fixed capacity (rounded up to a power of two), overwrite-oldest, and —
    the property the whole layer leans on — {b zero allocation on the
    record path}: the five backing stores (stamp, code, arg, track, name
    id) are plain [int array]s, so recording is five unboxed stores and
    an increment.

    A ring runs on one of two clocks. A wall-clock ring stamps integer
    microseconds since the process obs epoch ({!Privagic_obs.now_us});
    a cycle ring (the simulated VM's) stamps virtual cycles, stored as
    the bits of the non-negative float so they round-trip exactly.

    Each ring has exactly one writer (the owning domain). Readers read
    {e after} quiescence — [Domain.join] or pool shutdown provides the
    happens-before — so no fences are needed on the hot path. *)

type t

(** [create ~id ~label ()] makes a standalone wall-clock ring, outside
    any {!Trace}. [cap] (default 4096) is rounded up to a power of two.
    [id] must be unique among rings that will be merged together; it is
    the tiebreak that makes merge deterministic. *)
val create : ?cap:int -> id:int -> label:string -> unit -> t

(** Append one event on the ring's current {!track}. Single-writer;
    never allocates, never blocks. Overwrites the oldest event once the
    ring is full. *)
val record : t -> code:int -> arg:int -> t_us:int -> unit

(** [record] with a name id from {!intern}. *)
val record_name : t -> code:int -> name:int -> arg:int -> t_us:int -> unit

(** Append one event stamped [at] virtual cycles ([at >= 0]) on an
    explicit track; for cycle rings. Allocates nothing. *)
val record_cycles :
  t -> code:int -> track:int -> name:int -> arg:int -> float -> unit

(** [record] stamped with an amortized clock: the real clock is read once
    every 32 calls (a gettimeofday per event costs several percent of
    steps/s at extern-dispatch frequency) and cached in between, never
    going behind the last exact-time [record]. For high-frequency point
    events where a ~32-event-granular timestamp is acceptable. *)
val record_now : t -> code:int -> arg:int -> unit

(** A non-negative float as an exact int stamp, and back: how a cycle
    ring stores its stamps and how [code_fiber_resume] carries its
    arrival time in [arg]. *)
val stamp_of_float : float -> int

val float_of_stamp : int -> float

(** The ring's id for a name (owner only; [""] is 0). A repeated name
    costs a hash lookup and no allocation. *)
val intern : t -> string -> int

(** A track id unique across the ring's trace, named [name] (suffixed
    with the id if another track of the trace already has that name). *)
val fresh_track : t -> string -> int

(** A flow id unique across the ring's trace, from one atomic counter:
    any ring of the trace may allocate from any domain. Monotone across
    {!Trace.clear}. *)
val fresh_flow : t -> int

(** The track that [record], [record_name] and [record_now] stamp. *)
val set_track : t -> int -> unit

val track : t -> int
val capacity : t -> int
val id : t -> int
val label : t -> string

(** Events ever written since the last {!Trace.clear} (not capped). *)
val total : t -> int

(** Events currently held, [min (total t) (capacity t)]. *)
val length : t -> int

(** Events lost to overwrite-oldest, [max 0 (total - capacity)]. *)
val dropped : t -> int

(** Event codes [0 .. Phase.count-1] are phase-entry events (the code is
    the {!Phase.index}); the codes below are point and span events. *)
val code_extern : int

val code_chunk_begin : int
val code_chunk_end : int
val code_req_begin : int
val code_req_end : int
val code_msg_send : int
val code_msg_recv : int
val code_barrier : int
val code_fiber_spawn : int
val code_fiber_start : int
val code_fiber_block : int
val code_fiber_resume : int
val code_fiber_finish : int
val code_ecall : int
val code_ocall : int
val code_switchless : int
val code_queue_msg : int
val code_syscall : int
val code_epc_fault : int
val code_thread_spawn : int

type event = {
  ev_at : float;  (** cycles on a cycle ring, obs-epoch microseconds else *)
  ev_ring : int;  (** originating ring id *)
  ev_seq : int;  (** per-ring sequence number, monotone from ring start *)
  ev_code : int;
  ev_arg : int;
  ev_track : int;
  ev_name : string;  (** [""] when the event carries no name *)
}

(** Surviving events, oldest first. *)
val to_events : t -> event array

(** Merge several quiesced rings into one timeline, sorted by
    [(at, ring, seq)]. The order is deterministic: it does not depend
    on the order of the input list, and merging the same rings twice
    yields identical arrays. *)
val merge : t list -> event array

(** The rings of one trace: they share flow ids and a table of unique
    track names. Only ring creation and track registration lock;
    recording never does. *)
module Trace : sig
  type ring := t
  type t

  (** [cap] (default 65536) is the capacity of each ring of the trace. *)
  val create : ?cap:int -> unit -> t

  (** A fresh wall-clock ring whose current track is named [label]. *)
  val ring : t -> string -> ring

  (** A fresh cycle ring for a simulated VM; its owner registers the
      tracks with {!fresh_track}. *)
  val vm_ring : t -> ring

  (** A single ring's events in record order; several rings merged with
      {!merge}. Call on quiesced rings. *)
  val events : t -> event array

  (** Registered tracks, by id. *)
  val tracks : t -> (int * string) list

  val track_name : t -> int -> string

  (** Events lost to overwrite-oldest, over all rings. *)
  val dropped : t -> int

  (** Forget the events of every ring (quiesced rings only). Tracks,
      names and flow ids stay valid. *)
  val clear : t -> unit
end
