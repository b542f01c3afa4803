(** Per-worker phase accounting plus the worker's event ring.

    A lane tracks where one worker's wall-clock goes as a continuous
    partition over {!Phase.t}: [enter] closes the current phase into its
    accumulator and opens the next, also dropping a phase-entry event
    into the ring. Only the owning domain calls [enter]; [snapshot] may
    be called from any domain and closes the open tail at the snapshot
    instant, so the phase sums always cover the lane's full wall time
    (cross-domain reads are monitoring-grade: at most one in-flight
    transition stale). *)

type t

(** [create ~ring ~now_us] starts a lane in [Queue_wait] at [now_us],
    recording into [ring] (its label names the lane). *)
val create : ring:Ring.t -> now_us:int -> t

val ring : t -> Ring.t

(** Current phase index (owner view). *)
val current : t -> int

(** Transition to [phase] at [now_us]. No-op if already there. *)
val enter : t -> Phase.t -> now_us:int -> unit

(** Like [enter] but by phase index — for save/restore around nested
    sections (a chunk run inside a pump-wait restores the wait). *)
val enter_index : t -> int -> now_us:int -> unit

type breakdown = {
  b_id : int;
  b_label : string;
  b_wall_us : int;  (** lane lifetime at snapshot, >= 1 *)
  b_phase_us : int array;  (** indexed by [Phase.index], length [Phase.count] *)
}

val snapshot : t -> now_us:int -> breakdown

(** Fraction of wall time the phase accumulators explain, ~1.0 by
    construction. *)
val coverage : breakdown -> float

(** The non-[Run] phase with the largest share — the lane's dominant
    stall cause. *)
val dominant_stall : breakdown -> Phase.t
