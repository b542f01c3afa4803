(** One wake-up primitive for the replication path's waits (shipper,
    sync fence, replica read loop): a thread blocks
    until some condition it cannot poll cheaply becomes true, and the
    thread that makes it true signals.

    The protocol. A waiter passes its readiness check [ready] to
    {!wait}/{!await}; the wake registers the waiter {e before} calling
    [ready], so a signaller that publishes its state change and then
    calls {!signal} either sees the registration (and wakes the waiter)
    or happened early enough that [ready] sees the change. For this to
    hold, the state [ready] reads must be published by an [Atomic]
    write or under a mutex that [ready] also takes — a plain mutable
    field written outside any lock can be reordered past the signal.

    Cost. {!signal} is one atomic load while nobody waits. A wait
    without deadline or descriptor blocks on a Mutex/Condition pair; a
    wait with a deadline or a descriptor blocks in [Unix.select] on a
    self-pipe that the signaller writes. Self-pipes are borrowed from a
    process-wide pool for the duration of one wait, so a wake owns no
    descriptors and needs no close.

    Any number of threads, on any domains, may wait on one wake; a
    signal wakes all of them (each re-checks its own condition). *)

type t

val create : unit -> t

(** Wake every thread currently blocked on [t]. Signals with no waiter
    are not remembered: the waiter's [ready] check covers them. *)
val signal : t -> unit

type outcome =
  | Woken      (** [ready ()] held at registration, or a signal arrived *)
  | Readable   (** the [fd] became readable *)
  | Timed_out  (** [deadline] passed first *)

(** One blocking step: register, return [Woken] at once if [ready ()]
    holds, otherwise block until {!signal}, [fd] readable, or
    [deadline] (absolute, [Unix.gettimeofday] seconds). Wake-ups may be
    spurious; callers re-check their condition. [Unix_error] from the
    select (e.g. a closed [fd]) propagates after the waiter
    deregisters. *)
val wait :
  ?deadline:float -> ?fd:Unix.file_descr -> t -> (unit -> bool) -> outcome

(** [await ?deadline t ready] blocks until [ready ()] holds ([true]) or
    the deadline passes with it still false ([false]). *)
val await : ?deadline:float -> t -> (unit -> bool) -> bool
