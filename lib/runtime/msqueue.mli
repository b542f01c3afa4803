(** Lock-free multi-producer multi-consumer FIFO queue (Michael & Scott,
    1996), the communication channel the Privagic runtime stores in unsafe
    memory between worker threads (paper §7.3.2, refs [21, 28]).

    The implementation relies on [Atomic] compare-and-set on the head and
    tail pointers; OCaml's GC plays the role of the hazard pointers of the
    original algorithm, so no manual reclamation is needed. Safe under true
    parallelism (domains). *)

type 'a t

val create : unit -> 'a t

(** Enqueue at the tail. Lock-free: at least one of any set of concurrently
    enqueueing threads makes progress. Pushing onto a closed queue is
    permitted (the flag is advisory, see {!close}); whether such late
    messages are drained is the consumer's protocol. *)
val push : 'a t -> 'a -> unit

(** Dequeue from the head; [None] when the queue is observed empty. *)
val pop : 'a t -> 'a option

val is_empty : 'a t -> bool

(** Close the queue: an advisory shutdown flag for consumers, used by the
    parallel backend's worker-pool teardown. [close] does not modify the
    list structure, so {!push}/{!pop} keep their exact lock-free semantics.

    Memory-ordering argument: OCaml [Atomic] operations are sequentially
    consistent, so the store of [closed := true] cannot be reordered with
    any push that happens-before it in the closing thread, and a consumer
    that observes [is_closed q = true] and subsequently observes
    [pop q = None] has therefore observed a queue state that includes every
    element the closer pushed before closing. The safe drain protocol for a
    consumer is hence: exit only when [is_closed q && pop q = None] — in
    that order the [None] pop linearizes after the close flag was read, so
    no pre-close message can be lost. Producers other than the closer must
    stop pushing once they can observe the flag, or accept that their late
    messages may never be drained. *)
val close : 'a t -> unit

val is_closed : 'a t -> bool

(** Snapshot length — exact only in quiescent states; used by tests and by
    the simulator's queue-depth statistics. *)
val length : 'a t -> int
