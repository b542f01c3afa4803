(* See the .mli. One thread per replica connection; shared state (the
   connection list and each connection's cursor/ack marks) is guarded by
   one hub mutex — updates are a few machine words, contention is
   per-delta, and the store's own per-op cost dwarfs it.

   The wire discipline per thread: send frames while the log has entries
   beyond the cursor and the in-flight window has room, otherwise block
   on [commits] together with the socket — a commit ([notify]) or the
   drain wakes it, an ack makes the socket readable. The fence blocks on
   [acks], which every recorded ack and every dropped link signal.
   Sealing happens at render time, so the log itself stays plaintext (it
   never leaves the process; the wire never sees a secret-colored
   payload unsealed). *)

module Tel = Privagic_telemetry
module Wake = Privagic_runtime.Wake

type conn = {
  fd : Unix.file_descr;
  sync : bool;
  acks : Delta.ack_reader;
  inflight : (int * float) Queue.t;  (* seq, sent_at (hub mutex) *)
  mutable cursor : int;              (* next seq to send *)
  mutable acked : int;
  mutable alive : bool;
}

type t = {
  log : Log.t;
  window : int;
  keys : (string, Seal.key) Hashtbl.t;  (* per-color, derived lazily *)
  cluster : string;
  span : unit -> string -> (unit -> unit) -> unit;  (* per ship thread *)
  mu : Mutex.t;
  mutable conns : conn list;
  mutable threads : Thread.t list;
  mutable draining : bool;
  mutable drain_deadline : float;
  commits : Wake.t;   (* ship threads: new log entries, or the drain *)
  acks : Wake.t;      (* fence waiters: an ack arrived or a link died *)
  fence_timeouts : int Atomic.t;  (* wait_synced calls that gave up *)
  (* metrics (hub mutex) *)
  h_lag : Tel.Metrics.histogram;
  mutable m_last_lag_us : float;
  mutable m_shipped : int;
  mutable m_sealed : int;
  mutable m_seal_cycles : float;
}

let create ?(window = 1024) ?(cluster = "privagic") ?(span = fun () _ f -> f ())
    ~log () =
  if window < 1 then invalid_arg "Shipper.create: window must be positive";
  let metrics = Tel.Metrics.create () in
  {
    log;
    window;
    keys = Hashtbl.create 4;
    cluster;
    span;
    mu = Mutex.create ();
    conns = [];
    threads = [];
    draining = false;
    drain_deadline = infinity;
    commits = Wake.create ();
    acks = Wake.create ();
    fence_timeouts = Atomic.make 0;
    h_lag = Tel.Metrics.histogram metrics "replication lag (us)";
    m_last_lag_us = 0.0;
    m_shipped = 0;
    m_sealed = 0;
    m_seal_cycles = 0.0;
  }

let locked t f =
  Mutex.lock t.mu;
  let r = f () in
  Mutex.unlock t.mu;
  r

let key_for t color =
  (* hub mutex held: the table is tiny and shared across threads *)
  match Hashtbl.find_opt t.keys color with
  | Some k -> k
  | None ->
    let k = Seal.derive ~cluster:t.cluster color in
    Hashtbl.replace t.keys color k;
    k

(* Wire-capture tap for the robust-safety monitor: every byte the shipper
   puts on a replication link also goes here. Process-wide — the monitor
   captures whatever wire traffic the process produces. *)
let wire_tap : (string -> unit) option ref = ref None

let set_wire_tap f = wire_tap := f

(* Full write on a non-blocking socket; false when the peer is gone or
   stalled past 30 s (a wedged replica must not wedge the primary). *)
let write_all fd s =
  (match !wire_tap with None -> () | Some f -> f s);
  let b = Bytes.unsafe_of_string s in
  let deadline = Unix.gettimeofday () +. 30.0 in
  let rec go off =
    if off >= Bytes.length b then true
    else
      match Unix.write fd b off (Bytes.length b - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) ->
        if Unix.gettimeofday () > deadline then false
        else begin
          (* bound: a full socket buffer drains at the peer's pace; the
             0.25 s slice only re-checks the 30 s stall deadline *)
          (try ignore (Unix.select [] [ fd ] [] 0.25)
           with Unix.Unix_error _ -> ());
          go off
        end
      | exception Unix.Unix_error _ -> false
  in
  go 0

let note_acked t c seq =
  locked t (fun () ->
      if seq > c.acked then c.acked <- seq;
      let now = Unix.gettimeofday () in
      let continue = ref true in
      while !continue do
        match Queue.peek_opt c.inflight with
        | Some (s, sent_at) when s <= seq ->
          ignore (Queue.pop c.inflight);
          let lag = (now -. sent_at) *. 1e6 in
          Tel.Metrics.observe t.h_lag lag;
          t.m_last_lag_us <- lag
        | _ -> continue := false
      done);
  Wake.signal t.acks

let drop t c =
  locked t (fun () -> c.alive <- false);
  Wake.signal t.acks;
  try Unix.close c.fd with Unix.Unix_error _ -> ()

let notify t = Wake.signal t.commits

(* Read whatever acks arrived; false on EOF/error. *)
let pump_acks t c buf =
  match Unix.read c.fd buf 0 (Bytes.length buf) with
  | 0 -> false
  | n ->
    List.for_all
      (fun r ->
        match r with Ok seq -> note_acked t c seq; true | Error _ -> false)
      (Delta.feed_acks c.acks buf n)
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> true
  | exception Unix.Unix_error _ -> false

let ship_thread t c =
  let span = t.span () in
  let buf = Bytes.create 4096 in
  let sealer ~color ~nonce payload =
    locked t (fun () ->
        let k = key_for t color in
        t.m_sealed <- t.m_sealed + 1;
        t.m_seal_cycles <-
          t.m_seal_cycles +. Seal.cost_cycles (String.length payload);
        Seal.seal ~key:k ~nonce payload)
  in
  let ok = ref (write_all c.fd (Delta.render_ok c.cursor)) in
  (* log head, unacked frames, drain flag: what each round acts on *)
  let state () =
    let head = Log.head t.log in
    locked t (fun () -> (head, c.cursor - 1 - c.acked, t.draining))
  in
  let sendable (head, in_flight, _) =
    c.cursor <= head && in_flight < t.window
  in
  while !ok && c.alive do
    let ((head, in_flight, draining) as now) = state () in
    if sendable now then begin
      (* a run of frames in one write, bounded by the window *)
      let stop = min head (c.cursor + (t.window - in_flight) - 1) in
      let frames = Buffer.create 1024 in
      let sent = ref [] in
      let cur = ref c.cursor in
      while !cur <= stop do
        (match Log.get t.log !cur with
        | Some d ->
          Buffer.add_string frames (Delta.render ~sealer:(Some sealer) d);
          sent := d.Delta.seq :: !sent
        | None -> ());
        incr cur
      done;
      let now = Unix.gettimeofday () in
      locked t (fun () ->
          List.iter
            (fun s -> Queue.push (s, now) c.inflight)
            (List.rev !sent);
          c.cursor <- stop + 1;
          t.m_shipped <- t.m_shipped + List.length !sent);
      span "repl_ship" (fun () ->
          ok := write_all c.fd (Buffer.contents frames));
      if !ok then ok := pump_acks t c buf
    end
    else if
      draining
      && (Unix.gettimeofday () > t.drain_deadline
         || (c.cursor > head && in_flight <= 0))
    then
      (* drain: the tail is flushed and acked, or the deadline passed *)
      ok := false
    else begin
      (* nothing to send (or window full): block until an ack arrives, a
         commit lands, the drain starts, or the drain deadline passes *)
      let ready () =
        let ((_, _, draining') as s) = state () in
        sendable s || draining' <> draining
      in
      let deadline = if draining then Some t.drain_deadline else None in
      match Wake.wait ?deadline ~fd:c.fd t.commits ready with
      | Wake.Readable -> ok := pump_acks t c buf
      | Wake.Woken | Wake.Timed_out -> ()
      | exception Unix.Unix_error _ -> ok := false
    end
  done;
  drop t c

let register t fd ~sync ~from_seq =
  let refuse = locked t (fun () -> t.draining) in
  if refuse then (try Unix.close fd with Unix.Unix_error _ -> ())
  else begin
    let c =
      {
        fd;
        sync;
        acks = Delta.ack_reader ();
        inflight = Queue.create ();
        cursor = max 1 from_seq;
        acked = max 0 (from_seq - 1);
        alive = true;
      }
    in
    let th = Thread.create (fun () -> ship_thread t c) () in
    locked t (fun () ->
        t.conns <- c :: t.conns;
        t.threads <- th :: t.threads)
  end

let connected t =
  locked t (fun () -> List.length (List.filter (fun c -> c.alive) t.conns))

let sync_connected t =
  locked t (fun () ->
      List.length (List.filter (fun c -> c.alive && c.sync) t.conns))

let wait_synced t ~seq ~timeout_s =
  let synced =
    Wake.await ~deadline:(Unix.gettimeofday () +. timeout_s) t.acks (fun () ->
        locked t (fun () ->
            not
              (List.exists
                 (fun c -> c.alive && c.sync && c.acked < seq)
                 t.conns)))
  in
  if not synced then Atomic.incr t.fence_timeouts;
  synced

let fence_timeouts t = Atomic.get t.fence_timeouts

let last_lag_us t = locked t (fun () -> t.m_last_lag_us)
let lag_pctiles t = locked t (fun () -> Tel.Metrics.pctiles t.h_lag)
let shipped t = locked t (fun () -> t.m_shipped)
let sealed_count t = locked t (fun () -> t.m_sealed)
let seal_cycles t = locked t (fun () -> t.m_seal_cycles)

(* Everything the shipper knows, as live gauges: the closures take the
   hub mutex at exposition time, never on the delta path. *)
let register_obs t (reg : Privagic_obs.Registry.t) =
  let g = Privagic_obs.Registry.gauge reg in
  g ~help:"live replica connections" "privagic_repl_connected" (fun () ->
      float_of_int (connected t));
  g ~help:"live synchronous replica connections" "privagic_repl_sync_connected"
    (fun () -> float_of_int (sync_connected t));
  g ~help:"last observed replication lag (microseconds)"
    "privagic_repl_lag_us" (fun () -> last_lag_us t);
  g ~help:"delta frames shipped" "privagic_repl_shipped_total" (fun () ->
      float_of_int (shipped t));
  g ~help:"secret-colored payloads sealed for the wire"
    "privagic_repl_sealed_total" (fun () -> float_of_int (sealed_count t));
  g ~help:"cycles spent sealing payloads" "privagic_repl_seal_cycles_total"
    (fun () -> seal_cycles t);
  Privagic_obs.Registry.summary reg
    ~help:"replication lag distribution (microseconds)"
    "privagic_repl_lag_summary_us" (fun () -> lag_pctiles t)

let drain t ~timeout_s =
  let already =
    locked t (fun () ->
        let a = t.draining in
        if not a then begin
          t.draining <- true;
          t.drain_deadline <- Unix.gettimeofday () +. timeout_s
        end;
        a)
  in
  if not already then begin
    notify t;
    let threads = locked t (fun () -> t.threads) in
    List.iter Thread.join threads
  end
