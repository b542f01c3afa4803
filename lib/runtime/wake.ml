(* See the .mli. A waiter increments [sleepers] before its readiness
   check, so a signaller that finds [sleepers = 0] knows (SC atomics)
   that any later waiter's check sees the published state. A signal
   that finds a sleeper bumps [epoch] and broadcasts under [mu], and
   pokes the self-pipe of every select waiter registered in [pokes]; a
   condition waiter read [epoch] before its check and sleeps only while
   it is unchanged, so no signal falls between the check and the
   sleep. *)

type t = {
  sleepers : int Atomic.t;          (* registered waiters *)
  epoch : int Atomic.t;             (* bumped under [mu] per signal *)
  mu : Mutex.t;
  cv : Condition.t;
  mutable pokes : Unix.file_descr list; (* [mu]: select waiters' pipes *)
}

type outcome = Woken | Readable | Timed_out

let create () =
  {
    sleepers = Atomic.make 0;
    epoch = Atomic.make 0;
    mu = Mutex.create ();
    cv = Condition.create ();
    pokes = [];
  }

(* The pipe pool: at most one pipe per thread concurrently blocked in a
   select wait, reused across wakes. *)
let pool_mu = Mutex.create ()
let pool : (Unix.file_descr * Unix.file_descr) list ref = ref []

let take_pipe () =
  Mutex.lock pool_mu;
  match !pool with
  | p :: rest ->
    pool := rest;
    Mutex.unlock pool_mu;
    p
  | [] ->
    Mutex.unlock pool_mu;
    let r, w = Unix.pipe ~cloexec:true () in
    Unix.set_nonblock r;
    Unix.set_nonblock w;
    (r, w)

let give_pipe p =
  Mutex.lock pool_mu;
  pool := p :: !pool;
  Mutex.unlock pool_mu

let signal t =
  if Atomic.get t.sleepers > 0 then begin
    Mutex.lock t.mu;
    Atomic.incr t.epoch;
    Condition.broadcast t.cv;
    (* each registered pipe is poked once, then forgotten: its waiter
       learns it was poked by finding itself gone from [pokes] *)
    List.iter
      (fun w ->
        try ignore (Unix.single_write_substring w "!" 0 1)
        with Unix.Unix_error _ -> ())
      t.pokes;
    t.pokes <- [];
    Mutex.unlock t.mu
  end

let wait_cond t ready =
  let e = Atomic.get t.epoch in
  if ready () then Woken
  else begin
    Mutex.lock t.mu;
    while Atomic.get t.epoch = e do
      Condition.wait t.cv t.mu
    done;
    Mutex.unlock t.mu;
    Woken
  end

let wait_select ?deadline ?fd t ready =
  let ((r, w) as p) = take_pipe () in
  Mutex.lock t.mu;
  t.pokes <- w :: t.pokes;
  Mutex.unlock t.mu;
  let fds = match fd with None -> [ r ] | Some f -> [ r; f ] in
  let rec block () =
    let timeout =
      match deadline with
      | None -> -1.0
      | Some d -> Float.max 0.0 (d -. Unix.gettimeofday ())
    in
    match Unix.select fds [] [] timeout with
    | [], _, _ -> Timed_out
    | rd, _, _ -> if List.mem r rd then Woken else Readable
    | exception Unix.Unix_error (EINTR, _, _) -> block ()
  in
  let result =
    match if ready () then Woken else block () with
    | o -> Ok o
    | exception e -> Error e
  in
  Mutex.lock t.mu;
  let poked = not (List.mem w t.pokes) in
  if not poked then t.pokes <- List.filter (fun x -> x <> w) t.pokes;
  Mutex.unlock t.mu;
  (* the signaller wrote exactly one byte; consume it before the pipe
     goes back to the pool *)
  (if poked then
     let b = Bytes.create 1 in
     try ignore (Unix.read r b 0 1) with Unix.Unix_error _ -> ());
  give_pipe p;
  match result with Ok o -> o | Error e -> raise e

let wait ?deadline ?fd t ready =
  Atomic.incr t.sleepers;
  Fun.protect
    ~finally:(fun () -> Atomic.decr t.sleepers)
    (fun () ->
      match (deadline, fd) with
      | None, None -> wait_cond t ready
      | _ -> wait_select ?deadline ?fd t ready)

let await ?deadline t ready =
  let rec go () =
    ready ()
    ||
    match wait ?deadline t ready with
    | Timed_out -> ready ()
    | Woken | Readable -> go ()
  in
  go ()
