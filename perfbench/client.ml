(* The benchmark's own socket clients.

   [closed_loop] drives the measured closed-loop phases: the same shape
   and requests as Loadgen's closed loop (YCSB generator, [depth]
   pipelined requests per connection, an RMW sent as [getv] then a [cas]
   timed from the first leg), but it runs for a fixed time and keeps
   every latency sample. Loadgen reports percentiles from power-of-two
   histogram buckets; interpolated inside a bucket as wide as the value,
   its p99 jumps (16.3 ms one run, 22-38 ms the next, as the tail crosses
   the 16384 us edge), which no bound below 0.25 can hold. Loadgen still
   preloads and runs the open-loop phase.

   [get_all] reads every key back, with its version, for the
   correctness gate. *)

module Protocol = Privagic_server.Protocol
module Ycsb = Privagic_workloads.Ycsb

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let rec go off =
    if off < Bytes.length b then go (off + Unix.write fd b off (Bytes.length b - off))
  in
  go 0

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  fd

let close fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* [get_all ~port keys f] calls [f key response] once per key, in order,
   over one connection with a window of getvs in flight: the answers
   carry each key's value and committed version. *)
let get_all ~port (keys : int array) (f : int -> Protocol.response -> unit) =
  let window = 32 in
  let fd = connect port in
  Fun.protect ~finally:(fun () -> close fd) (fun () ->
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 30.0;
      let rd = Protocol.resp_reader () in
      let buf = Bytes.create 65536 in
      let pending = Queue.create () in
      let next = ref 0 in
      let n = Array.length keys in
      while !next < n || not (Queue.is_empty pending) do
        let out = Buffer.create 1024 in
        while !next < n && Queue.length pending < window do
          Buffer.add_string out (Protocol.render_request (Protocol.Getv keys.(!next)));
          Queue.push keys.(!next) pending;
          incr next
        done;
        if Buffer.length out > 0 then write_all fd (Buffer.contents out);
        match Unix.read fd buf 0 (Bytes.length buf) with
        | 0 -> failwith "read-back: server closed the connection"
        | got ->
          List.iter
            (fun r -> match Queue.take_opt pending with Some k -> f k r | None -> ())
            (Protocol.feed_resp rd buf got)
        | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) ->
          failwith "read-back: no response for 30 s"
      done)

(* ------------------------------------------------------------------ *)

type result = {
  ops : int;                   (** completed ops (an RMW counts once) *)
  wall : float;                (** seconds, first send to last response *)
  slice_ops : int array;       (** completions per time slice *)
  slice_lat : Tracer.Samples.t array;  (** latencies (us) per time slice *)
  busy : int;                  (** SERVER_BUSY answers (resent) *)
  errors : int;                (** error or unexpected answers *)
  misses : int;                (** gets, getvs and cas legs that found no value *)
  sets_stored : int;           (** sets answered STORED *)
  cas_stored : int;            (** cas legs answered STORED *)
}

type conn = {
  fd : Unix.file_descr;
  rd : Protocol.resp_reader;
  out : Buffer.t;
  inflight : (float * Protocol.request) Queue.t;  (** start time, request *)
}

(* [closed_loop ~port ~conns ~depth ~seconds ~slices spec] keeps [depth]
   requests in flight on each of [conns] connections for [seconds], then
   lets the in-flight ones finish. Ops complete into the slice of
   [seconds]/[slices] they end in. *)
let closed_loop ~port ~conns ~depth ~seconds ~slices (spec : Ycsb.spec) =
  let gen = Ycsb.create spec in
  let value k = Ycsb.value_for ~size:spec.Ycsb.value_size k in
  let next () =
    match Ycsb.next_op gen with
    | Ycsb.Read k -> Protocol.Get k
    | Ycsb.Update k | Ycsb.Insert k -> Protocol.Set (k, value k)
    | Ycsb.Rmw k -> Protocol.Getv k
    | Ycsb.Scan _ -> invalid_arg "closed loop: the benchmark mixes have no scans"
  in
  let cs =
    Array.init conns (fun _ ->
        let fd = connect port in
        Unix.set_nonblock fd;
        { fd; rd = Protocol.resp_reader (); out = Buffer.create 4096; inflight = Queue.create () })
  in
  Fun.protect ~finally:(fun () -> Array.iter (fun c -> close c.fd) cs) @@ fun () ->
  let slice_ops = Array.make slices 0 in
  let slice_lat = Array.init slices (fun _ -> Tracer.Samples.create ()) in
  let busy = ref 0 and errors = ref 0 and misses = ref 0 and ops = ref 0 in
  let sets_stored = ref 0 and cas_stored = ref 0 in
  let buf = Bytes.create 65536 in
  let t0 = Unix.gettimeofday () in
  let deadline = t0 +. seconds in
  let last = ref t0 in
  let complete start =
    let now = Unix.gettimeofday () in
    (* ops still in flight at the deadline finish outside every slice *)
    let i = int_of_float ((now -. t0) /. seconds *. float_of_int slices) in
    if i < slices then begin
      slice_ops.(i) <- slice_ops.(i) + 1;
      Tracer.Samples.add slice_lat.(i) ((now -. start) *. 1e6)
    end;
    incr ops;
    last := now
  in
  let send c start req =
    Buffer.add_string c.out (Protocol.render_request req);
    Queue.push (start, req) c.inflight
  in
  let on_response c resp =
    match Queue.take_opt c.inflight with
    | None -> incr errors
    | Some (start, req) -> (
      match (req, resp) with
      | _, Protocol.Busy -> incr busy; send c start req
      | Protocol.Getv k, Protocol.Version { v_ver; v_val; _ } ->
        if v_val = None then incr misses;
        send c start (Protocol.Cas { c_key = k; c_ver = v_ver; c_val = value k })
      | Protocol.Cas _, Protocol.Stored -> incr cas_stored; complete start
      | Protocol.Set _, Protocol.Stored -> incr sets_stored; complete start
      | Protocol.Cas _, Protocol.Cas_conflict _ | Protocol.Get _, Protocol.Value _ ->
        complete start
      (* every key was preloaded: a cas that finds none has lost it *)
      | Protocol.Get _, Protocol.Miss | Protocol.Cas _, Protocol.Not_found ->
        incr misses; complete start
      | _ -> incr errors; complete start)
  in
  let issuing () = Unix.gettimeofday () < deadline in
  while issuing () || Array.exists (fun c -> not (Queue.is_empty c.inflight)) cs do
    if issuing () then
      Array.iter
        (fun c ->
          while Queue.length c.inflight < depth do
            send c (Unix.gettimeofday ()) (next ())
          done)
        cs;
    Array.iter
      (fun c ->
        if Buffer.length c.out > 0 then begin
          (* requests are small and the server reads continuously: a
             blocking write of the batch cannot deadlock *)
          Unix.clear_nonblock c.fd;
          write_all c.fd (Buffer.contents c.out);
          Unix.set_nonblock c.fd;
          Buffer.clear c.out
        end)
      cs;
    let fds = Array.to_list (Array.map (fun c -> c.fd) cs) in
    match Unix.select fds [] [] 1.0 with
    | [], _, _ ->
      if Unix.gettimeofday () -. !last > 60.0 then failwith "closed loop: no response for 60 s"
    | ready, _, _ ->
      Array.iter
        (fun c ->
          if List.mem c.fd ready then
            match Unix.read c.fd buf 0 (Bytes.length buf) with
            | 0 -> failwith "closed loop: server closed the connection"
            | n -> List.iter (on_response c) (Protocol.feed_resp c.rd buf n)
            | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> ())
        cs
    | exception Unix.Unix_error (EINTR, _, _) -> ()
  done;
  { ops = !ops; wall = !last -. t0; slice_ops; slice_lat; busy = !busy; errors = !errors;
    misses = !misses; sets_stored = !sets_stored; cas_stored = !cas_stored }
