(* See the .mli. One thread owns the socket end to end: connect (with
   retry while the primary is still binding), hello, then a read loop
   that feeds the incremental stream reader, unseals, applies in seq
   order and sends one coalesced ack per feed batch. The loop blocks on
   the socket together with [wake], which [stop] signals, so [stop] never
   has to interrupt a syscall; [wait_lost] sleeps on the same wake,
   signalled when the link ends. *)

module Wake = Privagic_runtime.Wake

type status = Connecting | Streaming | Lost | Stopped

type t = {
  mu : Mutex.t;
  mutable st : status;
  mutable applied : int;
  mutable err : string;
  mutable stopping : bool;
  mutable thread : Thread.t option;
  wake : Wake.t;  (* [stopping] set, or [st] became Lost/Stopped *)
}

let locked t f =
  Mutex.lock t.mu;
  let r = f () in
  Mutex.unlock t.mu;
  r

let resolve host =
  try Unix.inet_addr_of_string host
  with Failure _ -> (Unix.gethostbyname host).Unix.h_addr_list.(0)

(* Blocking-socket full write; false when the primary is gone. *)
let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let rec go off =
    if off >= Bytes.length b then true
    else
      match Unix.write fd b off (Bytes.length b - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error (EINTR, _, _) -> go off
      | exception Unix.Unix_error _ -> false
  in
  go 0

let try_connect host port =
  match
    let fd = Unix.socket PF_INET SOCK_STREAM 0 in
    (try
       Unix.connect fd (ADDR_INET (resolve host, port));
       Unix.setsockopt fd TCP_NODELAY true
     with e ->
       (try Unix.close fd with Unix.Unix_error _ -> ());
       raise e);
    fd
  with
  | fd -> Some fd
  | exception Unix.Unix_error _ -> None
  | exception Not_found -> None

let run t ~sync ~cluster ~from_seq ~connect_timeout_s ~on_lost ~host ~port
    ~apply =
  let keys = Hashtbl.create 4 in
  let key_for color =
    match Hashtbl.find_opt keys color with
    | Some k -> k
    | None ->
      let k = Seal.derive ~cluster color in
      Hashtbl.replace keys color k;
      k
  in
  let fail = ref "" in
  (* connect, retrying while the primary is not accepting yet *)
  let deadline = Unix.gettimeofday () +. connect_timeout_s in
  let stopping () = locked t (fun () -> t.stopping) in
  let rec connect () =
    if stopping () then None
    else
      match try_connect host port with
      | Some fd -> Some fd
      | None ->
        if Unix.gettimeofday () > deadline then begin
          fail := Printf.sprintf "could not connect to %s:%d" host port;
          None
        end
        else begin
          (* bound: the retry interval while the primary is not yet
             listening — nothing signals "port open"; [stop] cuts it *)
          ignore
            (Wake.await ~deadline:(Unix.gettimeofday () +. 0.05) t.wake
               stopping);
          connect ()
        end
  in
  (match connect () with
  | None -> ()
  | Some fd ->
    let r = Delta.reader () in
    let buf = Bytes.create 8192 in
    let stop_with msg = fail := msg in
    let on_frame = function
      | Delta.Ok_hello start ->
        locked t (fun () ->
            t.applied <- start - 1;
            if t.st = Connecting then t.st <- Streaming)
      | Delta.Corrupt msg -> stop_with ("corrupt stream: " ^ msg)
      | Delta.Frame { d; sealed } ->
        let expected = locked t (fun () -> t.applied) + 1 in
        if d.Delta.seq <> expected then
          stop_with
            (Printf.sprintf "stream gap: got seq %d, expected %d" d.Delta.seq
               expected)
        else
          let plain =
            if not sealed then Ok d
            else
              match d.Delta.op with
              | Delta.Del _ -> Ok d (* cannot happen: DDEL is never sealed *)
              | Delta.Put { key; color; payload } -> (
                match
                  Seal.unseal ~key:(key_for color) ~nonce:d.Delta.seq payload
                with
                | Ok pt ->
                  Ok Delta.{ d with op = Put { key; color; payload = pt } }
                | Error e -> Error ("unseal failed (forged frame?): " ^ e))
          in
          (match plain with
          | Error e -> stop_with e
          | Ok d -> (
            match apply d with
            | Ok () -> locked t (fun () -> t.applied <- d.Delta.seq)
            | Error e -> stop_with ("apply failed: " ^ e)))
    in
    if not (write_all fd (Delta.render_hello ~sync ~from_seq)) then
      fail := "handshake write failed";
    while !fail = "" && not (stopping ()) do
      match Wake.wait ~fd t.wake stopping with
      | exception Unix.Unix_error _ -> fail := "socket error"
      | Wake.Woken | Wake.Timed_out -> ()
      | Wake.Readable -> (
        match Unix.read fd buf 0 (Bytes.length buf) with
        | exception Unix.Unix_error (EINTR, _, _) -> ()
        | exception Unix.Unix_error _ -> fail := "read error"
        | 0 -> fail := "primary closed the stream"
        | n ->
          let before = locked t (fun () -> t.applied) in
          List.iter (fun f -> if !fail = "" then on_frame f) (Delta.feed r buf n);
          let after = locked t (fun () -> t.applied) in
          if after > before && !fail = "" then
            if not (write_all fd (Delta.render_ack after)) then
              fail := "ack write failed")
    done;
    (try Unix.close fd with Unix.Unix_error _ -> ()));
  let fire =
    locked t (fun () ->
        t.err <- !fail;
        if t.stopping then begin
          t.st <- Stopped;
          false
        end
        else begin
          t.st <- Lost;
          true
        end)
  in
  Wake.signal t.wake;
  if fire then on_lost ()

let start ?(sync = false) ?(cluster = "privagic") ?(from_seq = 1)
    ?(connect_timeout_s = 30.0) ?(on_lost = fun () -> ()) ~host ~port ~apply
    () =
  let t =
    {
      mu = Mutex.create ();
      st = Connecting;
      applied = max 0 (from_seq - 1);
      err = "";
      stopping = false;
      thread = None;
      wake = Wake.create ();
    }
  in
  let th =
    Thread.create
      (fun () ->
        run t ~sync ~cluster ~from_seq ~connect_timeout_s ~on_lost ~host ~port
          ~apply)
      ()
  in
  t.thread <- Some th;
  t

let status t = locked t (fun () -> t.st)
let applied_seq t = locked t (fun () -> t.applied)
let error t = locked t (fun () -> t.err)

let stop t =
  let th =
    locked t (fun () ->
        t.stopping <- true;
        t.thread)
  in
  Wake.signal t.wake;
  (match th with Some th -> Thread.join th | None -> ());
  locked t (fun () -> if t.st <> Lost then t.st <- Stopped);
  Wake.signal t.wake

let wait_lost t ~timeout_s =
  Wake.await ~deadline:(Unix.gettimeofday () +. timeout_s) t.wake (fun () ->
      match status t with
      | Lost | Stopped -> true
      | Connecting | Streaming -> false)
