(* A mutex-guarded growable array. The log itself signals nobody:
   readers (shipper threads) check [head] under its mutex and block on
   the shipper's commit wake, which the serving layer signals once per
   committed chunk (Shipper.notify) — one wake-up per chunk instead of
   one per appended delta. *)

type t = {
  mu : Mutex.t;
  mutable entries : Delta.t array;
  mutable len : int;
}

let dummy = Delta.{ seq = 0; op = Del { key = 0 } }

let create () = { mu = Mutex.create (); entries = Array.make 256 dummy; len = 0 }

let grow t =
  if t.len = Array.length t.entries then begin
    let bigger = Array.make (2 * Array.length t.entries) dummy in
    Array.blit t.entries 0 bigger 0 t.len;
    t.entries <- bigger
  end

let append t op =
  Mutex.lock t.mu;
  grow t;
  let seq = t.len + 1 in
  t.entries.(t.len) <- Delta.{ seq; op };
  t.len <- t.len + 1;
  Mutex.unlock t.mu;
  seq

let append_batch t ops =
  Mutex.lock t.mu;
  List.iter
    (fun op ->
      grow t;
      t.entries.(t.len) <- Delta.{ seq = t.len + 1; op };
      t.len <- t.len + 1)
    ops;
  let last = t.len in
  Mutex.unlock t.mu;
  last

let append_at t ~seq op =
  Mutex.lock t.mu;
  if seq <> t.len + 1 then begin
    let head = t.len in
    Mutex.unlock t.mu;
    invalid_arg
      (Printf.sprintf "Log.append_at: seq %d does not extend head %d" seq head)
  end;
  grow t;
  t.entries.(t.len) <- Delta.{ seq; op };
  t.len <- t.len + 1;
  Mutex.unlock t.mu

let head t =
  Mutex.lock t.mu;
  let n = t.len in
  Mutex.unlock t.mu;
  n

let get t seq =
  Mutex.lock t.mu;
  let r =
    if seq >= 1 && seq <= t.len then Some t.entries.(seq - 1) else None
  in
  Mutex.unlock t.mu;
  r

let to_list t =
  Mutex.lock t.mu;
  let l = Array.to_list (Array.sub t.entries 0 t.len) in
  Mutex.unlock t.mu;
  l
