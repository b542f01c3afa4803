(* Single-writer event ring over five int arrays. See ring.mli for the
   contract; the key invariant is that recording performs only unboxed
   int stores, so attaching a ring to a hot loop costs a handful of
   nanoseconds and zero GC pressure. *)

type t = {
  cap : int;
  mask : int;
  ts : int array; (* stamp: obs-epoch microseconds, or cycle float bits *)
  codes : int array;
  args : int array;
  tracks : int array;
  names : int array; (* interned in [name_ids] *)
  mutable pos : int; (* events written since [clear]; owner-domain only *)
  mutable last_us : int; (* amortized clock cache for [record_now] *)
  mutable refresh : int; (* [record_now] calls until the next real read *)
  id : int;
  label : string;
  cycles : bool; (* stamps are virtual cycles, not microseconds *)
  mutable track : int; (* track of [record]/[record_now] events *)
  name_ids : (string, int) Hashtbl.t; (* owner-domain only *)
  shared : shared;
}

(* What the rings of one trace share. Only track registration and ring
   creation take [mu]; recording never does. *)
and shared = {
  s_cap : int;
  flows : int Atomic.t;
  mu : Mutex.t;
  track_names : (int, string) Hashtbl.t; (* mu *)
  mutable rings : t list; (* mu; newest first *)
}

let rec round_pow2 n k = if k >= n then k else round_pow2 n (k * 2)

let make_shared cap =
  {
    s_cap = cap;
    flows = Atomic.make 0;
    mu = Mutex.create ();
    track_names = Hashtbl.create 16;
    rings = [];
  }

let make ~cap ~cycles ~id ~label shared =
  let cap = round_pow2 (max 2 cap) 2 in
  let col () = Array.make cap 0 in
  let name_ids = Hashtbl.create 16 in
  Hashtbl.replace name_ids "" 0;
  {
    cap;
    mask = cap - 1;
    ts = col ();
    codes = col ();
    args = col ();
    tracks = col ();
    names = col ();
    pos = 0;
    last_us = 0;
    refresh = 0;
    id;
    label;
    cycles;
    track = 0;
    name_ids;
    shared;
  }

let create ?(cap = 4096) ~id ~label () =
  make ~cap ~cycles:false ~id ~label (make_shared cap)

let[@inline] store t ~code ~track ~name ~arg ~stamp =
  let i = t.pos land t.mask in
  t.ts.(i) <- stamp;
  t.codes.(i) <- code;
  t.args.(i) <- arg;
  t.tracks.(i) <- track;
  t.names.(i) <- name;
  t.pos <- t.pos + 1

let record_name t ~code ~name ~arg ~t_us =
  store t ~code ~track:t.track ~name ~arg ~stamp:t_us;
  (* exact-time events keep the amortized cache fresh and monotone *)
  if t_us > t.last_us then t.last_us <- t_us

let record t ~code ~arg ~t_us = record_name t ~code ~name:0 ~arg ~t_us

(* A non-negative float's bit pattern has bit 63 clear, so it fits an
   OCaml int exactly; [float_of_stamp] restores the cleared top bit. *)
let[@inline] stamp_of_float c = Int64.to_int (Int64.bits_of_float c)

let float_of_stamp s =
  Int64.float_of_bits (Int64.logand (Int64.of_int s) Int64.max_int)

let record_cycles t ~code ~track ~name ~arg at =
  store t ~code ~track ~name ~arg ~stamp:(stamp_of_float at)

(* One real clock read per [refresh_every] events: gettimeofday allocates
   a boxed float, which at extern-dispatch frequency costs several percent
   of steps/s. Amortizing keeps point events in the timeline (stamped with
   the cached time, never behind the last exact-time event) at negligible
   hot-path cost; the (ring, seq) tiebreak keeps the merge deterministic
   for events sharing a cached stamp. *)
let refresh_every = 32

let record_now t ~code ~arg =
  (if t.refresh <= 0 then begin
     t.refresh <- refresh_every;
     let u = Clock.now_us () in
     if u > t.last_us then t.last_us <- u
   end
   else t.refresh <- t.refresh - 1);
  store t ~code ~track:t.track ~name:0 ~arg ~stamp:t.last_us

(* [Hashtbl.find] rather than [find_opt]: a hit allocates nothing *)
let intern t name =
  match Hashtbl.find t.name_ids name with
  | k -> k
  | exception Not_found ->
    let k = Hashtbl.length t.name_ids in
    Hashtbl.replace t.name_ids name k;
    k

let locked s f =
  Mutex.lock s.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock s.mu) f

(* Track names stay unique across the trace: two backends of one server
   both name a lane "d0/U", and a viewer would merge their threads. *)
let fresh_track t name =
  locked t.shared (fun () ->
      let names = t.shared.track_names in
      let k = Hashtbl.length names in
      let taken = Hashtbl.fold (fun _ n acc -> acc || n = name) names false in
      Hashtbl.replace names k
        (if taken then Printf.sprintf "%s#%d" name k else name);
      k)

let fresh_flow t = Atomic.fetch_and_add t.shared.flows 1
let set_track t k = t.track <- k
let track t = t.track
let capacity t = t.cap
let id t = t.id
let label t = t.label
let total t = t.pos
let length t = min t.pos t.cap
let dropped t = max 0 (t.pos - t.cap)

(* Flow ids stay monotone across [clear]: ids already handed out live on
   in program state (in-flight mail, completion signals). *)
let clear t = t.pos <- 0

(* Codes below Phase.count are phase entries; these are the events. *)
let code_extern = 16
let code_chunk_begin = 17 (* name = chunk *)
let code_chunk_end = 18
let code_req_begin = 19 (* name = protocol op *)
let code_req_end = 20
let code_msg_send = 21 (* name = "spawn"|"retval"|"token"|"done"; arg = flow *)
let code_msg_recv = 22 (* arg = flow of the matched send *)
let code_barrier = 23
let code_fiber_spawn = 24 (* arg = spawning track (-1: external) *)
let code_fiber_start = 25
let code_fiber_block = 26
let code_fiber_resume = 27 (* arg = arrival, a [stamp_of_float] stamp *)
let code_fiber_finish = 28
let code_ecall = 29
let code_ocall = 30
let code_switchless = 31
let code_queue_msg = 32
let code_syscall = 33
let code_epc_fault = 34 (* arg = number of faulting pages *)
let code_thread_spawn = 35

type event = {
  ev_at : float;
  ev_ring : int;
  ev_seq : int;
  ev_code : int;
  ev_arg : int;
  ev_track : int;
  ev_name : string;
}

let to_events t =
  let n = length t in
  let first = t.pos - n in
  let names = Array.make (Hashtbl.length t.name_ids) "" in
  Hashtbl.iter (fun s k -> names.(k) <- s) t.name_ids;
  Array.init n (fun k ->
      let seq = first + k in
      let i = seq land t.mask in
      {
        ev_at =
          (if t.cycles then float_of_stamp t.ts.(i)
           else float_of_int t.ts.(i));
        ev_ring = t.id;
        ev_seq = seq;
        ev_code = t.codes.(i);
        ev_arg = t.args.(i);
        ev_track = t.tracks.(i);
        ev_name = names.(t.names.(i));
      })

(* Total order: stamp, then ring id, then per-ring sequence. Two events
   never compare equal across distinct rings (ids differ) or within one
   ring (seqs differ), so the sort is a permutation-free total order —
   merge output is independent of the input list order. *)
let compare_ev a b =
  if a.ev_at <> b.ev_at then Float.compare a.ev_at b.ev_at
  else if a.ev_ring <> b.ev_ring then compare a.ev_ring b.ev_ring
  else compare a.ev_seq b.ev_seq

let merge rings =
  let arr =
    Array.concat (List.map to_events (List.sort (fun a b -> compare a.id b.id) rings))
  in
  Array.sort compare_ev arr;
  arr

module Trace = struct
  type nonrec t = shared

  let create ?(cap = 1 lsl 16) () = make_shared cap

  let add s ~cycles label =
    locked s (fun () ->
        let r = make ~cap:s.s_cap ~cycles ~id:(List.length s.rings) ~label s in
        s.rings <- r :: s.rings;
        r)

  let ring s label =
    let r = add s ~cycles:false label in
    set_track r (fresh_track r label);
    r

  let vm_ring s = add s ~cycles:true "vm"
  let rings s = locked s (fun () -> List.rev s.rings)

  let events s =
    match rings s with [ r ] -> to_events r | rs -> merge rs

  let tracks s =
    locked s (fun () ->
        List.sort compare
          (Hashtbl.fold (fun k n acc -> (k, n) :: acc) s.track_names []))

  let track_name s k =
    match locked s (fun () -> Hashtbl.find_opt s.track_names k) with
    | Some n -> n
    | None -> Printf.sprintf "track-%d" k

  let dropped s = List.fold_left (fun acc r -> acc + dropped r) 0 (rings s)
  let clear s = List.iter clear (rings s)
end
