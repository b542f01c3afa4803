(* In-memory spans and latency samples for the traced run.

   Spans are recorded from the benchmark's own wrappers around the calls
   it makes into each layer: setup steps, phases, VM entry calls, replica
   applies and the drain. Recording is off unless [set_on true]; the timed
   end-to-end runs never turn it on, so they pay one atomic read per
   wrapped call. The spans are written out as a Chrome trace when the run
   ends. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** 0 = root *)
  domain : int;
  t0 : float;  (** seconds since the epoch *)
  t1 : float;
}

let on = Atomic.make false
let set_on b = Atomic.set on b
let is_on () = Atomic.get on
let next_id = Atomic.make 1
let mu = Mutex.create ()
let spans : span list ref = ref []

(* The phase span VM calls and replica applies hang under: they run on
   other domains and threads than the one that opened the phase. *)
let current_phase = Atomic.make 0

let push ?(id = Atomic.fetch_and_add next_id 1) ?(parent = Atomic.get current_phase) name t0 t1 =
  let s = { id; name; parent; domain = (Domain.self () :> int); t0; t1 } in
  Mutex.lock mu;
  spans := s :: !spans;
  Mutex.unlock mu

(* [with_span name f] times [f] as one span (only when tracing is on). *)
let with_span name f =
  if not (is_on ()) then f ()
  else begin
    let t0 = Unix.gettimeofday () in
    let r = f () in
    push name t0 (Unix.gettimeofday ());
    r
  end

(* A phase span: children recorded while it runs point at it. *)
let phase name f =
  if not (is_on ()) then f ()
  else begin
    let id = Atomic.fetch_and_add next_id 1 in
    let outer = Atomic.exchange current_phase id in
    let t0 = Unix.gettimeofday () in
    let r = Fun.protect ~finally:(fun () -> Atomic.set current_phase outer) f in
    push ~id ~parent:outer name t0 (Unix.gettimeofday ());
    r
  end

let count () = List.length !spans

(* Chrome trace-event JSON: one complete ("X") event per span, one track
   per domain; the parent id travels in [args]. *)
let write_chrome path ~stamp =
  let oc = open_out path in
  Printf.fprintf oc "{\"otherData\": %s,\n\"traceEvents\": [\n" stamp;
  let all = List.sort (fun a b -> compare (a.t0, a.id) (b.t0, b.id)) !spans in
  let base = match all with s :: _ -> s.t0 | [] -> 0.0 in
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s{\"name\": %S, \"ph\": \"X\", \"pid\": 1, \"tid\": %d, \"ts\": \
         %.3f, \"dur\": %.3f, \"args\": {\"id\": %d, \"parent\": %d}}\n"
        (if i = 0 then "" else ",")
        s.name s.domain
        ((s.t0 -. base) *. 1e6)
        ((s.t1 -. s.t0) *. 1e6)
        s.id s.parent)
    all;
  output_string oc "]}\n";
  close_out oc

(* Exact-percentile sample sets (one writer each). *)
module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.0; n = 0 }

  let add t v =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0.0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- v;
    t.n <- t.n + 1

  let clear t = t.n <- 0

  (* [append t u] adds every sample of [u] to [t] *)
  let append t u = for i = 0 to u.n - 1 do add t u.a.(i) done

  (* nearest-rank quantile; 0 on an empty set *)
  let quantile t q =
    if t.n = 0 then 0.0
    else begin
      let s = Array.sub t.a 0 t.n in
      Array.sort compare s;
      let i = int_of_float (Float.ceil (q *. float_of_int t.n)) - 1 in
      s.(max 0 (min (t.n - 1) i))
    end
end

(* [timed samples name f] runs [f]; with tracing on it also records the
   call as a span and its wall time (microseconds) in [samples]. Returns
   the result and the seconds spent (0 with tracing off). *)
let timed samples name f =
  if not (is_on ()) then (f (), 0.0)
  else begin
    let t0 = Unix.gettimeofday () in
    let r = f () in
    let t1 = Unix.gettimeofday () in
    Samples.add samples ((t1 -. t0) *. 1e6);
    push name t0 t1;
    (r, t1 -. t0)
  end
