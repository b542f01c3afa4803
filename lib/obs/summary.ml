(* Plain-text summary sink: derives the standard per-run metrics from the
   recorded events — message (queue) latency, chunk span lengths,
   per-worker busy occupancy, transition/fault counts — and renders them
   with the histograms of {!Metrics}. *)

module Metrics = Privagic_telemetry.Metrics

type t = {
  makespan : float;
  event_count : int;
  dropped : int;
  metrics : Metrics.t;
  occupancy : (int * float) list;  (* track -> busy fraction of makespan *)
}

let of_events ?(dropped = 0) (evs : Ring.event array) : t =
  let m = Metrics.create () in
  let queue_latency = Metrics.histogram m "queue latency (cycles)" in
  let span_len = Metrics.histogram m "chunk span length (cycles)" in
  let msgs = Metrics.counter m "messages" in
  let spawns = Metrics.counter m "spawn messages" in
  let conts = Metrics.counter m "cont messages" in
  let barriers = Metrics.counter m "barriers" in
  let ecalls = Metrics.counter m "ecalls" in
  let epc_faults = Metrics.counter m "epc faults (pages)" in
  let syscalls = Metrics.counter m "syscalls" in
  let send_at : (int, float) Hashtbl.t = Hashtbl.create 64 in
  let busy : (int, float) Hashtbl.t = Hashtbl.create 8 in
  let makespan =
    Array.fold_left (fun acc (e : Ring.event) -> Float.max acc e.ev_at) 0.0 evs
  in
  let spans = Critical_path.chunk_spans evs in
  (* busy time = union of the track's chunk intervals; a nested chunk
     (local call inside a chunk) would otherwise be double-counted *)
  let by_track : (int, (float * float) list) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (track, _name, t0, t1) ->
      let prev = Option.value ~default:[] (Hashtbl.find_opt by_track track) in
      Hashtbl.replace by_track track ((t0, t1) :: prev))
    spans;
  Hashtbl.iter
    (fun track ivs ->
      match List.sort compare ivs with
      | [] -> ()
      | (lo0, hi0) :: rest ->
        let total, lo, hi =
          List.fold_left
            (fun (acc, lo, hi) (a, b) ->
              if a > hi then (acc +. (hi -. lo), a, b)
              else (acc, lo, Float.max hi b))
            (0.0, lo0, hi0) rest
        in
        Hashtbl.replace busy track (total +. (hi -. lo)))
    by_track;
  Array.iter
    (fun (e : Ring.event) ->
      let c = e.ev_code in
      if c = Ring.code_msg_send then begin
        Metrics.incr msgs;
        (match e.ev_name with
        | "spawn" -> Metrics.incr spawns
        | "retval" | "token" -> Metrics.incr conts
        | _ -> ());
        Hashtbl.replace send_at e.ev_arg e.ev_at
      end
      else if c = Ring.code_msg_recv then begin
        match Hashtbl.find_opt send_at e.ev_arg with
        | Some t0 ->
          Metrics.observe queue_latency (Float.max 0.0 (e.ev_at -. t0))
        | None -> ()
      end
      else if c = Ring.code_barrier then Metrics.incr barriers
      else if c = Ring.code_ecall then Metrics.incr ecalls
      else if c = Ring.code_epc_fault then
        Metrics.incr ~by:(max 1 e.ev_arg) epc_faults
      else if c = Ring.code_syscall || c = Ring.code_ocall then
        Metrics.incr syscalls)
    evs;
  List.iter
    (fun (_track, _name, t0, t1) -> Metrics.observe span_len (t1 -. t0))
    spans;
  (* serving-layer request spans, when present: end-to-end latency in the
     ring's clock units (cycles under the simulator, microseconds
     under the wall-clock backends) *)
  (match
     Critical_path.spans ~b:Ring.code_req_begin ~e:Ring.code_req_end evs
   with
  | [] -> ()
  | rspans ->
    let requests = Metrics.counter m "requests" in
    let req_latency = Metrics.histogram m "request latency" in
    List.iter
      (fun (_track, _name, t0, t1) ->
        Metrics.incr requests;
        Metrics.observe req_latency (t1 -. t0))
      rspans);
  {
    makespan;
    event_count = Array.length evs;
    dropped;
    metrics = m;
    occupancy =
      List.sort
        (fun (_, a) (_, b) -> Float.compare b a)
        (Hashtbl.fold
           (fun k v acc ->
             (k, if makespan > 0.0 then v /. makespan else 0.0) :: acc)
           busy []);
  }

let pp ?(track_name = fun k -> Printf.sprintf "track-%d" k) fmt t =
  let open Format in
  fprintf fmt "telemetry summary: %d events%s, makespan %.0f cycles@."
    t.event_count
    (if t.dropped > 0 then Printf.sprintf " (%d dropped)" t.dropped else "")
    t.makespan;
  Metrics.pp fmt t.metrics;
  fprintf fmt "per-worker occupancy (chunk-busy / makespan):@.";
  List.iter
    (fun (k, f) ->
      fprintf fmt "  %-24s %5.1f%%@." (track_name k) (100.0 *. f))
    t.occupancy
