(* Critical-path analysis over the recorded happens-before edges.

   The virtual-time execution gives every event an exact causal timestamp,
   so the critical path can be recovered by walking *backward* from the
   makespan: at any point (track, t) the predecessor is the latest binding
   causal entry on that track at or before t —

   - a [Msg_recv] whose matching [Msg_send] lives on another track and
     whose receive time equals the send time (the receiver waited: the
     message was binding; a receive later than its send means the
     receiver's own clock dominated and the wait was free);
   - a [Fiber_start] (the fiber could not run before its spawn; the
     matching [Fiber_spawn] names the spawning track);
   - a [Fiber_resume] whose arrival timestamp exceeds the clock it blocked
     at, matched by timestamp against a send-like event on another track
     (the fallback for schedulers used without the VM's flow ids).

   Each hop lands at exactly the same virtual time on the predecessor
   track, so the path segments tile [0, makespan] with no gaps and their
   lengths sum to the makespan — the invariant the property tests check
   against [Sched.max_clock]. *)

type segment = {
  s_track : int;
  s_from : float;
  s_upto : float;
  s_via : string;      (* how the path entered this segment *)
}

type t = {
  cp_makespan : float;
  cp_segments : segment list;        (* chronological, tiling [0, makespan] *)
  cp_by_track : (int * float) list;  (* cycles attributed per track *)
  cp_by_chunk : (string * float) list; (* cycles attributed per chunk *)
  cp_complete : bool;                (* the walk reached time 0 *)
}

let total t =
  List.fold_left (fun acc s -> acc +. (s.s_upto -. s.s_from)) 0.0 t.cp_segments

let eps = 1e-6

(* Spans per track, from paired [b]/[e] events: chunk spans, and the
   serving layer's request spans. *)
let spans ~b ~e (evs : Ring.event array) =
  let stacks : (int, (string * float) list ref) Hashtbl.t = Hashtbl.create 8 in
  let spans = ref [] in
  Array.iter
    (fun (ev : Ring.event) ->
      let stack =
        match Hashtbl.find_opt stacks ev.ev_track with
        | Some s -> s
        | None ->
          let s = ref [] in
          Hashtbl.replace stacks ev.ev_track s;
          s
      in
      if ev.ev_code = b then stack := (ev.ev_name, ev.ev_at) :: !stack
      else if ev.ev_code = e then
        match !stack with
        | (name, t0) :: rest ->
          stack := rest;
          spans := (ev.ev_track, name, t0, ev.ev_at) :: !spans
        | [] -> ())
    evs;
  !spans

let chunk_spans = spans ~b:Ring.code_chunk_begin ~e:Ring.code_chunk_end

(* [since] bounds the walk on the left: the path tiles [since, makespan]
   and anything earlier is out of the analysis window (e.g. a discarded
   warm-up phase whose events were cleared from the ring). *)
let analyze ?(since = 0.0) (evs : Ring.event array) : t =
  if Array.length evs = 0 then
    { cp_makespan = 0.0; cp_segments = []; cp_by_track = []; cp_by_chunk = [];
      cp_complete = true }
  else begin
    (* per-track event lists, sorted by time (stable: record order breaks
       ties, which is chronological per fiber) *)
    let by_track : (int, Ring.event array) Hashtbl.t = Hashtbl.create 8 in
    let tmp : (int, Ring.event list ref) Hashtbl.t = Hashtbl.create 8 in
    Array.iter
      (fun (e : Ring.event) ->
        match Hashtbl.find_opt tmp e.ev_track with
        | Some l -> l := e :: !l
        | None -> Hashtbl.replace tmp e.ev_track (ref [ e ]))
      evs;
    Hashtbl.iter
      (fun k l ->
        let a = Array.of_list (List.rev !l) in
        let a' = Array.copy a in
        (* stable sort by timestamp *)
        let idx = Array.mapi (fun i e -> (i, e)) a' in
        Array.sort
          (fun (i, (x : Ring.event)) (j, (y : Ring.event)) ->
            match Float.compare x.ev_at y.ev_at with
            | 0 -> compare i j
            | c -> c)
          idx;
        Hashtbl.replace by_track k (Array.map snd idx))
      tmp;
    (* sends by flow id *)
    let send_by_flow : (int, Ring.event) Hashtbl.t = Hashtbl.create 64 in
    Array.iter
      (fun (e : Ring.event) ->
        if e.ev_code = Ring.code_msg_send then
          Hashtbl.replace send_by_flow e.ev_arg e)
      evs;
    (* spawns by child track: list sorted by time *)
    let spawns : (int, Ring.event list ref) Hashtbl.t = Hashtbl.create 8 in
    Array.iter
      (fun (e : Ring.event) ->
        if e.ev_code = Ring.code_fiber_spawn then
          match Hashtbl.find_opt spawns e.ev_track with
          | Some l -> l := e :: !l
          | None -> Hashtbl.replace spawns e.ev_track (ref [ e ]))
      evs;
    (* send-like events usable for timestamp matching (the scheduler-only
       fallback when no flow id is available) *)
    let send_like =
      Array.of_list
        (List.filter
           (fun (e : Ring.event) ->
             e.ev_code = Ring.code_msg_send
             || e.ev_code = Ring.code_fiber_finish
             || e.ev_code = Ring.code_chunk_end)
           (Array.to_list evs))
    in
    let makespan =
      Array.fold_left (fun acc (e : Ring.event) -> Float.max acc e.ev_at) 0.0
        evs
    in
    (* the walk starts at the track holding the latest event *)
    let last =
      Array.fold_left
        (fun (best : Ring.event) (e : Ring.event) ->
          if e.ev_at > best.ev_at then e else best)
        evs.(0) evs
    in
    let segments = ref [] in
    let complete = ref false in
    let guard = ref (Array.length evs + 8) in
    let cur_track = ref last.ev_track in
    let cur_time = ref makespan in
    let finished = ref false in
    while not !finished && !guard > 0 do
      decr guard;
      let track_evs =
        match Hashtbl.find_opt by_track !cur_track with
        | Some a -> a
        | None -> [||]
      in
      (* latest binding causal entry on [cur_track] at or before cur_time *)
      let entry = ref None in
      (try
         for i = Array.length track_evs - 1 downto 0 do
           let e = track_evs.(i) in
           if e.ev_at <= !cur_time +. eps then begin
             if e.ev_code = Ring.code_msg_recv then begin
               match Hashtbl.find_opt send_by_flow e.ev_arg with
               | Some s
                 when s.ev_track <> !cur_track
                      && e.ev_at <= s.ev_at +. eps ->
                 (* binding receive: the receiver waited for this send *)
                 entry :=
                   Some (e.ev_at, s.ev_track,
                         Printf.sprintf "msg:%s" s.ev_name);
                 raise Exit
               | _ -> () (* non-binding or local: keep scanning *)
             end
             else if e.ev_code = Ring.code_fiber_start then begin
               (* the spawn that started this fiber: latest spawn on this
                  track at or before the start *)
               match Hashtbl.find_opt spawns !cur_track with
               | Some l ->
                 let cands =
                   List.filter
                     (fun (s : Ring.event) -> s.ev_at <= e.ev_at +. eps)
                     !l
                 in
                 let parent =
                   List.fold_left
                     (fun acc (s : Ring.event) ->
                       match acc with
                       | Some (a : Ring.event) when a.ev_at >= s.ev_at ->
                         acc
                       | _ -> Some s)
                     None cands
                 in
                 (match parent with
                 | Some s when s.ev_arg >= 0 && s.ev_arg <> !cur_track
                   ->
                   entry := Some (e.ev_at, s.ev_arg, "spawn");
                   raise Exit
                 | Some s when s.ev_arg = !cur_track ->
                   (* serialized after earlier work on this same track
                      (e.g. the previous request of the thread): the
                      fiber boundary is not a causal entry — keep
                      scanning backward *)
                   ()
                 | _ ->
                   (* externally spawned: the chain ends here *)
                   entry := Some (e.ev_at, -1, "origin");
                   raise Exit)
               | None ->
                 entry := Some (e.ev_at, -1, "origin");
                 raise Exit
             end
             else if e.ev_code = Ring.code_fiber_resume then begin
               (* binding only if the arrival moved the clock: find the
                  send-like event at that timestamp on another track *)
               let arr = Ring.float_of_stamp e.ev_arg in
               if arr > 0.0 && arr >= e.ev_at -. eps then begin
                 let cause = ref None in
                 Array.iter
                   (fun (s : Ring.event) ->
                     if
                       s.ev_track <> !cur_track
                       && Float.abs (s.ev_at -. arr) <= eps
                       && !cause = None
                     then cause := Some s)
                   send_like;
                 match !cause with
                 | Some s ->
                   entry := Some (e.ev_at, s.ev_track, "resume");
                   raise Exit
                 | None -> ()
               end
             end
           end
         done
       with Exit -> ());
      match !entry with
      | Some (t0, next_track, via) ->
        let t0 = Float.min t0 !cur_time in
        segments :=
          { s_track = !cur_track; s_from = t0; s_upto = !cur_time; s_via = via }
          :: !segments;
        if next_track < 0 || t0 <= since +. eps then begin
          complete := t0 <= since +. eps;
          (* attribute any remaining head segment to the origin track *)
          if t0 > since +. eps then
            segments :=
              { s_track = !cur_track; s_from = since; s_upto = t0;
                s_via = "unattributed" }
              :: !segments;
          finished := true
        end
        else begin
          cur_track := next_track;
          cur_time := t0
        end
      | None ->
        (* no causal entry: the whole prefix belongs to this track *)
        segments :=
          { s_track = !cur_track; s_from = since; s_upto = !cur_time;
            s_via = "start" }
          :: !segments;
        complete := true;
        finished := true
    done;
    if not !finished then
      (* walk guard tripped: close the path so lengths still tile *)
      segments :=
        { s_track = !cur_track; s_from = since; s_upto = !cur_time;
          s_via = "guard" }
        :: !segments;
    let segments = !segments in
    let by_track = Hashtbl.create 8 in
    List.iter
      (fun s ->
        let d = s.s_upto -. s.s_from in
        Hashtbl.replace by_track s.s_track
          (d
          +. match Hashtbl.find_opt by_track s.s_track with
             | Some x -> x
             | None -> 0.0))
      segments;
    (* attribute path time to chunks by intersecting with chunk spans *)
    let spans = chunk_spans evs in
    let by_chunk = Hashtbl.create 8 in
    let add_chunk name d =
      if d > 0.0 then
        Hashtbl.replace by_chunk name
          (d
          +. match Hashtbl.find_opt by_chunk name with
             | Some x -> x
             | None -> 0.0)
    in
    List.iter
      (fun s ->
        let covered = ref 0.0 in
        List.iter
          (fun (track, name, t0, t1) ->
            if track = s.s_track then begin
              let lo = Float.max t0 s.s_from and hi = Float.min t1 s.s_upto in
              if hi > lo then begin
                add_chunk name (hi -. lo);
                covered := !covered +. (hi -. lo)
              end
            end)
          spans;
        (* innermost spans may overlap (nested chunks): clamp the residue *)
        let residue = Float.max 0.0 (s.s_upto -. s.s_from -. !covered) in
        add_chunk "<runtime>" residue)
      segments;
    {
      cp_makespan = makespan;
      cp_segments = segments;
      cp_by_track =
        List.sort
          (fun (_, a) (_, b) -> Float.compare b a)
          (Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_track []);
      cp_by_chunk =
        List.sort
          (fun (_, a) (_, b) -> Float.compare b a)
          (Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_chunk []);
      cp_complete = !complete;
    }
  end

let pp ?(track_name = fun k -> Printf.sprintf "track-%d" k) fmt t =
  let open Format in
  fprintf fmt "critical path (makespan %.0f cycles):@." t.cp_makespan;
  List.iter
    (fun s ->
      fprintf fmt "  %10.0f .. %-10.0f  %-24s  (+%.0f, via %s)@." s.s_from
        s.s_upto (track_name s.s_track) (s.s_upto -. s.s_from) s.s_via)
    t.cp_segments;
  fprintf fmt "attribution by worker:@.";
  List.iter
    (fun (k, d) ->
      fprintf fmt "  %-24s %12.0f cycles (%4.1f%%)@." (track_name k) d
        (if t.cp_makespan > 0.0 then 100.0 *. d /. t.cp_makespan else 0.0))
    t.cp_by_track;
  fprintf fmt "attribution by chunk:@.";
  List.iter
    (fun (name, d) ->
      fprintf fmt "  %-24s %12.0f cycles (%4.1f%%)@." name d
        (if t.cp_makespan > 0.0 then 100.0 *. d /. t.cp_makespan else 0.0))
    t.cp_by_chunk;
  fprintf fmt "path total: %.0f cycles%s@." (total t)
    (if t.cp_complete then "" else "  (incomplete walk)")
