(* Chrome trace_event JSON export, loadable in chrome://tracing and
   Perfetto. One process; one named thread track per worker; B/E duration
   slices for chunk execution and requests; legacy flow events (s/f) draw
   the arrows between a message's send and its receive; machine
   transitions, faults and scheduler block/resume points are instants.
   Phase entries and extern dispatches are not drawn.

   Timestamps: the trace_event format nominally uses microseconds, which
   wall-clock rings stamp; a simulated VM's ring stamps virtual cycles,
   emitted verbatim — only relative positions matter for reading a
   schedule, and cycles keep the numbers exact. *)

let escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* point events drawn as instants: code -> (category, name) *)
let instants =
  [ (Ring.code_fiber_block, ("sched", "block"));
    (Ring.code_fiber_resume, ("sched", "resume"));
    (Ring.code_fiber_start, ("sched", "fiber-start"));
    (Ring.code_fiber_finish, ("sched", "fiber-finish"));
    (Ring.code_barrier, ("sync", "barrier"));
    (Ring.code_epc_fault, ("machine", "epc-fault"));
    (Ring.code_ecall, ("machine", "ecall"));
    (Ring.code_ocall, ("machine", "ocall"));
    (Ring.code_switchless, ("machine", "switchless"));
    (Ring.code_queue_msg, ("machine", "queue-msg"));
    (Ring.code_syscall, ("machine", "syscall"));
    (Ring.code_thread_spawn, ("machine", "thread-spawn")) ]

let emit_to_buffer ~(track_name : int -> string) (evs : Ring.event array)
    (b : Buffer.t) =
  let first = ref true in
  let obj fields =
    if !first then first := false else Buffer.add_string b ",\n";
    Buffer.add_string b "  {";
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_string b (Printf.sprintf "\"%s\":%s" k v))
      fields;
    Buffer.add_char b '}'
  in
  let str s = Printf.sprintf "\"%s\"" (escape s) in
  let ts at = Printf.sprintf "%.3f" at in
  Buffer.add_string b "{\n\"traceEvents\": [\n";
  obj [ ("name", str "process_name"); ("ph", str "M"); ("pid", "1");
        ("tid", "0");
        ("args", Printf.sprintf "{\"name\":%s}" (str "privagic")) ];
  (* named thread per track, in track order *)
  let tracks = Hashtbl.create 8 in
  Array.iter
    (fun (e : Ring.event) ->
      if not (Hashtbl.mem tracks e.ev_track) then
        Hashtbl.replace tracks e.ev_track ())
    evs;
  List.iter
    (fun k ->
      obj
        [ ("name", str "thread_name"); ("ph", str "M"); ("pid", "1");
          ("tid", string_of_int k);
          ("args", Printf.sprintf "{\"name\":%s}" (str (track_name k))) ])
    (List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) tracks []));
  (* flow names must match between the s and f ends *)
  let flow_name = Hashtbl.create 64 in
  Array.iter
    (fun (e : Ring.event) ->
      if e.ev_code = Ring.code_msg_send then
        Hashtbl.replace flow_name e.ev_arg e.ev_name)
    evs;
  (* open spans per track: a wrapped ring has lost the begin of its
     oldest spans, and their ends are dropped so B/E stay balanced *)
  let depth = Hashtbl.create 8 in
  Array.iter
    (fun (e : Ring.event) ->
      let tid = string_of_int e.ev_track in
      let span ph name cat =
        let d = Option.value ~default:0 (Hashtbl.find_opt depth tid) in
        let d' = if ph = "B" then d + 1 else d - 1 in
        if d' >= 0 then begin
          Hashtbl.replace depth tid d';
          obj
            [ ("name", str name); ("ph", str ph); ("pid", "1"); ("tid", tid);
              ("ts", ts e.ev_at); ("cat", str cat) ]
        end
      in
      let flow ph name extra =
        obj
          ([ ("name", str name); ("ph", str ph) ]
          @ extra
          @ [ ("id", string_of_int e.ev_arg); ("pid", "1"); ("tid", tid);
              ("ts", ts e.ev_at); ("cat", str "msg") ])
      in
      let c = e.ev_code in
      if c = Ring.code_chunk_begin then span "B" e.ev_name "chunk"
      else if c = Ring.code_chunk_end then span "E" e.ev_name "chunk"
      else if c = Ring.code_req_begin then
        span "B" ("req:" ^ e.ev_name) "request"
      else if c = Ring.code_req_end then
        span "E" ("req:" ^ e.ev_name) "request"
      else if c = Ring.code_msg_send then flow "s" ("msg:" ^ e.ev_name) []
      else if c = Ring.code_msg_recv then
        flow "f"
          (match Hashtbl.find_opt flow_name e.ev_arg with
          | Some n -> "msg:" ^ n
          | None -> "msg")
          [ ("bp", str "e") ]
      else
        match List.assoc_opt c instants with
        | Some (cat, name) ->
          obj
            [ ("name", str name); ("ph", str "i"); ("s", str "t");
              ("pid", "1"); ("tid", tid); ("ts", ts e.ev_at);
              ("cat", str cat) ]
        | None -> ())
    evs;
  Buffer.add_string b "\n],\n\"displayTimeUnit\": \"ns\"\n}\n"

let of_trace (tr : Ring.Trace.t) =
  let b = Buffer.create 65536 in
  emit_to_buffer ~track_name:(Ring.Trace.track_name tr) (Ring.Trace.events tr)
    b;
  Buffer.contents b

let write (tr : Ring.Trace.t) path =
  let oc = open_out path in
  output_string oc (of_trace tr);
  close_out oc
