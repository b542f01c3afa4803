(* Partitioned interpreter: executes a Plan over the SGX simulator with the
   runtime architecture of §7.3 — per application thread, one worker per
   partition color; spawn messages start missing chunks; cont messages carry
   F values (relaxed mode) and return values; everything runs in virtual
   time on the deterministic scheduler.

   Mapping to the paper's runtime:
   - a *direct call* (common color, §7.3.2) is an inline execution in the
     same worker — no crossing cost, like the paper's direct chunk call;
   - a *spawn message* starts a fiber on the target worker at
     [sender clock + crossing cost];
   - F arguments needed by spawned chunks and returned F values travel in
     cont messages, each costing one crossing (the paper's trampolines);
   - synchronization barriers (§7.3.3) are charged one crossing when the
     instance spans several partitions.

   The crossing cost is a parameter: the lock-free queue of the Privagic
   runtime by default, or the lock-based switchless call of the Intel SDK
   for the Intel-sdk baselines of Figs. 9-10. *)

open Privagic_pir
open Privagic_secure
open Privagic_partition
module Sgx = Privagic_sgx
module Sched = Privagic_runtime.Sched
module Vclock = Privagic_runtime.Vclock
module Ring = Privagic_obs.Ring

exception Error of string

type payload =
  | Cont of { seq : int; tag : tag; value : Rvalue.t }

and tag = Retval | Token

type mail = { sent_at : float; flow : int; payload : payload }

type worker = {
  w_thread : int;
  w_color : Color.t;
  w_track : int;                  (* trace track of this worker *)
  mutable w_mail : mail list;
}

(* One executing instance of a function in one worker.

   Host-order vs virtual-order: fibers share the simulated heap, so the
   order in which the host actually runs them must respect the memory
   dependencies between chunks. The type system confines cross-chunk flows
   to unsafe memory written by ignore-helpers (declassification,
   enclave -> U); we therefore run spawned enclave fibers to completion
   *before* the untrusted chunk's body whenever the spawner is untrusted,
   while virtual clocks still overlap (the spawner does not advance its
   clock while host-waiting — only the final response time takes the
   max of all participants, which is when the paper's runtime would have
   delivered it). Programs whose enclave chunks consume S data stored by
   the U chunk of the *same* activation are outside this model (documented
   in DESIGN.md). *)
type activation = {
  act_seq : int;                     (* shared across participants *)
  act_key : Infer.instance_key;
  act_pf : Plan.pfunc;
  act_participants : Color.t list;   (* P: colors executing this instance *)
  mutable act_pending : int;         (* spawned fibers still running *)
  mutable act_done_max : float;      (* latest completion among spawned *)
  mutable act_done_flow : int;       (* trace flow of that completion *)
  mutable act_colors_done : Color.t list; (* spawned chunks completed *)
}

type fiber_ctx = {
  worker : worker;
  mutable act : activation;
  clock : Vclock.t;
}

type t = {
  plan : Plan.t;
  exec : Exec.t;
  disp : Dispatch.t;                           (* shared plan math *)
  sched : Sched.t;
  workers : (int * string, worker) Hashtbl.t;
  crossing : Sgx.Machine.t -> float;           (* cost of one boundary msg *)
  mutable current : fiber_ctx option;
  thread_clock : (int, Vclock.t) Hashtbl.t;
  mutable next_thread : int;
  mutable traps : string list;
  mutable guard : bool;  (* §8 extension: valid-spawn-sequence guard *)
  mutable tel : Ring.t option;  (* the VM's cycle ring (off by default) *)
}

let cpu_of_color = Dispatch.cpu_of_color

let worker t thread color =
  let key = (thread, Color.to_string color) in
  match Hashtbl.find_opt t.workers key with
  | Some w -> w
  | None ->
    let track =
      match t.tel with
      | Some r ->
        Ring.fresh_track r
          (Printf.sprintf "t%d/%s" thread (Color.to_string color))
      | None -> 0
    in
    let w = { w_thread = thread; w_color = color; w_track = track;
              w_mail = [] } in
    Hashtbl.replace t.workers key w;
    w

let thread_clock t thread =
  match Hashtbl.find_opt t.thread_clock thread with
  | Some r -> r
  | None ->
    let r = Vclock.make 0.0 in
    Hashtbl.replace t.thread_clock thread r;
    r

let restore t (ctx : fiber_ctx) =
  t.current <- Some ctx;
  t.exec.Exec.clock <- ctx.clock;
  t.exec.Exec.cpu <- cpu_of_color ctx.worker.w_color;
  (* keep the machine's events on the right worker track *)
  match t.tel with Some r -> Ring.set_track r ctx.worker.w_track | None -> ()

let ctx_exn t =
  match t.current with
  | Some c -> c
  | None -> raise (Error "no current fiber")

let record t code ~track ~name ~arg at =
  match t.tel with
  | Some r ->
    Ring.record_cycles r ~code ~track ~name:(Ring.intern r name) ~arg at
  | None -> ()

let fresh_flow t = match t.tel with Some r -> Ring.fresh_flow r | None -> -1

(* ------------------------------------------------------------------ *)
(* messaging *)

let send_cont t (ctx : fiber_ctx) (target : worker) ~seq ~tag ~value =
  let cost = t.crossing t.exec.Exec.machine in
  Vclock.add ctx.clock (cost);
  let tag_name = match tag with Retval -> "retval" | Token -> "token" in
  let flow = fresh_flow t in
  record t Ring.code_msg_send ~track:ctx.worker.w_track ~name:tag_name
    ~arg:flow (Vclock.get ctx.clock);
  target.w_mail <-
    target.w_mail
    @ [ { sent_at = (Vclock.get ctx.clock); flow; payload = Cont { seq; tag; value } } ]

let wait_cont t (ctx : fiber_ctx) ~seq ~tag : Rvalue.t =
  let w = ctx.worker in
  let matches m =
    match m.payload with
    | Cont c -> c.seq = seq && c.tag = tag
  in
  let pred () = List.exists matches w.w_mail in
  let arrival () =
    match List.find_opt matches w.w_mail with
    | Some m -> m.sent_at
    | None -> (Vclock.get ctx.clock)
  in
  Sched.block pred arrival;
  restore t ctx;
  let msg =
    match List.find_opt matches w.w_mail with
    | Some m -> m
    | None -> raise (Error "wait_cont: message vanished")
  in
  w.w_mail <- List.filter (fun m -> not (m == msg)) w.w_mail;
  Vclock.set ctx.clock (Float.max (Vclock.get ctx.clock) msg.sent_at);
  if msg.flow >= 0 then
    record t Ring.code_msg_recv ~track:w.w_track ~name:"" ~arg:msg.flow
      (Vclock.get ctx.clock);
  match msg.payload with Cont c -> c.value

(* ------------------------------------------------------------------ *)
(* plan helpers *)

let pfunc_exn t key =
  match Dispatch.find_pfunc t.disp key with
  | Some pf -> pf
  | None ->
    raise (Error ("no partitioned function for " ^ Infer.instance_name key))

(* The chunk a participant of color [c] executes for [pf]. *)
let chunk_for (pf : Plan.pfunc) (c : Color.t) : Func.t =
  match Dispatch.chunk_for pf c with
  | Some f -> f
  | None ->
    raise
      (Error
         (Printf.sprintf "no %s chunk in %s" (Color.to_string c)
            (Infer.instance_name pf.Plan.pf_key)))

let site_presence t pf id = Dispatch.site_presence t.disp pf id
let chunk_needs t f r = Dispatch.chunk_needs t.disp f r
let fresh_seq t = Dispatch.fresh_seq t.disp

let child_seq t (ctx : fiber_ctx) (fname : string) (instr : int) : int =
  Dispatch.child_seq t.disp ~seq:ctx.act.act_seq ~who:ctx.worker.w_color
    ~fname ~instr

(* ------------------------------------------------------------------ *)
(* chunk execution *)

let rec exec_chunk t (ctx : fiber_ctx) (act : activation) (c : Color.t)
    (args : Rvalue.t array) : Rvalue.t =
  let saved = ctx.act in
  ctx.act <- act;
  let f = chunk_for act.act_pf c in
  let track = ctx.worker.w_track in
  record t Ring.code_chunk_begin ~track ~name:f.Func.name ~arg:0
    (Vclock.get ctx.clock);
  let r = Exec.exec_func t.exec f args in
  record t Ring.code_chunk_end ~track ~name:f.Func.name ~arg:0
    (Vclock.get ctx.clock);
  ctx.act <- saved;
  r

(* Start a fiber executing chunk [c] of [act] on worker (thread, c).
   [siblings] is the full set of chunks spawned together for the same
   activation: fibers run in color order (host side) so that
   declassifications flow forward — a fiber also inherits the completion
   time of the stage before it, which models the cont/wait dependency
   chain of the paper's runtime between enclaves of one activation. *)
and spawn_chunk_fiber t ?(forged = false) ~thread (act : activation)
    (c : Color.t) ?(siblings = []) (args : Rvalue.t array) ~at
    ~(reply_to : (int * Color.t) list) =
  let w = worker t thread c in
  let chunk_name = (chunk_for act.act_pf c).Func.name in
  (* §8 extension: the valid-spawn-sequence guard. Every spawn — including
     injected ones — is validated against the plan's legitimate targets. *)
  if
    t.guard && forged
    && not (Plan.spawn_allowed t.plan c chunk_name)
  then raise (Error (Printf.sprintf "spawn guard: %s rejected in %s"
                       chunk_name (Color.to_string c)));
  let name =
    Printf.sprintf "t%d/%s:%s" thread (Color.to_string c)
      (Infer.instance_name act.act_key)
  in
  act.act_pending <- act.act_pending + 1;
  (* spawn message: sender is whatever worker is currently running (the
     spawner), receiver is the fresh fiber on [w] *)
  let spawn_flow = fresh_flow t in
  let from_track =
    match t.current with Some ctx -> ctx.worker.w_track | None -> w.w_track
  in
  record t Ring.code_msg_send ~track:from_track ~name:"spawn"
    ~arg:spawn_flow at;
  let earlier = List.filter (fun d -> Color.compare d c < 0) siblings in
  ignore
    (Sched.spawn t.sched ~name ~track:w.w_track ~at (fun clock ->
         let ctx = { worker = w; act; clock } in
         restore t ctx;
         if spawn_flow >= 0 then
           record t Ring.code_msg_recv ~track:w.w_track ~name:"spawn"
             ~arg:spawn_flow (Vclock.get clock);
         if earlier <> [] then begin
           Sched.block
             (fun () ->
               List.for_all
                 (fun d -> List.exists (Color.equal d) act.act_colors_done)
                 earlier)
             (fun () -> Float.max (Vclock.get clock) act.act_done_max);
           restore t ctx;
           let waited = (Vclock.get clock) < act.act_done_max in
           Vclock.set clock (Float.max (Vclock.get clock) act.act_done_max);
           if waited && act.act_done_flow >= 0 then
             record t Ring.code_msg_recv ~track:w.w_track ~name:"done"
               ~arg:act.act_done_flow (Vclock.get clock)
         end;
         (match exec_chunk t ctx act c args with
         | r ->
           List.iter
             (fun (th, color) ->
               send_cont t ctx (worker t th color) ~seq:act.act_seq ~tag:Retval
                 ~value:r)
             reply_to;
           let tc = thread_clock t thread in
           Vclock.set tc (Float.max (Vclock.get tc) (Vclock.get clock))
         | exception Exec.Trap msg ->
           t.traps <- (name ^ ": " ^ msg) :: t.traps);
         (* completion signal back to the spawner (one crossing) *)
         Vclock.add ctx.clock (t.crossing t.exec.Exec.machine);
         act.act_pending <- act.act_pending - 1;
         if Vclock.get ctx.clock >= act.act_done_max && Option.is_some t.tel
         then begin
           let f = fresh_flow t in
           record t Ring.code_msg_send ~track:w.w_track ~name:"done" ~arg:f
             (Vclock.get ctx.clock);
           act.act_done_flow <- f
         end;
         act.act_done_max <- Float.max act.act_done_max (Vclock.get ctx.clock);
         act.act_colors_done <- c :: act.act_colors_done))

(* Host-side wait for every spawned fiber of [act] to finish. An enclave
   waiter is data-dependent on the spawned stage (the paper's cont/wait),
   so its clock advances to the stage's completion; the untrusted
   interface overlaps instead (Fig. 7) — its response time takes the max
   at the end of the request. *)
and host_wait_spawned ?(bump = true) t (ctx : fiber_ctx) (act : activation) =
  if act.act_pending > 0 then begin
    Sched.block (fun () -> act.act_pending = 0) (fun () -> (Vclock.get ctx.clock));
    restore t ctx;
    if bump && Color.is_enclave ctx.worker.w_color then begin
      let waited = (Vclock.get ctx.clock) < act.act_done_max in
      Vclock.set ctx.clock (Float.max (Vclock.get ctx.clock) act.act_done_max);
      if waited && act.act_done_flow >= 0 then
        record t Ring.code_msg_recv ~track:ctx.worker.w_track ~name:"done"
          ~arg:act.act_done_flow (Vclock.get ctx.clock)
    end
  end

(* ------------------------------------------------------------------ *)
(* call dispatch *)

and dispatch_call t (i : Instr.t) callee (args : Rvalue.t array) : Rvalue.t =
  let ctx = ctx_exn t in
  match Hashtbl.find_opt ctx.act.act_pf.Plan.pf_calls i.Instr.id with
  | Some cp -> dispatch_local_call t ctx i cp args
  | None ->
    if Pmodule.is_defined t.exec.Exec.m callee then
      (* a defined function without a plan entry: a within-style direct
         execution in the current worker (single-participant call) *)
      raise
        (Error
           (Printf.sprintf "call to @%s at instr %d has no plan in %s" callee
              i.Instr.id
              (Infer.instance_name ctx.act.act_key)))
    else dispatch_extern t ctx i callee args

and dispatch_extern t (ctx : fiber_ctx) (i : Instr.t) callee args =
  Dispatch.dispatch_extern t.disp t.exec ~color:ctx.worker.w_color
    ~caller:ctx.act.act_key.Infer.ik_func i callee args

and dispatch_local_call t (ctx : fiber_ctx) (i : Instr.t) (cp : Plan.call_plan)
    (args : Rvalue.t array) : Rvalue.t =
  let c = ctx.worker.w_color in
  let thread = ctx.worker.w_thread in
  let callee_pf = pfunc_exn t cp.Plan.cp_key in
  let callee_cs = callee_pf.Plan.pf_colorset in
  let p_site =
    if ctx.act.act_pf.Plan.pf_colorset = [] then ctx.act.act_participants
    else site_presence t ctx.act.act_pf i.Instr.id
  in
  (* the site is identified by the *instance*, shared by all participants *)
  let seq = child_seq t ctx (Infer.instance_name ctx.act.act_key) i.Instr.id in
  let child_act =
    {
      act_seq = seq;
      act_key = cp.Plan.cp_key;
      act_pf = callee_pf;
      act_participants = (if callee_cs = [] then p_site else callee_cs);
      act_pending = 0;
      act_done_max = 0.0;
      act_done_flow = -1;
      act_colors_done = [];
    }
  in
  let in_callee d = List.mem d callee_cs in
  let { Dispatch.s_leader = leader; s_inter = inter; s_spawned = spawned;
        s_ret_sender = ret_sender } =
    Dispatch.site_layout ~p_site ~callee_cs ~self:c
  in
  (* which participants need the return value via message *)
  let needers =
    Dispatch.ret_needers t.disp ~caller_pf:ctx.act.act_pf ~p_site ~callee_cs i
  in
  (* the leader starts the missing chunks *)
  if Color.equal c leader && spawned <> [] then begin
    let f_reg_args = Dispatch.f_reg_args cp i in
    List.iter
      (fun d ->
        let reply_to =
          if inter = [] && Some d = ret_sender then
            List.map (fun n -> (thread, n)) needers
          else []
        in
        (* one spawn message, plus one cont per computed F argument *)
        let cost = t.crossing t.exec.Exec.machine in
        Vclock.add ctx.clock (cost);
        for _ = 1 to f_reg_args do
          Vclock.add ctx.clock (t.crossing t.exec.Exec.machine)
        done;
        spawn_chunk_fiber t ~thread child_act d ~siblings:spawned args ~at:(Vclock.get ctx.clock) ~reply_to)
      spawned;
    (* host ordering: an untrusted leader lets the enclave fibers run to
       completion before executing its own chunk, so that declassified
       values written to unsafe memory are visible to it *)
    if not (Color.is_enclave c) then host_wait_spawned t ctx child_act
  end;
  let result =
    if callee_cs = [] then
      (* pure-F callee: replicated, executes inline everywhere *)
      exec_chunk t ctx child_act c args
    else if in_callee c then begin
      (* direct call (§7.3.2): inline execution in this worker *)
      let r = exec_chunk t ctx child_act c args in
      restore t ctx;
      (if Some c = ret_sender && inter <> [] then
         List.iter
           (fun d ->
             send_cont t ctx (worker t thread d) ~seq ~tag:Retval ~value:r)
           needers);
      r
    end
    else if List.mem c needers then wait_cont t ctx ~seq ~tag:Retval
    else Rvalue.zero
  in
  (* an enclave leader waits after its own (direct) work *)
  if Color.equal c leader && Color.is_enclave c then
    host_wait_spawned t ctx child_act;
  result

(* Indirect call to a defined function (§6.3, §7.3.4): the interface-style
   entry executes in the current (untrusted) worker, which starts the
   missing chunks itself — the call site lives in a single chunk because an
   indirect call instruction is U-colored. *)
and dispatch_indirect_local t (ctx : fiber_ctx) (i : Instr.t) name
    (args : Rvalue.t array) : Rvalue.t =
  let f = Pmodule.find_func_exn t.exec.Exec.m name in
  let key = Dispatch.indirect_entry_key t.plan f in
  let pf = pfunc_exn t key in
  let cs = pf.Plan.pf_colorset in
  let c = ctx.worker.w_color in
  let thread = ctx.worker.w_thread in
  let act =
    {
      act_seq = fresh_seq t;
      act_key = key;
      act_pf = pf;
      act_participants = (if cs = [] then [ c ] else cs);
      act_pending = 0;
      act_done_max = 0.0;
      act_done_flow = -1;
      act_colors_done = [];
    }
  in
  if cs = [] then exec_chunk t ctx act c args
  else begin
    let i_need =
      match Instr.defines i with
      | None -> false
      | Some id ->
        (not (List.mem c cs)) && chunk_needs t (chunk_for ctx.act.act_pf c) id
    in
    let first = match cs with d :: _ -> d | [] -> c in
    let spawned_cs = List.filter (fun d -> not (Color.equal d c)) cs in
    List.iter
      (fun d ->
        let reply_to =
          if i_need && Color.equal d first then [ (thread, c) ] else []
        in
        Vclock.add ctx.clock (t.crossing t.exec.Exec.machine);
        spawn_chunk_fiber t ~thread act d ~siblings:spawned_cs args
          ~at:(Vclock.get ctx.clock) ~reply_to)
      spawned_cs;
    if List.mem c cs then exec_chunk t ctx act c args
    else if i_need then wait_cont t ctx ~seq:act.act_seq ~tag:Retval
    else Rvalue.zero
  end

(* thread creation: start every chunk of the target instance on the workers
   of a fresh application thread *)
and dispatch_spawn t (i : Instr.t) callee (args : Rvalue.t array) =
  let ctx = ctx_exn t in
  ignore callee;
  match Infer.call_site t.plan.Plan.infer ctx.act.act_key i.Instr.id with
  | None -> raise (Error "spawn site without plan")
  | Some key ->
    Exec.charge t.exec (Sgx.Machine.thread_spawn_cost t.exec.Exec.machine);
    let thread = t.next_thread in
    t.next_thread <- thread + 1;
    let pf = pfunc_exn t key in
    let cs = if pf.Plan.pf_colorset = [] then [ Color.Free ] else pf.Plan.pf_colorset in
    let act =
      {
        act_seq = fresh_seq t;
        act_key = key;
        act_pf = pf;
        act_participants = cs;
        act_pending = 0;
        act_done_max = 0.0;
      act_done_flow = -1;
      act_colors_done = [];
      }
    in
    List.iter
      (fun d ->
        Vclock.add ctx.clock (t.crossing t.exec.Exec.machine);
        spawn_chunk_fiber t ~thread act d ~siblings:cs args ~at:(Vclock.get ctx.clock) ~reply_to:[])
      cs

(* ------------------------------------------------------------------ *)

let make_hooks t : Exec.hooks =
  {
    Exec.h_call = (fun _ i callee args -> dispatch_call t i callee args);
    h_callind =
      (fun ex i fv args ->
        let name = Exec.resolve_func ex fv in
        if Pmodule.is_defined ex.Exec.m name then
          dispatch_indirect_local t (ctx_exn t) i name args
        else dispatch_extern t (ctx_exn t) i name args);
    h_spawn = (fun _ i callee args -> dispatch_spawn t i callee args);
    h_pre_instr =
      (fun ex i ->
        (* §7.3.3: a visible effect in a multi-partition instance costs a
           synchronization barrier (one cont/wait round) *)
        match t.current with
        | Some ctx
          when Dispatch.barrier_at ctx.act.act_pf i.Instr.id
                 ~participants:ctx.act.act_participants ->
          Exec.charge ex (t.crossing ex.Exec.machine);
          record t Ring.code_barrier ~track:ctx.worker.w_track
            ~name:(Color.to_string ctx.worker.w_color) ~arg:0
            (Vclock.get ctx.clock)
        | _ -> ());
    h_alloca_zone =
      (fun _ ty ->
        let current =
          match t.current with
          | Some ctx -> ctx.worker.w_color
          | None -> Color.Unsafe
        in
        Dispatch.alloca_zone ty ~current);
  }

let dummy_hooks : Exec.hooks =
  {
    Exec.h_call = (fun _ _ _ _ -> Rvalue.zero);
    h_callind = (fun _ _ _ _ -> Rvalue.zero);
    h_spawn = (fun _ _ _ _ -> ());
    h_pre_instr = (fun _ _ -> ());
    h_alloca_zone = (fun _ _ -> Heap.Unsafe);
  }

let create ?(config = Sgx.Config.machine_b) ?cost
    ?(crossing = Sgx.Machine.queue_msg_cost) ?engine (plan : Plan.t) : t =
  let engine =
    match engine with Some e -> e | None -> Exec.default_engine ()
  in
  let m = plan.Plan.pmodule in
  let machine = Sgx.Machine.create ?cost config in
  let heap = Heap.create () in
  let layout =
    Layout.create ~auth_pointers:plan.Plan.auth_pointers m plan.Plan.mode
  in
  let sites = Exec.alloc_sites m in
  let ex = Exec.create m heap layout machine dummy_hooks in
  let t =
    {
      plan;
      exec = ex;
      disp = Dispatch.create ~sites plan;
      sched = Sched.create ();
      workers = Hashtbl.create 16;
      crossing;
      current = None;
      thread_clock = Hashtbl.create 8;
      next_thread = 1;
      traps = [];
      guard = true;
      tel = None;
    }
  in
  ex.Exec.hooks <- make_hooks t;
  (* globals placed per §7.1 *)
  Exec.init_globals t.exec (Dispatch.global_zone plan);
  (match engine with
  | Exec.Image -> Image.install ex (Image.build ~plan ~sites ex)
  | Exec.Walk -> ());
  t

(* Record into one fresh cycle ring of [tr] from every layer: the
   scheduler records fiber lifecycle events, the machine records
   transition/fault events stamped by the running worker's clock. *)
let set_telemetry t tr =
  let ring = Option.map Privagic_obs.Trace.vm_ring tr in
  t.tel <- ring;
  Sched.set_telemetry t.sched ring;
  Sgx.Machine.set_telemetry t.exec.Exec.machine
    (Option.map (fun r -> (r, fun () -> Vclock.get t.exec.Exec.clock)) ring)

(* ------------------------------------------------------------------ *)
(* entry points *)

type entry_result = {
  value : Rvalue.t;
  latency_cycles : float;            (* request latency, virtual cycles *)
  completed_at : float;
}

let call_entry t ?(thread = 0) ?max_steps name (args : Rvalue.t list) :
    entry_result =
  let ep =
    match
      List.find_opt (fun (e : Plan.entry_plan) -> String.equal e.ep_name name)
        t.plan.Plan.entries
    with
    | Some e -> e
    | None -> raise (Error ("not an entry point: " ^ name))
  in
  let pf = pfunc_exn t ep.Plan.ep_key in
  let cs = pf.Plan.pf_colorset in
  Heap.reset_stacks t.exec.Exec.heap;
  let now = (Vclock.get (thread_clock t thread)) in
  let argv = Array.of_list args in
  let act =
    {
      act_seq = fresh_seq t;
      act_key = ep.Plan.ep_key;
      act_pf = pf;
      act_participants = (if cs = [] then [ Color.Free ] else cs);
      act_pending = 0;
      act_done_max = 0.0;
      act_done_flow = -1;
      act_colors_done = [];
    }
  in
  let slot = ref None in
  let uw = worker t thread Color.Unsafe in
  let direct =
    if List.mem Color.Unsafe cs then Some Color.Unsafe
    else if cs = [] then Some Color.Free
    else None
  in
  (* interface fiber on the U worker (§7.3.4) *)
  let name_ = Printf.sprintf "t%d/interface:%s" thread name in
  ignore
    (* parent = its own track: a request is serialized after earlier
       requests on the same application thread (the thread clock) *)
    (Sched.spawn t.sched ~name:name_ ~track:uw.w_track ~parent:uw.w_track
       ~at:now (fun clock ->
         let ctx = { worker = uw; act; clock } in
         restore t ctx;
         (* start the missing chunks *)
         let spawned_cs =
           List.filter
             (fun d ->
               match direct with
               | Some dc -> not (Color.equal d dc)
               | None -> true)
             act.act_participants
         in
         List.iter
           (fun d ->
             let reply_to =
               if direct = None && Some d = (match cs with x :: _ -> Some x | [] -> None)
               then [ (thread, Color.Unsafe) ]
               else []
             in
             Vclock.add ctx.clock (t.crossing t.exec.Exec.machine);
             spawn_chunk_fiber t ~thread act d ~siblings:spawned_cs argv
               ~at:(Vclock.get ctx.clock) ~reply_to)
           spawned_cs;
         (* enclave chunks complete (host order) before the U chunk body *)
         host_wait_spawned t ctx act;
         let r =
           match direct with
           | Some dc -> exec_chunk t ctx act dc argv
           | None -> wait_cont t ctx ~seq:act.act_seq ~tag:Retval
         in
         (* the response leaves once every participant is done; when an
            enclave finished last, its completion signal gates the
            response — a binding happens-before edge *)
         let finish = Float.max (Vclock.get ctx.clock) act.act_done_max in
         if act.act_done_max > Vclock.get ctx.clock && act.act_done_flow >= 0
         then
           record t Ring.code_msg_recv ~track:uw.w_track ~name:"done"
             ~arg:act.act_done_flow finish;
         slot := Some (r, finish);
         let tc = thread_clock t thread in
         Vclock.set tc (Float.max (Vclock.get tc) finish)));
  let outcome = Sched.run ?max_steps t.sched in
  (match t.traps with
  | [] -> ()
  | msgs ->
    t.traps <- [];
    raise (Error (String.concat "; " msgs)));
  match !slot with
  | Some (value, completed_at) ->
    { value; latency_cycles = completed_at -. now; completed_at }
  | None -> (
    match outcome with
    | Sched.Budget_exhausted n ->
      raise
        (Error
           (Printf.sprintf "entry %s: step budget exhausted after %d steps"
              name n))
    | Sched.Completed | Sched.Blocked_workers _ ->
      raise (Error ("entry " ^ name ^ " did not complete")))

let output t = Buffer.contents t.exec.Exec.out
let machine t = t.exec.Exec.machine

(* ------------------------------------------------------------------ *)
(* §8 extension: attack surface.

   [inject_spawn] models an attacker who writes a forged spawn message
   into a worker's queue. With the valid-spawn-sequence guard on (the
   default), the runtime rejects any chunk the plan never spawns into that
   partition; with the guard off, the forged chunk executes — the attack
   the paper leaves open. *)

let inject_spawn t ?(thread = 0) ~(color : Color.t) ~(chunk : string)
    (args : Rvalue.t list) : (unit, string) result =
  (* resolve the chunk name to an instance *)
  match Dispatch.locate_chunk t.plan chunk with
  | None -> Result.Error ("no such chunk: " ^ chunk)
  | Some (key, pf, cc) ->
    if not (Color.equal cc color) then
      Result.Error
        (Printf.sprintf "chunk %s belongs to partition %s" chunk
           (Color.to_string cc))
    else begin
      let act =
        {
          act_seq = fresh_seq t;
          act_key = key;
          act_pf = pf;
          act_participants = [ color ];
          act_pending = 0;
          act_done_max = 0.0;
          act_done_flow = -1;
          act_colors_done = [];
        }
      in
      let now = (Vclock.get (thread_clock t thread)) in
      match
        spawn_chunk_fiber t ~forged:true ~thread act color
          (Array.of_list args) ~at:now ~reply_to:[]
      with
      | () ->
        ignore (Sched.run t.sched : Sched.outcome);
        (match t.traps with
        | [] -> Result.Ok ()
        | msgs ->
          t.traps <- [];
          Result.Error (String.concat "; " msgs))
      | exception Error msg -> Result.Error msg
    end

(* Enable/disable the spawn guard (for the attack demonstrations). *)
let set_spawn_guard t enabled = t.guard <- enabled

(* ------------------------------------------------------------------ *)
(* the message/chunk schedule of a trace, in virtual time — the
   runtime's own Figure 7 *)

let pp_schedule fmt tr =
  let module Tr = Privagic_obs.Trace in
  let evs = Array.to_list (Tr.events tr) in
  let name = Tr.track_name tr in
  let recv_track = Hashtbl.create 16 in
  List.iter
    (fun (e : Ring.event) ->
      if e.ev_code = Ring.code_msg_recv then
        Hashtbl.replace recv_track e.ev_arg e.ev_track)
    evs;
  Format.fprintf fmt "%10s  %s@." "cycles" "event";
  List.iter
    (fun (e : Ring.event) ->
      let line what detail =
        Format.fprintf fmt "%10.0f  %-7s %-8s %s@." e.ev_at what
          (name e.ev_track) detail
      in
      let c = e.ev_code in
      if c = Ring.code_msg_send then
        line "send"
          (match Hashtbl.find_opt recv_track e.ev_arg with
          | Some k -> e.ev_name ^ " -> " ^ name k
          | None -> e.ev_name)
      else if c = Ring.code_chunk_begin then line "start" e.ev_name
      else if c = Ring.code_chunk_end then line "end" e.ev_name
      else if c = Ring.code_barrier then line "barrier" "(visible effect)")
    (List.stable_sort
       (fun (a : Ring.event) b -> Float.compare a.ev_at b.ev_at)
       evs)
