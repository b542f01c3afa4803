(* Real-parallel execution backend: runs a partition plan on OCaml 5
   domains with the lock-free Michael–Scott queue as the inter-partition
   channel — the runtime architecture of §7.3 on actual hardware threads,
   where Pinterp executes the same architecture in virtual time.

   Topology. Application threads are mapped onto a bounded set of lanes
   (real runtimes bound their thread pools; OCaml additionally caps the
   number of domains). Each (lane, color) pair owns one worker: a domain
   spinning on its own message queue. Spawn messages start missing chunks
   on the worker of their partition, cont messages carry return values,
   entry messages carry whole requests into the untrusted worker (§7.3.4).

   Host-order discipline (shared with the simulator, DESIGN.md §8.2/§8.7):
   chunks of one activation are serialized — spawned siblings run in color
   order, an untrusted leader runs its body after the spawned enclave
   stage, an enclave leader before it — so declassified values written to
   unsafe memory flow forward exactly as in the simulator. Real
   parallelism happens across application threads (the §7.3 [spawn]
   instruction) and across concurrent entry calls.

   The one rule that keeps this deadlock-free: a worker that has to wait —
   for a return value, for the spawned stage, for a sibling, at a barrier
   — never blocks the domain. It *pumps* its own queue (executing nested
   spawns, stashing conts) until the condition holds. The simulator gets
   the same effect from fiber multiplexing; a parked domain would instead
   deadlock as soon as a nested spawn targeted it.

   Shutdown closes every queue (see msqueue.mli for the drain protocol)
   and joins the domains. *)

open Privagic_pir
open Privagic_secure
open Privagic_partition
open Privagic_vm
module Sgx = Privagic_sgx
module Msq = Privagic_runtime.Msqueue
module Obs = Privagic_obs

exception Error of string

(* One executing instance of a function. Participants at a call site each
   build their own record (with the deterministically agreed sequence
   number, see Dispatch.child_seq); only the leader's record travels in
   spawn messages, so the leader and its spawned chunks share the pending
   count and completion set. *)
type activation = {
  act_seq : int;
  act_key : Infer.instance_key;
  act_pf : Plan.pfunc;
  act_participants : Color.t list;
  act_spawned : Color.t list;      (* colors started via spawn messages *)
  act_pending : int Atomic.t;      (* spawned chunks still running *)
  act_done : Color.t list Atomic.t; (* spawned chunks completed *)
}

(* an entry's response, filled once by the untrusted worker and polled
   by [call_entry] *)
type slot = {
  s_mu : Mutex.t;
  mutable s_result : (Rvalue.t, string) result option;
}

type msg =
  | Spawn of {
      sp_act : activation;
      sp_args : Rvalue.t array;
      sp_reply_to : (int * Color.t) list; (* (thread, color) for the retval *)
      sp_forged : bool;                   (* attacker-injected (§8) *)
    }
  | Cont of { c_seq : int; c_value : Rvalue.t }
  | Entry of {
      e_act : activation;
      e_args : Rvalue.t array;
      e_direct : Color.t option; (* chunk the untrusted worker runs itself *)
      e_slot : slot;
    }

type worker = {
  w_lane : int;
  w_color : Color.t;
  w_queue : msg Msq.t;
  w_exec : Exec.t;                 (* per-domain executor, shared tables *)
  mutable w_mail : (int * Rvalue.t) list; (* conts, own domain only *)
  mutable w_act : activation option;
  w_occ : (int * int, int ref) Hashtbl.t; (* barrier occurrence counters *)
  mutable w_domain : unit Domain.t option;
  w_obs : Obs.Lane.t option;
      (* phase accounting + event ring; None = obs off and untraced *)
}

type t = {
  plan : Plan.t;
  disp : Dispatch.t;
  base : Exec.t;                   (* template: shared heap/tables *)
  config : Sgx.Config.t;
  cost : Sgx.Cost.t option;
  lanes : int;
  workers : (int * string, worker) Hashtbl.t;
  wmu : Mutex.t;                   (* workers table + domain creation *)
  inflight : int Atomic.t;         (* chunks/entries created, not done *)
  next_thread : int Atomic.t;
  mutable guard : bool;            (* §8 valid-spawn-sequence guard *)
  tr_mu : Mutex.t;
  mutable traps : string list;
  bar_mu : Mutex.t;                (* barrier arrival/completion tables *)
  bar_arrived : (int * int * int * string, unit) Hashtbl.t;
  bar_done : (int * string, unit) Hashtbl.t;
  mutable trace : Obs.Trace.t option; (* lane rings join it when set *)
  mutable domains : int;
  entries_served : int Atomic.t;   (* completed call_entry requests *)
}

let dummy_hooks : Exec.hooks =
  {
    Exec.h_call = (fun _ _ _ _ -> Rvalue.zero);
    h_callind = (fun _ _ _ _ -> Rvalue.zero);
    h_spawn = (fun _ _ _ _ -> ());
    h_pre_instr = (fun _ _ -> ());
    h_alloca_zone = (fun _ _ -> Heap.Unsafe);
  }

let add_trap t msg =
  Mutex.lock t.tr_mu;
  t.traps <- msg :: t.traps;
  Mutex.unlock t.tr_mu

let take_traps t =
  Mutex.lock t.tr_mu;
  let msgs = t.traps in
  t.traps <- [];
  Mutex.unlock t.tr_mu;
  List.rev msgs

let fill_slot (slot : slot) r =
  Mutex.lock slot.s_mu;
  slot.s_result <- Some r;
  Mutex.unlock slot.s_mu

(* Hybrid idle backoff: spin briefly (a message usually follows within the
   latency of one chunk), then yield the core. A park on
   Privagic_runtime.Wake was measured in place of the nap and left out:
   on a 2-vCPU host the handoff chain then runs CPU-bound with more
   domains than cores, and its serving throughput spread 12-20% from run
   to run against about 6% with the nap (ROADMAP, parallel park item). *)
let spin_budget = 1000

let idle_wait counter =
  incr counter;
  (* bound: the 100 us nap is this backend's deliberate idle floor *)
  if !counter < spin_budget then Domain.cpu_relax () else Unix.sleepf 0.0001

(* Obs phase hooks. Transitions only happen at backoff boundaries and
   message/chunk edges, never inside the spin loop, so the obs-on cost is
   a few clock reads per message — see BENCH_obs.json for the measured
   budget. With obs off ([w_obs = None]) each hook is a match on None. *)
let[@inline] obs_enter w p =
  match w.w_obs with
  | None -> ()
  | Some l -> Obs.Lane.enter l p ~now_us:(Obs.now_us ())

let[@inline] obs_current w =
  match w.w_obs with None -> -1 | Some l -> Obs.Lane.current l

let[@inline] obs_enter_index w p =
  match w.w_obs with
  | None -> ()
  | Some l -> Obs.Lane.enter_index l p ~now_us:(Obs.now_us ())

(* One event on the worker's own lane ring: its domain is the single
   writer. Chunk begins (arg = activation seq) are always-on; the rest
   of the trace vocabulary, and the names, are recorded only while a
   trace is attached. *)
let lane_event t w code name arg =
  match w.w_obs with
  | Some l when code = Obs.Ring.code_chunk_begin || Option.is_some t.trace ->
    let r = Obs.Lane.ring l in
    let name = if Option.is_some t.trace then Obs.Ring.intern r name else 0 in
    Obs.Ring.record_name r ~code ~name ~arg ~t_us:(Obs.now_us ())
  | _ -> ()

let pfunc_exn t key =
  match Dispatch.find_pfunc t.disp key with
  | Some pf -> pf
  | None ->
    raise (Error ("no partitioned function for " ^ Infer.instance_name key))

let chunk_for_exn (pf : Plan.pfunc) (c : Color.t) : Func.t =
  match Dispatch.chunk_for pf c with
  | Some f -> f
  | None ->
    raise
      (Error
         (Printf.sprintf "no %s chunk in %s" (Color.to_string c)
            (Infer.instance_name pf.Plan.pf_key)))

let cur_act (w : worker) =
  match w.w_act with
  | Some a -> a
  | None -> raise (Error "no current activation")

(* ------------------------------------------------------------------ *)
(* the worker pool *)

let rec worker t thread color : worker =
  let lane = thread mod t.lanes in
  let key = (lane, Color.to_string color) in
  Mutex.lock t.wmu;
  match Hashtbl.find_opt t.workers key with
  | Some w ->
    Mutex.unlock t.wmu;
    w
  | None ->
    let machine = Sgx.Machine.create ?cost:t.cost t.config in
    let label = Printf.sprintf "d%d/%s" lane (Color.to_string color) in
    let lane_on ring = Some (Obs.Lane.create ~ring ~now_us:(Obs.now_us ())) in
    let w =
      {
        w_lane = lane;
        w_color = color;
        w_queue = Msq.create ();
        w_exec = Exec.clone_shared t.base ~machine ~hooks:dummy_hooks;
        w_mail = [];
        w_act = None;
        w_occ = Hashtbl.create 16;
        w_domain = None;
        w_obs =
          (match t.trace with
          | Some tr -> lane_on (Obs.Trace.ring tr label)
          | None when Obs.enabled () ->
            (* ring id = worker creation index: unique within the pool,
               which is the unit rings get merged over *)
            lane_on (Obs.Ring.create ~id:t.domains ~label ())
          | None -> None);
      }
    in
    w.w_exec.Exec.cpu <- Dispatch.cpu_of_color color;
    w.w_exec.Exec.hooks <- hooks_for t w;
    (match w.w_obs with
    | Some l -> w.w_exec.Exec.obs_ring <- Some (Obs.Lane.ring l)
    | None -> ());
    Hashtbl.replace t.workers key w;
    t.domains <- t.domains + 1;
    let d = Domain.spawn (fun () -> worker_loop t w) in
    w.w_domain <- Some d;
    Mutex.unlock t.wmu;
    w

and worker_loop t w =
  let idle = ref 0 in
  let stop = ref false in
  while not !stop do
    match Msq.pop w.w_queue with
    | Some m ->
      idle := 0;
      obs_enter w Obs.Phase.Run;
      handle t w m;
      obs_enter w Obs.Phase.Queue_wait
    | None ->
      if Msq.is_closed w.w_queue then begin
        (* drain protocol (msqueue.mli): exit only on a None pop observed
           after the close flag, so no pre-close message is lost *)
        match Msq.pop w.w_queue with
        | Some m ->
          idle := 0;
          obs_enter w Obs.Phase.Run;
          handle t w m;
          obs_enter w Obs.Phase.Queue_wait
        | None -> stop := true
      end
      else begin
        (* transitions only at the backoff boundaries: queue-wait on the
           first empty pop, park when the spin budget runs out *)
        if !idle = 0 then obs_enter w Obs.Phase.Queue_wait
        else if !idle = spin_budget - 1 then obs_enter w Obs.Phase.Park;
        idle_wait idle
      end
  done

and handle t w (m : msg) =
  match m with
  | Cont { c_seq; c_value } -> w.w_mail <- (c_seq, c_value) :: w.w_mail
  | Spawn _ -> exec_spawn t w m
  | Entry _ -> exec_entry t w m

(* A wait that keeps the domain useful: pump the worker's own queue until
   [pred] holds. Nested spawns execute here; without this, a spawn
   targeting a waiting worker would deadlock the pool (the simulator gets
   the same effect from fiber multiplexing). *)
and wait_until ?(phase = Obs.Phase.Pump_wait) t w pred =
  let saved = obs_current w in
  obs_enter w phase;
  let idle = ref 0 in
  while not (pred ()) do
    match Msq.pop w.w_queue with
    | Some m ->
      idle := 0;
      (* back from a possible park; nested chunks re-enter Run themselves *)
      obs_enter w phase;
      handle t w m
    | None ->
      if !idle = spin_budget - 1 then obs_enter w Obs.Phase.Park;
      idle_wait idle
  done;
  obs_enter_index w saved

and wait_pending t w (act : activation) =
  wait_until t w (fun () -> Atomic.get act.act_pending = 0)

and wait_cont t w ~seq : Rvalue.t =
  wait_until t w (fun () -> List.exists (fun (s, _) -> s = seq) w.w_mail);
  let rec take acc = function
    | [] -> raise (Error "wait_cont: message vanished")
    | (s, v) :: rest when s = seq -> (v, List.rev_append acc rest)
    | m :: rest -> take (m :: acc) rest
  in
  let v, rest = take [] w.w_mail in
  w.w_mail <- rest;
  lane_event t w Obs.Ring.code_msg_recv "retval" 0;
  v

and send_cont t (from : worker) ~thread ~color ~seq v =
  let target = worker t thread color in
  lane_event t from Obs.Ring.code_msg_send "retval" 0;
  Msq.push target.w_queue (Cont { c_seq = seq; c_value = v })

(* The in-flight count covers every created chunk/entry; [call_entry] and
   [inject_spawn] wait for it to drain, which also covers background
   application threads started with the §7.3 [spawn] instruction. *)
and send_spawn t (from : worker option) ~thread (act : activation)
    (d : Color.t) ~reply_to ~forged (args : Rvalue.t array) =
  Atomic.incr t.inflight;
  Atomic.incr act.act_pending;
  let target = worker t thread d in
  (match from with
  | Some fw -> lane_event t fw Obs.Ring.code_msg_send "spawn" 0
  | None -> ());
  Msq.push target.w_queue
    (Spawn { sp_act = act; sp_args = args; sp_reply_to = reply_to; sp_forged = forged })

and mark_done (act : activation) (c : Color.t) =
  (* completion set first, then the count: a waiter that observes
     pending = 0 (SC atomics) also observes the color in the set *)
  let rec push () =
    let cur = Atomic.get act.act_done in
    if not (Atomic.compare_and_set act.act_done cur (c :: cur)) then push ()
  in
  push ();
  Atomic.decr act.act_pending

and exec_spawn t w (s : msg) =
  match s with
  | Spawn { sp_act = act; sp_args; sp_reply_to; sp_forged } ->
    let chunk_name =
      match Dispatch.chunk_for act.act_pf w.w_color with
      | Some f -> f.Func.name
      | None -> "<missing>"
    in
    (* §8 extension: the valid-spawn-sequence guard, enforced where the
       runtime actually learns about the message — at dequeue, in the
       target partition, before anything executes *)
    if
      t.guard && sp_forged
      && not (Plan.spawn_allowed t.plan w.w_color chunk_name)
    then begin
      add_trap t
        (Printf.sprintf "spawn guard: %s rejected in %s" chunk_name
           (Color.to_string w.w_color));
      mark_done act w.w_color;
      Atomic.decr t.inflight
    end
    else begin
      lane_event t w Obs.Ring.code_msg_recv "spawn" 0;
      (* host order: spawned siblings of one activation serialize in color
         order, so declassifications flow forward deterministically *)
      let earlier =
        List.filter (fun d -> Color.compare d w.w_color < 0) act.act_spawned
      in
      if earlier <> [] then
        wait_until t w (fun () ->
            let done_ = Atomic.get act.act_done in
            List.for_all
              (fun d -> List.exists (Color.equal d) done_)
              earlier);
      (match run_chunk t w act sp_args with
      | r ->
        List.iter
          (fun (th, color) ->
            send_cont t w ~thread:th ~color ~seq:act.act_seq r)
          sp_reply_to
      | exception Exec.Trap msg -> add_trap t (chunk_name ^ ": " ^ msg)
      | exception Error msg -> add_trap t (chunk_name ^ ": " ^ msg));
      mark_done act w.w_color;
      Atomic.decr t.inflight
    end
  | _ -> ()

and run_chunk t w (act : activation) (args : Rvalue.t array) : Rvalue.t =
  let f = chunk_for_exn act.act_pf w.w_color in
  let saved = w.w_act in
  w.w_act <- Some act;
  let obs_saved = obs_current w in
  obs_enter w Obs.Phase.Run;
  lane_event t w Obs.Ring.code_chunk_begin f.Func.name act.act_seq;
  let finish () =
    w.w_act <- saved;
    obs_enter_index w obs_saved;
    (* completion record for barrier predecessor checks *)
    Mutex.lock t.bar_mu;
    Hashtbl.replace t.bar_done (act.act_seq, Color.to_string w.w_color) ();
    Mutex.unlock t.bar_mu
  in
  match Exec.exec_func w.w_exec f args with
  | r ->
    lane_event t w Obs.Ring.code_chunk_end f.Func.name act.act_seq;
    finish ();
    r
  | exception e ->
    finish ();
    raise e

(* ------------------------------------------------------------------ *)
(* call dispatch (the decisions come from Dispatch, shared with Pinterp) *)

and dispatch_call t w (i : Instr.t) callee (args : Rvalue.t array) : Rvalue.t =
  let act = cur_act w in
  match Hashtbl.find_opt act.act_pf.Plan.pf_calls i.Instr.id with
  | Some cp -> dispatch_local_call t w i cp args
  | None ->
    if Pmodule.is_defined t.base.Exec.m callee then
      raise
        (Error
           (Printf.sprintf "call to @%s at instr %d has no plan in %s" callee
              i.Instr.id
              (Infer.instance_name act.act_key)))
    else
      Dispatch.dispatch_extern t.disp w.w_exec ~color:w.w_color
        ~caller:act.act_key.Infer.ik_func i callee args

and dispatch_local_call t w (i : Instr.t) (cp : Plan.call_plan)
    (args : Rvalue.t array) : Rvalue.t =
  let c = w.w_color in
  let thread = w.w_lane in
  let act = cur_act w in
  let callee_pf = pfunc_exn t cp.Plan.cp_key in
  let callee_cs = callee_pf.Plan.pf_colorset in
  let p_site =
    if act.act_pf.Plan.pf_colorset = [] then act.act_participants
    else Dispatch.site_presence t.disp act.act_pf i.Instr.id
  in
  let seq =
    Dispatch.child_seq t.disp ~seq:act.act_seq ~who:c
      ~fname:(Infer.instance_name act.act_key) ~instr:i.Instr.id
  in
  let { Dispatch.s_leader = leader; s_inter = inter; s_spawned = spawned;
        s_ret_sender = ret_sender } =
    Dispatch.site_layout ~p_site ~callee_cs ~self:c
  in
  let child_act =
    {
      act_seq = seq;
      act_key = cp.Plan.cp_key;
      act_pf = callee_pf;
      act_participants = (if callee_cs = [] then p_site else callee_cs);
      act_spawned = spawned;
      act_pending = Atomic.make 0;
      act_done = Atomic.make [];
    }
  in
  let needers =
    Dispatch.ret_needers t.disp ~caller_pf:act.act_pf ~p_site ~callee_cs i
  in
  (* the leader starts the missing chunks *)
  if Color.equal c leader && spawned <> [] then begin
    List.iter
      (fun d ->
        let reply_to =
          if inter = [] && Some d = ret_sender then
            List.map (fun n -> (thread, n)) needers
          else []
        in
        send_spawn t (Some w) ~thread child_act d ~reply_to ~forged:false args)
      spawned;
    (* host order: an untrusted leader lets the spawned enclave stage
       complete before its own body, so declassified values are visible *)
    if not (Color.is_enclave c) then wait_pending t w child_act
  end;
  let result =
    if callee_cs = [] then
      (* pure-F callee: replicated, executes inline everywhere *)
      run_chunk t w child_act args
    else if List.mem c callee_cs then begin
      (* direct call (§7.3.2): inline execution in this worker *)
      let r = run_chunk t w child_act args in
      (if Some c = ret_sender && inter <> [] then
         List.iter
           (fun d -> send_cont t w ~thread ~color:d ~seq r)
           needers);
      r
    end
    else if List.mem c needers then wait_cont t w ~seq
    else Rvalue.zero
  in
  (* an enclave leader waits after its own (direct) work *)
  if Color.equal c leader && Color.is_enclave c then
    wait_pending t w child_act;
  result

(* Indirect call to a defined function (§6.3, §7.3.4): interface-style
   entry in the current worker, which starts the missing chunks itself. *)
and dispatch_indirect t w (i : Instr.t) name (args : Rvalue.t array) :
    Rvalue.t =
  let f = Pmodule.find_func_exn t.base.Exec.m name in
  let key = Dispatch.indirect_entry_key t.plan f in
  let pf = pfunc_exn t key in
  let cs = pf.Plan.pf_colorset in
  let c = w.w_color in
  let thread = w.w_lane in
  let spawned_cs = List.filter (fun d -> not (Color.equal d c)) cs in
  let act =
    {
      act_seq = Dispatch.fresh_seq t.disp;
      act_key = key;
      act_pf = pf;
      act_participants = (if cs = [] then [ c ] else cs);
      act_spawned = spawned_cs;
      act_pending = Atomic.make 0;
      act_done = Atomic.make [];
    }
  in
  if cs = [] then run_chunk t w act args
  else begin
    let parent = cur_act w in
    let i_need =
      match Instr.defines i with
      | None -> false
      | Some id -> (
        (not (List.mem c cs))
        &&
        match Dispatch.chunk_for parent.act_pf c with
        | Some cf -> Dispatch.chunk_needs t.disp cf id
        | None -> false)
    in
    let first = match cs with d :: _ -> Some d | [] -> None in
    List.iter
      (fun d ->
        let reply_to =
          if i_need && Some d = first then [ (thread, c) ] else []
        in
        send_spawn t (Some w) ~thread act d ~reply_to ~forged:false args)
      spawned_cs;
    if List.mem c cs then run_chunk t w act args
    else if i_need then wait_cont t w ~seq:act.act_seq
    else Rvalue.zero
  end

(* §7.3 thread creation: start every chunk of the target instance on the
   workers of a fresh application thread — this is where the backend's
   parallelism is real rather than simulated. *)
and dispatch_spawn t w (i : Instr.t) _callee (args : Rvalue.t array) =
  let act = cur_act w in
  match Infer.call_site t.plan.Plan.infer act.act_key i.Instr.id with
  | None -> raise (Error "spawn site without plan")
  | Some key ->
    let thread = Atomic.fetch_and_add t.next_thread 1 in
    let pf = pfunc_exn t key in
    let cs =
      if pf.Plan.pf_colorset = [] then [ Color.Free ]
      else pf.Plan.pf_colorset
    in
    let child =
      {
        act_seq = Dispatch.fresh_seq t.disp;
        act_key = key;
        act_pf = pf;
        act_participants = cs;
        act_spawned = cs;
        act_pending = Atomic.make 0;
        act_done = Atomic.make [];
      }
    in
    List.iter
      (fun d -> send_spawn t (Some w) ~thread child d ~reply_to:[] ~forged:false args)
      cs

(* §7.3.3 synchronization barrier, realized with real shared state: the
   arriving worker records its arrival under a mutex and waits (pumping)
   until every predecessor in the activation's host order has either
   completed its chunk or arrived at the same occurrence. Under the
   serialization discipline predecessors have always completed, so the
   wait is immediate — but it is checked against the shared tables, so a
   violation of the discipline blocks loudly instead of racing quietly. *)
and barrier t w (act : activation) (instr : int) =
  let okey = (act.act_seq, instr) in
  let occ =
    match Hashtbl.find_opt w.w_occ okey with
    | Some r ->
      let n = !r in
      incr r;
      n
    | None ->
      Hashtbl.replace w.w_occ okey (ref 1);
      0
  in
  let me = Color.to_string w.w_color in
  Mutex.lock t.bar_mu;
  Hashtbl.replace t.bar_arrived (act.act_seq, instr, occ, me) ();
  Mutex.unlock t.bar_mu;
  lane_event t w Obs.Ring.code_barrier me 0;
  let present = Dispatch.site_presence t.disp act.act_pf instr in
  let spawned d = List.exists (Color.equal d) act.act_spawned in
  let preds =
    if spawned w.w_color then
      (* spawned chunks serialize in color order *)
      List.filter
        (fun d -> spawned d && Color.compare d w.w_color < 0)
        present
    else if Color.is_enclave w.w_color then [] (* enclave direct runs first *)
    else List.filter spawned present (* untrusted body runs after the stage *)
  in
  if preds <> [] then
    wait_until ~phase:Obs.Phase.Barrier t w (fun () ->
        Mutex.lock t.bar_mu;
        let ok =
          List.for_all
            (fun d ->
              let ds = Color.to_string d in
              Hashtbl.mem t.bar_done (act.act_seq, ds)
              || Hashtbl.mem t.bar_arrived (act.act_seq, instr, occ, ds))
            preds
        in
        Mutex.unlock t.bar_mu;
        ok)

and hooks_for t w : Exec.hooks =
  {
    Exec.h_call = (fun _ i callee args -> dispatch_call t w i callee args);
    h_callind =
      (fun ex i fv args ->
        let name = Exec.resolve_func ex fv in
        if Pmodule.is_defined ex.Exec.m name then
          dispatch_indirect t w i name args
        else
          let act = cur_act w in
          Dispatch.dispatch_extern t.disp w.w_exec ~color:w.w_color
            ~caller:act.act_key.Infer.ik_func i name args);
    h_spawn = (fun _ i callee args -> dispatch_spawn t w i callee args);
    h_pre_instr =
      (fun _ i ->
        match w.w_act with
        | Some act
          when Dispatch.barrier_at act.act_pf i.Instr.id
                 ~participants:act.act_participants ->
          barrier t w act i.Instr.id
        | _ -> ());
    h_alloca_zone = (fun _ ty -> Dispatch.alloca_zone ty ~current:w.w_color);
  }

(* ------------------------------------------------------------------ *)
(* entry interface (§7.3.4) *)

and exec_entry t w (e : msg) =
  match e with
  | Entry { e_act = act; e_args; e_direct; e_slot } ->
    (match
       (let cs = act.act_pf.Plan.pf_colorset in
        let first = match cs with x :: _ -> Some x | [] -> None in
        List.iter
          (fun d ->
            let reply_to =
              if e_direct = None && Some d = first then
                [ (w.w_lane, Color.Unsafe) ]
              else []
            in
            send_spawn t (Some w) ~thread:w.w_lane act d ~reply_to
              ~forged:false e_args)
          act.act_spawned;
        (* host order: enclave chunks complete before the U body *)
        wait_pending t w act;
        match e_direct with
        | Some _ -> run_chunk t w act e_args
        | None -> wait_cont t w ~seq:act.act_seq)
     with
    | r -> fill_slot e_slot (Ok r)
    | exception Exec.Trap msg -> fill_slot e_slot (Result.Error msg)
    | exception Error msg -> fill_slot e_slot (Result.Error msg));
    Atomic.decr t.inflight
  | _ -> ()

(* ------------------------------------------------------------------ *)

let create ?(config = Sgx.Config.machine_b) ?cost ?(lanes = 2) ?engine
    (plan : Plan.t) : t =
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
  let base = Exec.create m heap layout machine dummy_hooks in
  let disp = Dispatch.create ~sites plan in
  Exec.init_globals base (Dispatch.global_zone plan);
  (* everything lazily built and shared becomes read-only before the first
     domain starts; the heap serializes its own structures from here on *)
  Exec.warm_caches base ~extra:(Dispatch.chunk_funcs plan);
  (match engine with
  | Exec.Image -> Image.install base (Image.build ~plan ~sites base)
  | Exec.Walk -> ());
  Heap.set_concurrent heap true;
  {
    plan;
    disp;
    base;
    config;
    cost;
    lanes = max 1 lanes;
    workers = Hashtbl.create 16;
    wmu = Mutex.create ();
    inflight = Atomic.make 0;
    next_thread = Atomic.make 1;
    guard = true;
    tr_mu = Mutex.create ();
    traps = [];
    bar_mu = Mutex.create ();
    bar_arrived = Hashtbl.create 64;
    bar_done = Hashtbl.create 64;
    trace = None;
    domains = 0;
    entries_served = Atomic.make 0;
  }

type entry_result = { value : Rvalue.t; wall_seconds : float }

let call_entry t ?(thread = 0) ?(timeout_s = 60.0) name (args : Rvalue.t list)
    : entry_result =
  let ep =
    match Dispatch.find_entry t.plan name with
    | Some e -> e
    | None -> raise (Error ("not an entry point: " ^ name))
  in
  let pf = pfunc_exn t ep.Plan.ep_key in
  let cs = pf.Plan.pf_colorset in
  Heap.reset_stacks t.base.Exec.heap;
  let direct =
    if List.mem Color.Unsafe cs then Some Color.Unsafe
    else if cs = [] then Some Color.Free
    else None
  in
  let participants = if cs = [] then [ Color.Free ] else cs in
  let spawned_cs =
    List.filter
      (fun d ->
        match direct with
        | Some dc -> not (Color.equal d dc)
        | None -> true)
      participants
  in
  let act =
    {
      act_seq = Dispatch.fresh_seq t.disp;
      act_key = ep.Plan.ep_key;
      act_pf = pf;
      act_participants = participants;
      act_spawned = spawned_cs;
      act_pending = Atomic.make 0;
      act_done = Atomic.make [];
    }
  in
  let slot =
    { s_mu = Mutex.create (); s_result = None }
  in
  let uw = worker t thread Color.Unsafe in
  let start = Unix.gettimeofday () in
  Atomic.incr t.inflight;
  Msq.push uw.w_queue
    (Entry { e_act = act; e_args = Array.of_list args; e_direct = direct;
             e_slot = slot });
  (* wait for the response, then for full quiescence: background threads
     the request spawned (§7.3) finish before it is declared complete,
     matching Sched.run in the simulator. The timeout turns a deadlocked
     worker pool into a failure instead of a hung test. *)
  let deadline = start +. timeout_s in
  let result = ref None in
  let rec await () =
    (if !result = None then begin
       Mutex.lock slot.s_mu;
       result := slot.s_result;
       Mutex.unlock slot.s_mu
     end);
    match !result with
    | Some r when Atomic.get t.inflight = 0 -> r
    | _ ->
      if Unix.gettimeofday () > deadline then
        raise
          (Error
             (Printf.sprintf
                "entry %s: timed out after %.0fs (worker pool stalled)" name
                timeout_s))
      else begin
        (* bound: same 100 us floor as [idle_wait]; the deadline above is
           the fail-fast bound *)
        Unix.sleepf 0.0001;
        await ()
      end
  in
  let r = await () in
  (match take_traps t with
  | [] -> ()
  | msgs -> raise (Error (String.concat "; " msgs)));
  match r with
  | Ok value ->
    Atomic.incr t.entries_served;
    { value; wall_seconds = Unix.gettimeofday () -. start }
  | Result.Error msg -> raise (Error msg)

(* §8 attack surface, matching Pinterp.inject_spawn: write a forged spawn
   message into a partition's queue. The guard rejects it at dequeue. *)
let inject_spawn t ?(thread = 0) ~(color : Color.t) ~(chunk : string)
    (args : Rvalue.t list) : (unit, string) result =
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
          act_seq = Dispatch.fresh_seq t.disp;
          act_key = key;
          act_pf = pf;
          act_participants = [ color ];
          act_spawned = [];
          act_pending = Atomic.make 0;
          act_done = Atomic.make [];
        }
      in
      send_spawn t None ~thread act color ~reply_to:[] ~forged:true
        (Array.of_list args);
      let deadline = Unix.gettimeofday () +. 30.0 in
      let rec drain () =
        if Atomic.get t.inflight = 0 then ()
        else if Unix.gettimeofday () > deadline then
          raise (Error "inject_spawn: timed out")
        else begin
          (* bound: same 100 us floor as [idle_wait], 30 s deadline *)
          Unix.sleepf 0.0001;
          drain ()
        end
      in
      drain ();
      match take_traps t with
      | [] -> Result.Ok ()
      | msgs -> Result.Error (String.concat "; " msgs)
    end

let set_spawn_guard t enabled = t.guard <- enabled

let set_telemetry t tr = t.trace <- tr

(* Quiesce, close every queue, join the domains. Returns [false] when the
   pool failed to quiesce in time — queues are closed anyway, but the
   domains are not joined (they may be stuck in a chunk). *)
let shutdown ?(timeout_s = 10.0) t : bool =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec quiesce () =
    if Atomic.get t.inflight = 0 then true
    else if Unix.gettimeofday () > deadline then false
    else begin
      (* bound: same 100 us floor as [idle_wait], [timeout_s] deadline *)
      Unix.sleepf 0.0001;
      quiesce ()
    end
  in
  let quiet = quiesce () in
  Mutex.lock t.wmu;
  let ws = Hashtbl.fold (fun _ w acc -> w :: acc) t.workers [] in
  Hashtbl.reset t.workers;
  t.domains <- 0;
  Mutex.unlock t.wmu;
  List.iter (fun w -> Msq.close w.w_queue) ws;
  if quiet then
    List.iter
      (fun w -> match w.w_domain with Some d -> Domain.join d | None -> ())
      ws;
  quiet

let exec t = t.base

(* Pool statistics for external drivers (the serving layer's `stats` verb
   and the CLI): a consistent snapshot is not needed — each field is read
   atomically and the numbers are monitoring data, not invariants. *)
type pool_stats = {
  ps_lanes : int;
  ps_domains : int;
  ps_inflight : int;            (* chunks/entries created but not done *)
  ps_entries_served : int;      (* completed entry-interface requests *)
  ps_threads_started : int;     (* §7.3 application threads ever created *)
}

let stats t =
  Mutex.lock t.wmu;
  let domains = t.domains in
  Mutex.unlock t.wmu;
  {
    ps_lanes = t.lanes;
    ps_domains = domains;
    ps_inflight = Atomic.get t.inflight;
    ps_entries_served = Atomic.get t.entries_served;
    ps_threads_started = Atomic.get t.next_thread - 1;
  }

let domain_count t =
  Mutex.lock t.wmu;
  let n = t.domains in
  Mutex.unlock t.wmu;
  n

let total_steps t =
  Mutex.lock t.wmu;
  let n =
    Hashtbl.fold (fun _ w acc -> acc + w.w_exec.Exec.steps) t.workers
      t.base.Exec.steps
  in
  Mutex.unlock t.wmu;
  n

let output t =
  Mutex.lock t.wmu;
  let ws =
    List.sort compare (Hashtbl.fold (fun k w acc -> (k, w) :: acc) t.workers [])
  in
  Mutex.unlock t.wmu;
  String.concat ""
    (Buffer.contents t.base.Exec.out
    :: List.map (fun (_, w) -> Buffer.contents w.w_exec.Exec.out) ws)

(* ------------------------------------------------------------------ *)
(* observability (lib/obs): per-lane phase accounting, event rings,
   metrics registration. Snapshots are monitoring-grade while the pool
   runs; after [call_entry] returns or [shutdown] joins the domains they
   are exact. *)

let sorted_workers t =
  Mutex.lock t.wmu;
  let ws =
    List.sort compare (Hashtbl.fold (fun k w acc -> (k, w) :: acc) t.workers [])
  in
  Mutex.unlock t.wmu;
  List.map snd ws

let obs_lanes t = List.filter_map (fun w -> w.w_obs) (sorted_workers t)

let lane_breakdowns t =
  let now = Obs.now_us () in
  List.map (fun l -> Obs.Lane.snapshot l ~now_us:now) (obs_lanes t)

let total_externs t =
  List.fold_left
    (fun acc w -> acc + w.w_exec.Exec.externs)
    t.base.Exec.externs (sorted_workers t)

let declass_counts t : (string * int) list =
  let acc = Hashtbl.create 8 in
  let fold (ex : Exec.t) =
    Hashtbl.iter
      (fun color r ->
        match Hashtbl.find_opt acc color with
        | Some a -> a := !a + !r
        | None -> Hashtbl.add acc color (ref !r))
      ex.Exec.declass
  in
  fold t.base;
  List.iter (fun w -> fold w.w_exec) (sorted_workers t);
  List.sort compare (Hashtbl.fold (fun c r l -> (c, !r) :: l) acc [])

let register_obs t (reg : Obs.Registry.t) =
  let g = Obs.Registry.gauge reg in
  g ~help:"configured worker lanes" "privagic_pool_lanes" (fun () ->
      float_of_int t.lanes);
  g ~help:"live worker domains" "privagic_pool_domains" (fun () ->
      float_of_int (domain_count t));
  g ~help:"chunks and entries in flight" "privagic_pool_inflight" (fun () ->
      float_of_int (Atomic.get t.inflight));
  g ~help:"completed entry-interface requests"
    "privagic_pool_entries_served_total" (fun () ->
      float_of_int (Atomic.get (t.entries_served)));
  g ~help:"VM steps retired across all workers" "privagic_vm_steps_total"
    (fun () -> float_of_int (total_steps t));
  g ~help:"extern dispatches across all workers" "privagic_vm_externs_total"
    (fun () -> float_of_int (total_externs t));
  Obs.Registry.multi_gauge reg
    ~help:"cache-model LLC misses per lane" "privagic_vm_llc_misses_total"
    (fun () ->
      List.map
        (fun w ->
          let c = Sgx.Machine.counters w.w_exec.Exec.machine in
          ( [ ("lane",
               Printf.sprintf "d%d/%s" w.w_lane (Color.to_string w.w_color)) ],
            float_of_int c.Sgx.Machine.llc_misses ))
        (sorted_workers t));
  Obs.Registry.multi_gauge reg
    ~help:"declassification calls per color (shared extern path)"
    "privagic_declassify_total" (fun () ->
      List.map
        (fun (c, n) -> ([ ("color", c) ], float_of_int n))
        (declass_counts t));
  Obs.Registry.multi_gauge reg
    ~help:"per-lane wall time by phase (microseconds)"
    "privagic_lane_phase_us" (fun () ->
      List.concat_map
        (fun (b : Obs.Lane.breakdown) ->
          List.map
            (fun p ->
              ( [ ("lane", b.Obs.Lane.b_label); ("phase", Obs.Phase.name p) ],
                float_of_int b.Obs.Lane.b_phase_us.(Obs.Phase.index p) ))
            Obs.Phase.all)
        (lane_breakdowns t));
  Obs.Registry.multi_gauge reg
    ~help:"events lost to ring overwrite, per lane"
    "privagic_obs_ring_dropped_total" (fun () ->
      List.map
        (fun l ->
          let r = Obs.Lane.ring l in
          ([ ("lane", Obs.Ring.label r) ], float_of_int (Obs.Ring.dropped r)))
        (obs_lanes t))
