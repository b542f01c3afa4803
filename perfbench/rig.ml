(* Set-up and tear-down of the system under test, with the wrappers every
   layer is measured through: compile → passes → secure typing →
   partitioning → VM create → server start (→ replica attach) → preload.
   Each step is timed from outside by calling the layer's public entry
   point; the VM and the replica apply path are wrapped so that their
   calls can be counted, timed and (for the self-test) faulted. *)

module Server = Privagic_server.Server
module Loadgen = Privagic_loadgen.Loadgen
module Repl = Privagic_replication
module Pinterp = Privagic_vm.Pinterp
module Par = Privagic_parallel.Parallel
module Exec = Privagic_vm.Exec
module Rvalue = Privagic_vm.Rvalue
module Machine = Privagic_sgx.Machine
module Programs = Privagic_workloads.Programs
module T = Tracer

type backend = Sim | Domains

type workload = {
  name : string;
  backend : backend;
  vsize : int;        (** value bytes *)
  records : int;      (** key space, all preloaded *)
  mix : Loadgen.mix;
  read_prop : float;  (** gets vs sets in the [Custom] mix *)
  replica : bool;     (** one in-process sync replica *)
  ol_rate : float;    (** open-loop rate of the traced run, ops/s *)
}

(* Fixed by the benchmark, the same on every workload. *)
let nbuckets = 4096
let connections = 2
let depth = 8
let max_batch = 32
let mode = Privagic_secure.Mode.Hardened

let backend_name = function Sim -> "sim" | Domains -> "domains"

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* ------------------------------------------------------------------ *)
(* compile and partition *)

type plan_times = { compile : float; prepare : float; infer : float; partition : float }

let build_plan wl =
  let src = Programs.memcached ~nbuckets ~vsize:wl.vsize `Colored in
  let step name f = T.with_span name (fun () -> time f) in
  let m, compile =
    step "minic.compile" (fun () ->
        Privagic_minic.Driver.compile ~file:"memcached.mc" ~mem2reg:false src)
  in
  let (), prepare =
    step "passes.prepare" (fun () -> ignore (Privagic_passes.Pipeline.prepare m))
  in
  let res, infer = step "secure.infer" (fun () -> Privagic_secure.Infer.run ~mode m) in
  if not (Privagic_secure.Infer.ok res) then failwith "memcached rejected by the checker";
  let plan, partition =
    step "partition.plan" (fun () -> Privagic_partition.Plan.build ~mode res)
  in
  if plan.Privagic_partition.Plan.diagnostics <> [] then
    failwith "memcached rejected by the partitioner";
  (plan, { compile; prepare; infer; partition })

(* ------------------------------------------------------------------ *)
(* the VM, behind a counting store wrapper *)

type probe = {
  mutable calls : int;
  mutable errors : int;
  mutable cycles : float;     (** summed latency_cycles (sim only) *)
  mutable busy : float;       (** seconds inside st_call (traced only) *)
  call_us : T.Samples.t;      (** per-call wall time (traced only) *)
  corrupt_in : int Atomic.t;  (** fault: corrupt the n-th read from now *)
}

type vm = { store : Server.store; probe : probe; sim : Pinterp.t option; par : Par.t option }

let steps vm =
  match (vm.sim, vm.par) with
  | Some p, _ -> p.Pinterp.exec.Exec.steps
  | _, Some p -> Par.total_steps p
  | None, None -> 0

let counters vm = Option.map (fun p -> Machine.counters (Pinterp.machine p)) vm.sim

let model_seconds vm cycles =
  match vm.sim with Some p -> Machine.seconds (Pinterp.machine p) cycles | None -> 0.0

(* Only the owning shard's domain calls the store; the main domain reads
   the probe between phases, when the server is idle. *)
let wrap probe (base : Server.store) call =
  let st_call name args =
    probe.calls <- probe.calls + 1;
    let r, dt = T.timed probe.call_us ("vm." ^ name) (fun () -> call name args) in
    probe.busy <- probe.busy +. dt;
    (match r with Error _ -> probe.errors <- probe.errors + 1 | Ok _ -> ());
    r
  in
  let st_read addr len =
    let s = base.Server.st_read addr len in
    if Atomic.get probe.corrupt_in > 0 && Atomic.fetch_and_add probe.corrupt_in (-1) = 1
       && len > 0
    then String.mapi (fun i c -> if i = 0 then Char.chr (Char.code c lxor 1) else c) s
    else s
  in
  { base with Server.st_call; st_read }

let make_vm wl plan =
  let probe =
    { calls = 0; errors = 0; cycles = 0.0; busy = 0.0; call_us = T.Samples.create ();
      corrupt_in = Atomic.make 0 }
  in
  let vm =
    match wl.backend with
    | Sim ->
      let p = Pinterp.create ~engine:Exec.Image plan in
      let call name args =
        match Pinterp.call_entry p name args with
        | r ->
          probe.cycles <- probe.cycles +. r.Pinterp.latency_cycles;
          Ok r.Pinterp.value
        | exception Pinterp.Error m -> Error m
      in
      let base = Server.store_of_pinterp p in
      { store = wrap probe base call; probe; sim = Some p; par = None }
    | Domains ->
      let p = Par.create ~lanes:1 ~engine:Exec.Image plan in
      let base = Server.store_of_parallel p in
      { store = wrap probe base base.Server.st_call; probe; sim = None; par = Some p }
  in
  (* room for every record: no LRU eviction, so a preloaded key never misses *)
  (match vm.store.Server.st_call "mc_init" [ Rvalue.Int (Int64.of_int (2 * wl.records)) ] with
  | Ok _ -> ()
  | Error m -> failwith ("mc_init: " ^ m));
  vm

(* ------------------------------------------------------------------ *)
(* the replica and its apply wrapper *)

type apply_probe = {
  mutable apply_errors : int;
  apply_us : T.Samples.t;      (** traced only *)
  drop_in : int Atomic.t;      (** fault: drop the n-th delta from now *)
}

type replica = {
  r_srv : Server.t;
  r_client : Repl.Replica.t;
  r_probe : apply_probe;
}

let server_config wl =
  { Server.default_config with Server.port = 0; shards = 1; lanes = 1; max_batch;
    vsize = wl.vsize }

let bindings plan =
  match Server.bindings_of_plan plan with
  | Some b -> b
  | None -> failwith "memcached plan exports no key-value entries"

let attach_replica wl ~port =
  let plan, _ = build_plan wl in
  let vm = make_vm wl plan in
  let srv =
    Server.start ~replica_of:(Printf.sprintf "127.0.0.1:%d" port) (server_config wl)
      (bindings plan) [| vm.store |]
  in
  let ap = { apply_errors = 0; apply_us = T.Samples.create ();
             drop_in = Atomic.make 0 } in
  let apply1 (d : Repl.Delta.t) =
    match d.Repl.Delta.op with
    | Repl.Delta.Put { key; payload; _ } ->
      Server.apply_put srv ~seq:d.Repl.Delta.seq ~key ~payload
    | Repl.Delta.Del { key } -> Server.apply_del srv ~seq:d.Repl.Delta.seq ~key
  in
  let apply d =
    if Atomic.get ap.drop_in > 0 && Atomic.fetch_and_add ap.drop_in (-1) = 1 then Ok ()
    else begin
      let r, _ = T.timed ap.apply_us "replica.apply" (fun () -> apply1 d) in
      (match r with Error _ -> ap.apply_errors <- ap.apply_errors + 1 | Ok () -> ());
      r
    end
  in
  let client =
    Repl.Replica.start ~sync:true ~on_lost:ignore ~host:"127.0.0.1" ~port ~apply ()
  in
  { r_srv = srv; r_client = client; r_probe = ap }

(* ------------------------------------------------------------------ *)
(* one complete set-up *)

type times = {
  plan_t : plan_times;
  vm_create : float;
  server_start : float;
  preload : float;
  total : float;
}

type t = {
  wl : workload;
  primary : Server.t;
  vm : vm;
  replica : replica option;
  times : times;
}

let port t = Server.port t.primary

let loadgen_config wl ~port ~seed ~ops =
  { Loadgen.default_config with
    Loadgen.port; clients = connections; ops; rate = 0.0; depth;
    record_count = wl.records; vsize = wl.vsize; seed; read_prop = wl.read_prop;
    mix = wl.mix; preload = false; shutdown = false }

let wait_until ~what ~timeout cond =
  let deadline = Unix.gettimeofday () +. timeout in
  while not (cond ()) do
    if Unix.gettimeofday () > deadline then failwith ("timed out waiting for " ^ what);
    Unix.sleepf 0.001
  done

let setup wl =
  let t0 = Unix.gettimeofday () in
  let plan, plan_t = build_plan wl in
  let vm, vm_create = T.with_span "vm.create" (fun () -> time (fun () -> make_vm wl plan)) in
  let primary, server_start =
    T.with_span "server.start" (fun () ->
        time (fun () -> Server.start (server_config wl) (bindings plan) [| vm.store |]))
  in
  let replica =
    if not wl.replica then None
    else
      T.with_span "replica.attach" (fun () ->
          let r = attach_replica wl ~port:(Server.port primary) in
          let hub = Server.repl_hub primary in
          wait_until ~what:"the sync replica" ~timeout:30.0 (fun () ->
              Repl.Shipper.sync_connected hub >= 1);
          Some r)
  in
  let (), preload =
    T.with_span "loadgen.preload" (fun () ->
        time (fun () ->
            (* the whole key space, then a single get: Loadgen measures at
               least one op *)
            let cfg =
              { (loadgen_config wl ~port:(Server.port primary) ~seed:0 ~ops:1) with
                Loadgen.preload = true; read_prop = 1.0; mix = Loadgen.Custom }
            in
            let r = Loadgen.run cfg in
            if r.Loadgen.r_preload_ops <> wl.records then
              failwith
                (Printf.sprintf "preload stored %d of %d records"
                   r.Loadgen.r_preload_ops wl.records)))
  in
  { wl; primary; vm; replica;
    times = { plan_t; vm_create; server_start; preload;
              total = Unix.gettimeofday () -. t0 } }

(* Drain the primary (its shipper flushes the log tail to the replica),
   then the replica's link ends; [on_replica] sees the replica while it
   still serves reads, before it is drained in turn. Returns the time
   spent in the server drains (primary plus replica). *)
let teardown ?(on_replica = fun _ -> ()) t =
  let drain name srv = snd (T.with_span name (fun () -> time (fun () -> Server.drain srv))) in
  let primary_s = drain "server.drain" t.primary in
  match t.replica with
  | None -> primary_s
  | Some r ->
    ignore (Repl.Replica.wait_lost r.r_client ~timeout_s:30.0);
    on_replica r;
    Repl.Replica.stop r.r_client;
    primary_s +. drain "replica.drain" r.r_srv
