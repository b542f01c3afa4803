(* See the .mli. Everything runs in-process but over real loopback TCP:
   a primary server, replica servers attached through the replication
   client, and the load generator driving the primary — so the measured
   path is the shipping path the paper's deployment would use, not a
   function-call model of it. The simulated backend keeps the store's
   per-op cost deterministic across cells; the deltas between cells are
   then attributable to replication alone. *)

module Tel = Privagic_telemetry
module Server = Privagic_server.Server
module Loadgen = Privagic_loadgen.Loadgen
module Repl = Privagic_replication
open Privagic_vm

type cell = {
  rb_mode : string;
  rb_replicas : int;
  rb_ops : int;
  rb_ops_ok : int;
  rb_wall_seconds : float;
  rb_throughput_kops : float;
  rb_latency_us : Tel.Metrics.pctiles;
  rb_lag_us : Tel.Metrics.pctiles;
  rb_shipped : int;
  rb_sealed : int;
  rb_primary_seq : int;
  rb_replica_seqs : int list;
}

type failover = { fo_seconds : float; fo_deltas : int }

let vsize = 32

let plan_for () =
  let src = Kv.source Kv.Memcached `Colored ~nbuckets:64 ~vsize in
  let m = Privagic_minic.Driver.compile ~file:"program.mc" src in
  let mode = Kv.mode_for Kv.Memcached in
  let infer = Privagic_secure.Infer.run ~mode m in
  if not (Privagic_secure.Infer.ok infer) then
    invalid_arg "replbench: program rejected by the checker";
  let plan = Privagic_partition.Plan.build ~mode infer in
  if plan.Privagic_partition.Plan.diagnostics <> [] then
    invalid_arg "replbench: partitioning rejected";
  plan

let make_server ?replica_of ~capacity () =
  let plan = plan_for () in
  let bnd = Option.get (Server.bindings_of_plan plan) in
  let store =
    let pt = Pinterp.create ~engine:(Exec.default_engine ()) plan in
    let store = Server.store_of_pinterp pt in
    (match bnd.Server.b_init with
    | Some entry ->
      (match store.Server.st_call entry [ Rvalue.Int (Int64.of_int capacity) ]
       with
      | Ok _ -> ()
      | Error m -> invalid_arg ("replbench: init failed: " ^ m))
    | None -> ());
    store
  in
  Server.start ?replica_of
    { Server.default_config with Server.port = 0; vsize }
    bnd [| store |]

(* A replica: its own server (read-only role) plus the replication
   client applying the primary's stream into it. [on_lost] defaults to
   promotion, as the CLI's --replica-of does. *)
let attach_replica ?on_lost ~sync ~capacity primary_port =
  let srv =
    make_server
      ~replica_of:(Printf.sprintf "127.0.0.1:%d" primary_port)
      ~capacity ()
  in
  let apply (d : Repl.Delta.t) =
    match d.Repl.Delta.op with
    | Repl.Delta.Put { key; payload; _ } ->
      Server.apply_put srv ~seq:d.Repl.Delta.seq ~key ~payload
    | Repl.Delta.Del { key } -> Server.apply_del srv ~seq:d.Repl.Delta.seq ~key
  in
  let on_lost =
    match on_lost with Some f -> f srv | None -> fun () -> Server.promote srv
  in
  let client =
    Repl.Replica.start ~sync ~on_lost ~host:"127.0.0.1" ~port:primary_port
      ~apply ()
  in
  (srv, client)

let drive ~ops ~records port =
  Loadgen.run
    {
      Loadgen.default_config with
      Loadgen.port;
      clients = 4;
      ops;
      record_count = records;
      vsize;
      read_prop = 0.5;
    }

(* Minimal blocking client for the failover drill's serving probe. *)
let rpc ~port req =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let b = Bytes.of_string req in
      let rec wr off =
        if off < Bytes.length b then
          wr (off + Unix.write fd b off (Bytes.length b - off))
      in
      wr 0;
      let buf = Bytes.create 256 in
      match Unix.read fd buf 0 256 with
      | 0 -> ""
      | n -> Bytes.sub_string buf 0 n)

let run_cell ~mode ~replicas ~ops ~records =
  let capacity = records * 4 in
  let primary = make_server ~capacity () in
  let pport = Server.port primary in
  let sync = mode = "sync" in
  let reps =
    List.init (if mode = "none" then 0 else replicas) (fun _ ->
        attach_replica ~sync ~capacity pport)
  in
  let r = drive ~ops ~records pport in
  let hub = Server.repl_hub primary in
  let primary_seq = Repl.Log.head (Server.repl_log primary) in
  (* drain flushes the log tail and waits for the replicas' final acks *)
  Server.drain primary;
  let replica_seqs =
    List.map
      (fun (rsrv, client) ->
        ignore (Repl.Replica.wait_lost client ~timeout_s:10.0);
        let seq = Repl.Replica.applied_seq client in
        Repl.Replica.stop client;
        Server.drain rsrv;
        seq)
      reps
  in
  {
    rb_mode = mode;
    rb_replicas = List.length reps;
    rb_ops = ops;
    rb_ops_ok = r.Loadgen.r_ops_ok;
    rb_wall_seconds = r.Loadgen.r_wall_seconds;
    rb_throughput_kops = r.Loadgen.r_throughput_kops;
    rb_latency_us = r.Loadgen.r_latency;
    rb_lag_us = Repl.Shipper.lag_pctiles hub;
    rb_shipped = Repl.Shipper.shipped hub;
    rb_sealed = Repl.Shipper.sealed_count hub;
    rb_primary_seq = primary_seq;
    rb_replica_seqs = replica_seqs;
  }

let run_failover ~ops ~records =
  let capacity = records * 4 in
  let primary = make_server ~capacity () in
  let pport = Server.port primary in
  let rsrv, client = attach_replica ~sync:false ~capacity pport in
  ignore (drive ~ops ~records pport);
  let t0 = Unix.gettimeofday () in
  Server.drain primary;
  if not (Repl.Replica.wait_lost client ~timeout_s:10.0) then
    invalid_arg "replbench: replica never noticed the drained primary";
  let deltas = Repl.Replica.applied_seq client in
  (* promotion runs in the client's on_lost; poll until the promoted
     replica stores a write (rejected with CLIENT_ERROR until then) *)
  let rport = Server.port rsrv in
  let deadline = t0 +. 10.0 in
  let rec until_stored () =
    let resp = rpc ~port:rport "set 1 5\r\nhello\r\n" in
    if String.length resp >= 6 && String.sub resp 0 6 = "STORED" then
      Unix.gettimeofday () -. t0
    else if Unix.gettimeofday () > deadline then
      invalid_arg "replbench: promoted replica never accepted a write"
    else begin
      (* bound: the failover probe's resolution — the client side of a
         promotion has nothing to block on but its own retries *)
      Unix.sleepf 0.002;
      until_stored ()
    end
  in
  let fo_seconds = until_stored () in
  Repl.Replica.stop client;
  Server.drain rsrv;
  { fo_seconds; fo_deltas = deltas }

let run_all ?(quick = false) () =
  let records = if quick then 256 else 1024 in
  let ops = if quick then 2_000 else 8_000 in
  let cells =
    List.map
      (fun mode -> run_cell ~mode ~replicas:2 ~ops ~records)
      [ "none"; "async"; "sync" ]
  in
  let fo = run_failover ~ops:(ops / 4) ~records in
  (cells, fo)

let write_json ~path ~quick ((cells, fo) : cell list * failover) =
  let oc = open_out path in
  let p fmt = Printf.fprintf oc fmt in
  let pct (x : Tel.Metrics.pctiles) =
    Printf.sprintf
      "{ \"n\": %d, \"mean\": %.1f, \"p50\": %.1f, \"p95\": %.1f, \"p99\": \
       %.1f, \"max\": %.1f }"
      x.Tel.Metrics.n x.Tel.Metrics.p_mean x.Tel.Metrics.p50 x.Tel.Metrics.p95
      x.Tel.Metrics.p99 x.Tel.Metrics.p_max
  in
  p "{\n";
  p "  \"bench\": \"replication\",\n";
  p "  \"quick\": %b,\n" quick;
  p "  \"family\": \"memcached\", \"backend\": \"sim\", \"vsize\": %d,\n" vsize;
  p "  \"cells\": [\n";
  List.iteri
    (fun i c ->
      p "    { \"mode\": %S, \"replicas\": %d, \"ops\": %d, \"ops_ok\": %d,\n"
        c.rb_mode c.rb_replicas c.rb_ops c.rb_ops_ok;
      p "      \"wall_seconds\": %.6f, \"throughput_kops\": %.3f,\n"
        c.rb_wall_seconds c.rb_throughput_kops;
      p "      \"latency_us\": %s,\n" (pct c.rb_latency_us);
      p "      \"lag_us\": %s,\n" (pct c.rb_lag_us);
      p "      \"shipped\": %d, \"sealed\": %d,\n" c.rb_shipped c.rb_sealed;
      p "      \"primary_seq\": %d, \"replica_seqs\": [%s] }%s\n"
        c.rb_primary_seq
        (String.concat ", " (List.map string_of_int c.rb_replica_seqs))
        (if i = List.length cells - 1 then "" else ","))
    cells;
  p "  ],\n";
  p "  \"failover\": { \"seconds\": %.6f, \"deltas_applied\": %d }\n"
    fo.fo_seconds fo.fo_deltas;
  p "}\n";
  close_out oc

let run ?(quick = false) ?(path = "BENCH_replication.json") () =
  let ((cells, fo) as r) = run_all ~quick () in
  Format.printf "@[<v>replication bench (memcached, sim backend)@,%s@]@."
    (String.concat "\n"
       (List.map
          (fun c ->
            Printf.sprintf
              "  %-5s  %d replicas  %6.2f kops/s  lag p50/p99 %.0f/%.0f us  \
               sealed %d/%d  seqs %d:[%s]"
              c.rb_mode c.rb_replicas c.rb_throughput_kops
              c.rb_lag_us.Tel.Metrics.p50 c.rb_lag_us.Tel.Metrics.p99
              c.rb_sealed c.rb_shipped c.rb_primary_seq
              (String.concat "," (List.map string_of_int c.rb_replica_seqs)))
          cells));
  Format.printf "  failover: %.3f s (%d deltas applied at promotion)@."
    fo.fo_seconds fo.fo_deltas;
  write_json ~path ~quick r;
  Format.printf "wrote %s@." path;
  r
