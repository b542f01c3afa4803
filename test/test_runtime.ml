(* Lock-free queue (sequential, property-based, and truly parallel with
   domains) and the virtual-time scheduler. *)

module Msqueue = Privagic_runtime.Msqueue
module Vclock = Privagic_runtime.Vclock
module Sched = Privagic_runtime.Sched
module Wake = Privagic_runtime.Wake

let test_queue_fifo () =
  let q = Msqueue.create () in
  Alcotest.(check bool) "empty" true (Msqueue.is_empty q);
  Alcotest.(check (option int)) "pop empty" None (Msqueue.pop q);
  for i = 1 to 5 do
    Msqueue.push q i
  done;
  Alcotest.(check int) "length" 5 (Msqueue.length q);
  for i = 1 to 5 do
    Alcotest.(check (option int)) "fifo order" (Some i) (Msqueue.pop q)
  done;
  Alcotest.(check bool) "empty again" true (Msqueue.is_empty q)

let test_queue_interleaved () =
  let q = Msqueue.create () in
  Msqueue.push q 1;
  Msqueue.push q 2;
  Alcotest.(check (option int)) "1" (Some 1) (Msqueue.pop q);
  Msqueue.push q 3;
  Alcotest.(check (option int)) "2" (Some 2) (Msqueue.pop q);
  Alcotest.(check (option int)) "3" (Some 3) (Msqueue.pop q);
  Alcotest.(check (option int)) "none" None (Msqueue.pop q)

(* model-based property: queue behaves like a functional FIFO *)
let prop_queue_model =
  QCheck.Test.make ~count:200 ~name:"queue matches a FIFO model"
    QCheck.(list (pair bool small_int))
    (fun ops ->
      let q = Msqueue.create () in
      let model = Queue.create () in
      List.for_all
        (fun (is_push, v) ->
          if is_push then begin
            Msqueue.push q v;
            Queue.push v model;
            true
          end
          else
            let expected = if Queue.is_empty model then None else Some (Queue.pop model) in
            Msqueue.pop q = expected)
        ops)

(* true parallelism: producers and consumers on separate domains; every
   pushed element is popped exactly once, FIFO per producer *)
let test_queue_parallel () =
  let q = Msqueue.create () in
  let n = 2000 in
  let producers = 2 in
  let producer id () =
    for i = 0 to n - 1 do
      Msqueue.push q ((id * n) + i)
    done
  in
  let popped = Atomic.make 0 in
  let seen = Array.make (producers * n) false in
  let consumer () =
    while Atomic.get popped < producers * n do
      match Msqueue.pop q with
      | Some v ->
        seen.(v) <- true;
        Atomic.incr popped
      | None -> Domain.cpu_relax ()
    done
  in
  let doms =
    [ Domain.spawn (producer 0); Domain.spawn (producer 1);
      Domain.spawn consumer ]
  in
  List.iter Domain.join doms;
  Alcotest.(check int) "all popped" (producers * n) (Atomic.get popped);
  Alcotest.(check bool) "each exactly once" true (Array.for_all Fun.id seen)

(* the shutdown drain protocol (msqueue.mli) under real contention:
   producers push from their own domains, the owner closes once they are
   done, and consumers exit only on a None pop observed *after* the close
   flag — nothing pushed before close may be lost or duplicated *)
let drain_exactly_once ~producers ~n ~consumers =
  let q = Msqueue.create () in
  let total = producers * n in
  let seen = Array.make (max total 1) 0 in
  let popped = Atomic.make 0 in
  let producer id () =
    for i = 0 to n - 1 do
      Msqueue.push q ((id * n) + i)
    done
  in
  let consumer () =
    let stop = ref false in
    while not !stop do
      match Msqueue.pop q with
      | Some v ->
        seen.(v) <- seen.(v) + 1;
        Atomic.incr popped
      | None ->
        if Msqueue.is_closed q then (
          match Msqueue.pop q with
          | Some v ->
            seen.(v) <- seen.(v) + 1;
            Atomic.incr popped
          | None -> stop := true)
        else Domain.cpu_relax ()
    done
  in
  let prods = List.init producers (fun i -> Domain.spawn (producer i)) in
  let cons = List.init consumers (fun _ -> Domain.spawn consumer) in
  List.iter Domain.join prods;
  Msqueue.close q;
  List.iter Domain.join cons;
  Atomic.get popped = total
  && (total = 0 || Array.for_all (fun c -> c = 1) seen)

let test_queue_close_drain () =
  Alcotest.(check bool) "drained exactly once" true
    (drain_exactly_once ~producers:3 ~n:2000 ~consumers:2);
  (* close on an empty queue releases an idle consumer immediately *)
  Alcotest.(check bool) "empty close" true
    (drain_exactly_once ~producers:1 ~n:0 ~consumers:2)

let prop_queue_close_drain =
  QCheck.Test.make ~count:15
    ~name:"close protocol drains exactly once (random shapes, domains)"
    QCheck.(triple (int_range 1 3) (int_range 0 300) (int_range 1 3))
    (fun (producers, n, consumers) ->
      drain_exactly_once ~producers ~n ~consumers)

let test_queue_close_flag () =
  let q = Msqueue.create () in
  Alcotest.(check bool) "open at creation" false (Msqueue.is_closed q);
  Msqueue.push q 1;
  Msqueue.close q;
  Alcotest.(check bool) "closed" true (Msqueue.is_closed q);
  (* the flag is advisory: pending elements survive, close is idempotent *)
  Msqueue.close q;
  Alcotest.(check (option int)) "pending element survives" (Some 1)
    (Msqueue.pop q);
  Alcotest.(check (option int)) "then empty" None (Msqueue.pop q)

(* the wire-protocol datatype used with the queue *)
let test_message_envelopes () =
  let module M = Privagic_runtime.Message in
  let q : int M.envelope Msqueue.t = Msqueue.create () in
  Msqueue.push q
    { M.sent_at = 10.0;
      payload = M.Spawn { chunk = "f@blue#blue"; args = [| Some 1 |];
                          frame = 0; seq = 7 } };
  Msqueue.push q
    { M.sent_at = 12.5; payload = M.Cont { seq = 7; tag = M.Retval; value = Some 42 } };
  (match Msqueue.pop q with
  | Some { M.sent_at; payload = M.Spawn { chunk; seq; _ } } ->
    Alcotest.(check (float 0.001)) "timestamp" 10.0 sent_at;
    Alcotest.(check string) "chunk" "f@blue#blue" chunk;
    Alcotest.(check int) "seq" 7 seq
  | _ -> Alcotest.fail "expected the spawn first");
  match Msqueue.pop q with
  | Some { M.payload = M.Cont { tag = M.Retval; value = Some 42; _ }; _ } -> ()
  | _ -> Alcotest.fail "expected the cont"

(* --- scheduler --- *)

let test_sched_runs_by_clock () =
  let sched = Sched.create () in
  let order = ref [] in
  ignore
    (Sched.spawn sched ~name:"late" ~at:100.0 (fun _ -> order := "late" :: !order));
  ignore
    (Sched.spawn sched ~name:"early" ~at:1.0 (fun _ -> order := "early" :: !order));
  (match Sched.run sched with
  | Sched.Completed -> ()
  | _ -> Alcotest.fail "expected Completed");
  Alcotest.(check (list string)) "clock order" [ "late"; "early" ] !order

let test_sched_block_resume () =
  let sched = Sched.create () in
  let flag = ref false in
  let observed = ref (-1.0) in
  ignore
    (Sched.spawn sched ~name:"waiter" ~at:0.0 (fun clock ->
         Sched.block (fun () -> !flag) (fun () -> 55.0);
         Vclock.set clock (Float.max (Vclock.get clock) 55.0);
         observed := (Vclock.get clock)));
  ignore
    (Sched.spawn sched ~name:"setter" ~at:10.0 (fun _ -> flag := true));
  ignore (Sched.run sched : Sched.outcome);
  Alcotest.(check (float 0.001)) "resumed at arrival time" 55.0 !observed

let test_sched_spawn_during_run () =
  let sched = Sched.create () in
  let hits = ref 0 in
  ignore
    (Sched.spawn sched ~name:"parent" ~at:0.0 (fun _ ->
         incr hits;
         ignore
           (Sched.spawn sched ~name:"child" ~at:5.0 (fun _ -> incr hits))));
  ignore (Sched.run sched : Sched.outcome);
  Alcotest.(check int) "both ran" 2 !hits

let test_sched_blocked_stays () =
  let sched = Sched.create () in
  ignore
    (Sched.spawn sched ~name:"stuck" ~at:0.0 (fun _ ->
         Sched.block (fun () -> false) (fun () -> 0.0)));
  (* default allows blocked workers (servers waiting for messages) and
     reports them in the outcome *)
  (match Sched.run sched with
  | Sched.Blocked_workers [ "stuck" ] -> ()
  | _ -> Alcotest.fail "expected Blocked_workers [stuck]");
  Alcotest.(check bool) "deadlock raised" true
    (match Sched.run ~allow_blocked:false sched with
    | exception Sched.Deadlock [ "stuck" ] -> true
    | exception Sched.Deadlock _ -> true
    | _ -> false)

let test_sched_virtual_time_causality () =
  (* a consumer blocked on a produced value inherits its timestamp *)
  let sched = Sched.create () in
  let mailbox = ref None in
  let consumer_clock = ref 0.0 in
  ignore
    (Sched.spawn sched ~name:"producer" ~at:0.0 (fun clock ->
         Vclock.add clock (500.0);
         mailbox := Some (Vclock.get clock)));
  ignore
    (Sched.spawn sched ~name:"consumer" ~at:0.0 (fun clock ->
         Sched.block
           (fun () -> !mailbox <> None)
           (fun () -> match !mailbox with Some t -> t | None -> 0.0);
         Vclock.set clock (Float.max (Vclock.get clock) (Option.value ~default:0.0 !mailbox));
         consumer_clock := Vclock.get clock));
  ignore (Sched.run sched : Sched.outcome);
  Alcotest.(check (float 0.001)) "consumer advanced to 500" 500.0
    !consumer_clock

(* ------------------------------------------------------------------ *)
(* Wake: the blocking primitive behind every serving-path wait *)

(* Two domains bounce a ball 100k round trips, each side blocking on its
   own wake until the other side's move lands. The main side waits with
   no deadline (the Condition path), the spawned side with a deadline
   (the self-pipe select path), so both paths carry the stress. A lost
   wake-up shows as a deadline hit on the select side, or as the
   watchdog firing on the Condition side (which then aborts the run
   instead of hanging the suite). *)
let test_wake_ping_pong () =
  let rounds = 100_000 in
  let ball = Atomic.make 0 in
  let aborted = Atomic.make false in
  let wa = Wake.create () and wb = Wake.create () and wdone = Wake.create () in
  let finished = Atomic.make false in
  let watchdog =
    Domain.spawn (fun () ->
        if
          not
            (Wake.await ~deadline:(Unix.gettimeofday () +. 30.0) wdone
               (fun () -> Atomic.get finished))
        then begin
          Atomic.set aborted true;
          Wake.signal wa;
          Wake.signal wb
        end)
  in
  let pong =
    Domain.spawn (fun () ->
        let hits = ref 0 in
        for i = 0 to rounds - 1 do
          let ready () = Atomic.get ball = (2 * i) + 1 || Atomic.get aborted in
          if
            not
              (Wake.await ~deadline:(Unix.gettimeofday () +. 5.0) wb ready)
          then incr hits;
          Atomic.set ball ((2 * i) + 2);
          Wake.signal wa
        done;
        !hits)
  in
  for i = 0 to rounds - 1 do
    Atomic.set ball ((2 * i) + 1);
    Wake.signal wb;
    ignore
      (Wake.await wa (fun () ->
           Atomic.get ball = (2 * i) + 2 || Atomic.get aborted))
  done;
  let hits = Domain.join pong in
  Atomic.set finished true;
  Wake.signal wdone;
  Domain.join watchdog;
  Alcotest.(check bool) "no lost wake-up (watchdog quiet)" false
    (Atomic.get aborted);
  Alcotest.(check int) "no deadline hit" 0 hits;
  Alcotest.(check int) "every round trip completed" (2 * rounds)
    (Atomic.get ball)

(* A deadline wait nobody signals reports Timed_out, close to its
   deadline; a descriptor wait reports Readable; a signal wakes a
   blocked waiter on either path. *)
let test_wake_deadline () =
  let w = Wake.create () in
  let t0 = Unix.gettimeofday () in
  let o = Wake.wait ~deadline:(t0 +. 0.1) w (fun () -> false) in
  let late = Unix.gettimeofday () -. (t0 +. 0.1) in
  Alcotest.(check bool) "timed out" true (o = Wake.Timed_out);
  Alcotest.(check bool)
    (Printf.sprintf "within 50 ms of the deadline (late by %.1f ms)"
       (late *. 1e3))
    true
    (late >= 0.0 && late < 0.05);
  Alcotest.(check bool) "await reports the timeout" false
    (Wake.await ~deadline:(Unix.gettimeofday () +. 0.01) w (fun () -> false));
  let r, wr = Unix.pipe () in
  ignore (Unix.write_substring wr "x" 0 1);
  Alcotest.(check bool) "readable fd" true
    (Wake.wait ~fd:r w (fun () -> false) = Wake.Readable);
  Unix.close r;
  Unix.close wr;
  (* a signal releases a blocked waiter promptly, on both paths *)
  List.iter
    (fun deadline ->
      let flag = Atomic.make false in
      let d =
        Domain.spawn (fun () ->
            let t = Unix.gettimeofday () in
            let ok = Wake.await ?deadline w (fun () -> Atomic.get flag) in
            (ok, Unix.gettimeofday () -. t))
      in
      Unix.sleepf 0.02;
      Atomic.set flag true;
      Wake.signal w;
      let ok, waited = Domain.join d in
      Alcotest.(check bool) "signalled waiter sees its condition" true ok;
      Alcotest.(check bool) "released well before any deadline" true
        (waited < 1.0))
    [ None; Some (Unix.gettimeofday () +. 30.0) ]

let suite =
  [
    Alcotest.test_case "queue fifo" `Quick test_queue_fifo;
    Alcotest.test_case "queue interleaved" `Quick test_queue_interleaved;
    QCheck_alcotest.to_alcotest prop_queue_model;
    Alcotest.test_case "queue parallel (domains)" `Slow test_queue_parallel;
    Alcotest.test_case "queue close flag" `Quick test_queue_close_flag;
    Alcotest.test_case "queue close drain (domains)" `Slow
      test_queue_close_drain;
    QCheck_alcotest.to_alcotest prop_queue_close_drain;
    Alcotest.test_case "message envelopes" `Quick test_message_envelopes;
    Alcotest.test_case "sched clock order" `Quick test_sched_runs_by_clock;
    Alcotest.test_case "sched block/resume" `Quick test_sched_block_resume;
    Alcotest.test_case "sched spawn during run" `Quick test_sched_spawn_during_run;
    Alcotest.test_case "sched blocked stays" `Quick test_sched_blocked_stays;
    Alcotest.test_case "sched causality" `Quick test_sched_virtual_time_causality;
    Alcotest.test_case "wake ping-pong (domains)" `Quick test_wake_ping_pong;
    Alcotest.test_case "wake deadline and signal" `Quick test_wake_deadline;
  ]
