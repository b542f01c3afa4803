(* Michael & Scott two-lock-free queue with a sentinel node. [head] always
   points at the sentinel; values live in the successors. *)

type 'a node = { value : 'a option; next : 'a node option Atomic.t }

type 'a t = {
  head : 'a node Atomic.t;
  tail : 'a node Atomic.t;
  closed : bool Atomic.t;
}

let mk_node value = { value; next = Atomic.make None }

let create () =
  let sentinel = mk_node None in
  {
    head = Atomic.make sentinel;
    tail = Atomic.make sentinel;
    closed = Atomic.make false;
  }

let rec push q v =
  let node = mk_node (Some v) in
  let tail = Atomic.get q.tail in
  match Atomic.get tail.next with
  | None ->
    if Atomic.compare_and_set tail.next None (Some node) then
      (* linearization point passed; swing the tail (may fail harmlessly
         if another thread already advanced it) *)
      ignore (Atomic.compare_and_set q.tail tail node)
    else push_retry q node
  | Some next ->
    (* help a stalled enqueuer finish, then retry *)
    ignore (Atomic.compare_and_set q.tail tail next);
    push_retry q node

and push_retry q node =
  let tail = Atomic.get q.tail in
  match Atomic.get tail.next with
  | None ->
    if Atomic.compare_and_set tail.next None (Some node) then
      ignore (Atomic.compare_and_set q.tail tail node)
    else push_retry q node
  | Some next ->
    ignore (Atomic.compare_and_set q.tail tail next);
    push_retry q node

let rec pop q =
  let head = Atomic.get q.head in
  match Atomic.get head.next with
  | None -> None
  | Some next ->
    if Atomic.compare_and_set q.head head next then (
      (* ensure the tail is not left behind the new head *)
      let tail = Atomic.get q.tail in
      if tail == head then ignore (Atomic.compare_and_set q.tail tail next);
      next.value)
    else pop q

let is_empty q = Atomic.get (Atomic.get q.head).next = None

let close q = Atomic.set q.closed true

let is_closed q = Atomic.get q.closed

let length q =
  let rec go acc node =
    match Atomic.get node.next with
    | None -> acc
    | Some next -> go (acc + 1) next
  in
  go 0 (Atomic.get q.head)
