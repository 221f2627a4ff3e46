(* Pluggable node-selection strategies for the BaB engine. *)

type strategy = Fifo | Lifo | Best_first

let strategy_name = function Fifo -> "fifo" | Lifo -> "lifo" | Best_first -> "best"

let all_strategies = [ Fifo; Lifo; Best_first ]

let strategy_of_string s = List.find_opt (fun st -> strategy_name st = s) all_strategies

(* Min-heap over (priority, seq): among equal priorities the earliest
   push wins, so Best_first is deterministic. *)
type 'a heap = { mutable arr : (float * int * 'a) array; mutable len : int }

let heap_less (p1, s1, _) (p2, s2, _) = p1 < p2 || (p1 = p2 && s1 < s2)

let heap_push h entry =
  if h.len = Array.length h.arr then begin
    let grown = Array.make (max 8 (2 * h.len)) entry in
    Array.blit h.arr 0 grown 0 h.len;
    h.arr <- grown
  end;
  h.arr.(h.len) <- entry;
  h.len <- h.len + 1;
  (* sift up *)
  let i = ref (h.len - 1) in
  while
    !i > 0
    &&
    let parent = (!i - 1) / 2 in
    heap_less h.arr.(!i) h.arr.(parent)
  do
    let parent = (!i - 1) / 2 in
    let tmp = h.arr.(parent) in
    h.arr.(parent) <- h.arr.(!i);
    h.arr.(!i) <- tmp;
    i := parent
  done

let heap_pop h =
  if h.len = 0 then None
  else begin
    let top = h.arr.(0) in
    h.len <- h.len - 1;
    if h.len > 0 then begin
      h.arr.(0) <- h.arr.(h.len);
      (* sift down *)
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let smallest = ref !i in
        if l < h.len && heap_less h.arr.(l) h.arr.(!smallest) then smallest := l;
        if r < h.len && heap_less h.arr.(r) h.arr.(!smallest) then smallest := r;
        if !smallest = !i then continue := false
        else begin
          let tmp = h.arr.(!smallest) in
          h.arr.(!smallest) <- h.arr.(!i);
          h.arr.(!i) <- tmp;
          i := !smallest
        end
      done
    end;
    let _, _, v = top in
    Some v
  end

(* Only the heap stores the push priority. *)
type 'a repr = Queue of 'a Queue.t | Stack of 'a list ref | Heap of 'a heap

type 'a t = { repr : 'a repr; mutable count : int; mutable seq : int }

let create strategy =
  let repr =
    match strategy with
    | Fifo -> Queue (Queue.create ())
    | Lifo -> Stack (ref [])
    | Best_first -> Heap { arr = [||]; len = 0 }
  in
  { repr; count = 0; seq = 0 }

let length t = t.count

let is_empty t = t.count = 0

let push t ~priority x =
  (* NaN priorities (unbounded nodes, e.g. fresh leaves of a reused
     tree) sort first: nothing is known about them yet. *)
  let priority = if Float.is_nan priority then neg_infinity else priority in
  (match t.repr with
  | Queue q -> Queue.add x q
  | Stack s -> s := x :: !s
  | Heap h -> heap_push h (priority, t.seq, x));
  t.seq <- t.seq + 1;
  t.count <- t.count + 1

let pop t =
  let popped =
    match t.repr with
    | Queue q -> Queue.take_opt q
    | Stack s -> ( match !s with [] -> None | x :: rest -> s := rest; Some x)
    | Heap h -> heap_pop h
  in
  (match popped with Some _ -> t.count <- t.count - 1 | None -> ());
  popped
