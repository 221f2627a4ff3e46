(* In-memory spans for the traced run.

   A span is a named interval on the monotonic clock with a parent and
   the instance it belongs to.  Spans nest by a stack, since the loop is
   single-threaded: a span opened while another is open is its child.
   Nothing is written until the run ends. *)

module Clock = Ivan_clock.Clock

type t = {
  id : int;
  name : string;
  parent : int;  (** -1 at the top *)
  instance : int;  (** -1 outside any instance *)
  start : float;
  stop : float;
  replayed : bool;
      (** a pass re-run after the traced pass and laid out inside the
          analyzer call it reproduces; its own duration is measured, its
          position is not *)
}

let recorded : t list ref = ref []

let count = ref 0

let stack : (int * float) list ref = ref []

let instance = ref (-1)

let reset () =
  recorded := [];
  count := 0;
  stack := [];
  instance := -1

let fresh () =
  let id = !count in
  incr count;
  id

let current () = match !stack with (id, _) :: _ -> id | [] -> -1

let add ?(instance = !instance) ~id ~name ~parent ~start ~stop ~replayed () =
  recorded := { id; name; parent; instance; start; stop; replayed } :: !recorded

(* Open and close by hand, for boundaries that are two callbacks (a
   journal frame's emit and flush). *)
let enter name =
  let id = fresh () in
  stack := (id, Clock.monotonic ()) :: !stack;
  (id, name)

let leave (id, name) =
  match !stack with
  | (top, start) :: rest when top = id ->
      stack := rest;
      add ~id ~name ~parent:(current ()) ~start ~stop:(Clock.monotonic ()) ~replayed:false ()
  | _ -> invalid_arg "Spans.leave: not the innermost open span"

let with_span name f =
  let s = enter name in
  match f () with
  | v ->
      leave s;
      v
  | exception e ->
      leave s;
      raise e

(* A span whose end is now and whose length was measured by the callee
   (the [elapsed] of [Analyzer.instrument]). *)
let closed name ~elapsed =
  let id = fresh () in
  let stop = Clock.monotonic () in
  let start = stop -. elapsed in
  add ~id ~name ~parent:(current ()) ~start ~stop ~replayed:false ();
  (id, start)

let all () = List.rev !recorded

let duration s = s.stop -. s.start

(* Self time: duration minus the part its children cover.  Children are
   sequential (one thread), so that part is the sum of their durations,
   clipped to the parent. *)
let self_times spans =
  let covered = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace covered s.parent
          (duration s +. Option.value ~default:0.0 (Hashtbl.find_opt covered s.parent)))
    spans;
  fun s ->
    Float.max 0.0 (duration s -. Option.value ~default:0.0 (Hashtbl.find_opt covered s.id))

let to_jsonl path spans =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\":%d,\"name\":%S,\"parent\":%d,\"instance\":%d,\"start\":%.9f,\"end\":%.9f%s}\n"
            s.id s.name s.parent s.instance s.start s.stop
            (if s.replayed then ",\"replayed\":true" else ""))
        spans)
