module Engine = Ivan_bab.Engine
module Analyzer = Ivan_analyzer.Analyzer
module Clock = Ivan_clock.Clock

type limits = {
  max_seconds : float;
  max_major_words : float;
  check_every : int;
  grace_seconds : float;
}

let default_limits =
  { max_seconds = infinity; max_major_words = infinity; check_every = 8; grace_seconds = 1.0 }

(* One OCaml word is 8 bytes on every platform we target. *)
let mb_words mb = mb *. 1024.0 *. 1024.0 /. 8.0

type escalation =
  | Compacted of { reason : string; freed_words : float }
  | Degraded of { analyzer : string; reason : string }
  | Shed of { reason : string }
  | Cancelled of { reason : string }

let escalation_to_string = function
  | Compacted { reason; freed_words } ->
      Printf.sprintf "compacted (%s, freed %.0f words)" reason freed_words
  | Degraded { analyzer; reason } -> Printf.sprintf "degraded to %s (%s)" analyzer reason
  | Shed { reason } -> Printf.sprintf "shed state to journal (%s)" reason
  | Cancelled { reason } -> Printf.sprintf "cancelled (%s)" reason

type outcome = {
  run : Engine.run;
  engine : Engine.t;
  escalations : escalation list;
  checks : int;
  peak_major_words : float;
}

let major_words () = float_of_int (Gc.quick_stat ()).Gc.heap_words

let supervise ~limits ?fallbacks ?(on_escalation = fun _ -> ()) engine0 =
  if limits.check_every <= 0 then invalid_arg "Supervisor.supervise: check_every must be positive";
  let fallbacks =
    match fallbacks with
    | Some l -> l
    | None -> [ Analyzer.deeppoly (); Analyzer.interval () ]
  in
  let engine = ref engine0 in
  let ladder = ref fallbacks in
  let shed_done = ref false in
  let escalations = ref [] in
  let checks = ref 0 in
  let peak = ref (major_words ()) in
  let started = Clock.monotonic () in
  let deadline = ref (started +. limits.max_seconds) in
  let record e =
    escalations := e :: !escalations;
    on_escalation e
  in
  (* One escalation rung.  Returns [false] when the ladder is exhausted
     and the caller must cancel. *)
  let escalate reason =
    match !ladder with
    | a :: rest -> (
        ladder := rest;
        match Engine.degrade !engine a with
        | Ok e ->
            engine := e;
            deadline := Clock.monotonic () +. limits.grace_seconds;
            record (Degraded { analyzer = a.Analyzer.name; reason });
            true
        | Error _ ->
            (* A checkpoint the engine just wrote failing to resume is a
               bug, but the watchdog's job is to stay alive: fall
               through to shedding. *)
            ladder := [];
            false)
    | [] ->
        if !shed_done then false
        else begin
          shed_done := true;
          Option.iter (Engine.checkpoint !engine) (Engine.journal !engine);
          Gc.compact ();
          deadline := Clock.monotonic () +. limits.grace_seconds;
          record (Shed { reason });
          true
        end
  in
  let cancel reason =
    record (Cancelled { reason });
    Engine.cancel !engine
  in
  let watchdog () =
    incr checks;
    let heap = major_words () in
    peak := max !peak heap;
    let over_mem = heap > limits.max_major_words in
    let over_time = limits.max_seconds < infinity && Clock.monotonic () > !deadline in
    if over_mem then begin
      (* Cheapest rung first: compaction, then re-measure. *)
      Gc.compact ();
      let after = major_words () in
      if after <= limits.max_major_words then begin
        record
          (Compacted
             {
               reason = Printf.sprintf "heap %.0f words over %.0f" heap limits.max_major_words;
               freed_words = heap -. after;
             });
        None
      end
      else if escalate (Printf.sprintf "heap %.0f words over %.0f" after limits.max_major_words)
      then None
      else Some (cancel "memory watermark breached with the ladder exhausted")
    end
    else if over_time then
      if escalate (Printf.sprintf "deadline exceeded (%.2fs budget)" limits.max_seconds) then
        None
      else Some (cancel "wall-clock budget exhausted with the ladder exhausted")
    else None
  in
  let steps_since = ref 0 in
  let rec loop () =
    match Engine.step !engine with
    | Engine.Finished run -> run
    | Engine.Running ->
        incr steps_since;
        if !steps_since >= limits.check_every then begin
          steps_since := 0;
          match watchdog () with Some run -> run | None -> loop ()
        end
        else loop ()
  in
  let run = loop () in
  {
    run;
    engine = !engine;
    escalations = List.rev !escalations;
    checks = !checks;
    peak_major_words = !peak;
  }
