module Engine = Ivan_bab.Engine
module Analyzer = Ivan_analyzer.Analyzer

type limits = { max_major_words : float; check_every : int }

let default_limits = { max_major_words = infinity; check_every = 8 }

(* One OCaml word is 8 bytes on every platform we target. *)
let mb_words mb = mb *. 1024.0 *. 1024.0 /. 8.0

type escalation =
  | Compacted of { reason : string; freed_words : float }
  | Degraded of { analyzer : string; reason : string }
  | Cancelled of { reason : string }

let escalation_to_string = function
  | Compacted { reason; freed_words } ->
      Printf.sprintf "compacted (%s, freed %.0f words)" reason freed_words
  | Degraded { analyzer; reason } -> Printf.sprintf "degraded to %s (%s)" analyzer reason
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
  let escalations = ref [] in
  let checks = ref 0 in
  let peak = ref (major_words ()) in
  let record e =
    escalations := e :: !escalations;
    on_escalation e
  in
  (* One degradation rung, or why the run must be cancelled instead: the
     ladder is exhausted, or a checkpoint the engine just wrote failed to
     resume — a bug, but the watchdog's job is to stay alive. *)
  let escalate reason =
    match !ladder with
    | [] -> Error (reason ^ ", ladder exhausted")
    | a :: rest -> (
        ladder := rest;
        match Engine.degrade !engine a with
        | Ok e ->
            engine := e;
            record (Degraded { analyzer = a.Analyzer.name; reason });
            Ok ()
        | Error msg ->
            Error (Printf.sprintf "%s, degrading to %s failed: %s" reason a.Analyzer.name msg))
  in
  let watchdog () =
    incr checks;
    let heap = major_words () in
    peak := max !peak heap;
    if heap <= limits.max_major_words then None
    else begin
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
      else
        let reason = Printf.sprintf "heap %.0f words over %.0f" after limits.max_major_words in
        match escalate reason with
        | Ok () -> None
        | Error reason ->
            record (Cancelled { reason });
            Some (Engine.cancel !engine)
    end
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
