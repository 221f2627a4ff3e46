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
  escalations : escalation list;
  checks : int;
  peak_major_words : float;
}

let major_words () = float_of_int (Gc.quick_stat ()).Gc.heap_words

let supervise ~limits ?fallbacks ?(on_escalation = fun _ -> ()) engine =
  if limits.check_every <= 0 then invalid_arg "Supervisor.supervise: check_every must be positive";
  let fallbacks =
    match fallbacks with
    | Some l -> l
    | None -> [ Analyzer.deeppoly (); Analyzer.interval () ]
  in
  let ladder = ref fallbacks in
  let escalations = ref [] in
  let checks = ref 0 in
  let peak = ref (major_words ()) in
  let record e =
    escalations := e :: !escalations;
    on_escalation e
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
        match !ladder with
        | a :: rest ->
            ladder := rest;
            Engine.degrade engine a;
            record (Degraded { analyzer = a.Analyzer.name; reason });
            None
        | [] ->
            record (Cancelled { reason = reason ^ ", ladder exhausted" });
            Some (Engine.cancel engine)
    end
  in
  let steps_since = ref 0 in
  let rec loop () =
    match Engine.step engine with
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
    escalations = List.rev !escalations;
    checks = !checks;
    peak_major_words = !peak;
  }
