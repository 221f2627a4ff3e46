(** Watchdog supervision of a verification run.

    {!supervise} drives [Engine.step] under a wall-clock deadline and a
    major-heap memory watermark (sampled with [Gc.quick_stat], so checks
    are cheap enough to run every few steps).  When a budget is
    breached the supervisor does not kill the run — it escalates through
    graceful degradation:

    + a memory breach first tries [Gc.compact] (the cheap fix: most of
      the engine's garbage is short-lived analyzer state);
    + then the engine is checkpointed and resumed with the next,
      cheaper analyzer from the fallback ladder ({!Engine.degrade}),
      with its trace sink, journal and config unchanged, which both
      shrinks the working set and speeds up the remaining nodes — on a
      time breach the deadline is extended by the configured grace;
    + with the ladder exhausted, the frontier is shed to the journal
      (one extra Checkpoint frame folding the full engine state) and the
      heap compacted once more;
    + and only then does the run end, via [Engine.cancel]: a clean
      [Exhausted] verdict with the journal flushed, never a crash.

    Every rung is reported through [on_escalation] and collected in the
    outcome, so callers can tell a clean run from a degraded one. *)

module Engine = Ivan_bab.Engine
module Analyzer = Ivan_analyzer.Analyzer

type limits = {
  max_seconds : float;  (** wall-clock deadline; [infinity] disables *)
  max_major_words : float;
      (** major-heap watermark in words ([Gc.quick_stat ()].heap_words);
          [infinity] disables *)
  check_every : int;  (** engine steps between watchdog checks *)
  grace_seconds : float;
      (** extra wall-clock granted after each escalation rung, so a
          degraded run gets a chance to finish before the next rung *)
}

val default_limits : limits
(** No deadline, no watermark, a check every 8 steps, 1s grace —
    supervision that only ever watches. *)

val mb_words : float -> float
(** Convert a budget in megabytes to major-heap words for
    [max_major_words]. *)

type escalation =
  | Compacted of { reason : string; freed_words : float }
      (** a [Gc.compact] absorbed a memory breach *)
  | Degraded of { analyzer : string; reason : string }
      (** the run was checkpointed and resumed onto a cheaper analyzer *)
  | Shed of { reason : string }
      (** full state folded into the journal and the heap compacted *)
  | Cancelled of { reason : string }
      (** budgets stayed breached: the run was ended cleanly *)

val escalation_to_string : escalation -> string

type outcome = {
  run : Engine.run;
  engine : Engine.t;
      (** the engine that finished — not the input engine if a
          degradation rebuilt it mid-run *)
  escalations : escalation list;  (** oldest first; [[]] = clean run *)
  checks : int;  (** watchdog checks performed *)
  peak_major_words : float;  (** largest heap sample observed *)
}

val supervise :
  limits:limits ->
  ?fallbacks:Analyzer.t list ->
  ?on_escalation:(escalation -> unit) ->
  Engine.t ->
  outcome
(** Drive the engine to completion under [limits].  [fallbacks] is the
    degradation ladder, tried in order (default
    [[Analyzer.deeppoly (); Analyzer.interval ()]]); each rung is an
    {!Engine.degrade}, which keeps the engine's heuristic, config, trace
    sink and journal.  When the engine journals, degradations append a
    fresh Checkpoint frame through the resume path and [Shed] folds the
    state explicitly, so a kill at any escalation point still
    resumes. *)
