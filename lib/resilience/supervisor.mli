(** Watchdog supervision of a verification run.

    {!supervise} drives [Engine.step] under a major-heap memory
    watermark (sampled with [Gc.quick_stat], so checks are cheap enough
    to run every few steps); the engine's own [budget.max_seconds]
    bounds its time.  When the watermark is breached the supervisor does
    not kill the run — it escalates through graceful degradation:

    + every breach first tries [Gc.compact] (the cheap fix: most of the
      engine's garbage is short-lived analyzer state);
    + then the engine continues in place on the next, cheaper analyzer
      from the fallback ladder ({!Engine.degrade}), with its tree,
      frontier, trace sink, journal and config unchanged, which both
      shrinks the working set and speeds up the remaining nodes;
    + and with the ladder exhausted, the run ends via [Engine.cancel]: a clean [Exhausted] verdict with the
      journal flushed, never a crash.  Every Step frame is flushed as it
      is written, so the journal needs no extra frame to resume.

    Every rung is reported through [on_escalation] and collected in the
    outcome, so callers can tell a clean run from a degraded one. *)

module Engine = Ivan_bab.Engine
module Analyzer = Ivan_analyzer.Analyzer

type limits = {
  max_major_words : float;
      (** major-heap watermark in words ([Gc.quick_stat ()].heap_words);
          [infinity] disables *)
  check_every : int;  (** engine steps between watchdog checks *)
}

val default_limits : limits
(** No watermark, a check every 8 steps — supervision that only ever
    watches. *)

val mb_words : float -> float
(** Convert a budget in megabytes to major-heap words for
    [max_major_words]. *)

type escalation =
  | Compacted of { reason : string; freed_words : float }
      (** a [Gc.compact] absorbed a memory breach *)
  | Degraded of { analyzer : string; reason : string }
      (** the run continued on a cheaper analyzer *)
  | Cancelled of { reason : string }
      (** budgets stayed breached: the run was ended cleanly *)

val escalation_to_string : escalation -> string

type outcome = {
  run : Engine.run;
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
    {!Engine.degrade} of the engine itself, which keeps its heuristic,
    config, trace sink and journal.  When the engine journals, it keeps
    appending Step frames to the same run, so a kill at any escalation
    point still resumes. *)
