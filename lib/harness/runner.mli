(** Experiment runner: baseline vs. incremental techniques.

    For each instance, runs the non-incremental verifier on the original
    network once (producing the reusable proof tree), the baseline
    verifier on the updated network from scratch, and each requested
    IVAN technique on the updated network — collecting the paper's cost
    metrics (analyzer calls, the hardware-independent Cost column) and
    wall-clock time. *)

type setting = {
  analyzer : Ivan_analyzer.Analyzer.t;
  heuristic : Ivan_bab.Heuristic.t;
  config : Ivan_core.Ivan.config;
      (** drives every BaB run of the setting — original, baseline and
          incremental alike; its [technique] is replaced per run *)
}

val classifier_setting : ?config:Ivan_core.Ivan.config -> unit -> setting
(** LP triangle analyzer (warm-started, certifying when
    [config.certify] is set) + zonotope-coefficient ReLU splitting (the
    paper's §6.1 baseline stack).  Default config:
    {!Ivan_core.Ivan.default_config} with a budget of 400 calls, 30 s. *)

val acas_setting : ?config:Ivan_core.Ivan.config -> unit -> setting
(** Zonotope analyzer + smear input splitting (§6.4 stack).  Default
    config: {!Ivan_core.Ivan.default_config} with a budget of 3000
    calls, 60 s. *)

type timed = {
  run : Ivan_bab.Bab.run;  (** its [stats] carry the calls, tree and resilience counters *)
  seconds : float;
      (** wall time of the whole call, an incremental run's tree pruning
          and [H_Delta] construction included *)
}

val solved : timed -> bool
(** Proved or disproved within budget. *)

val calls : timed -> int
(** The run's analyzer calls, the paper's Cost metric. *)

type comparison = {
  instance : Workload.instance;
  original : timed;  (** verifying [N] from scratch *)
  baseline : timed;  (** verifying [N^a] from scratch *)
  techniques : (Ivan_core.Ivan.technique * timed) list;
      (** verifying [N^a] incrementally *)
}

val run_all :
  ?domains:int ->
  setting ->
  net:Ivan_nn.Network.t ->
  updated:Ivan_nn.Network.t ->
  techniques:Ivan_core.Ivan.technique list ->
  Workload.instance list ->
  comparison list
(** [domains] > 1 runs instances in parallel on that many OCaml 5
    domains (default 1, sequential).  Instances are independent; the
    networks' dense caches are forced up front so the shared structures
    are read-only during the parallel section.  Results keep the input
    order.  Per-instance wall times remain meaningful; aggregate time
    speedups are unaffected because baseline and incremental runs of an
    instance stay on the same domain.
    @raise Invalid_argument if [domains] > 1 and [config.journal] is
    set: the journal is one sink, and parallel runs would interleave
    their frames in it.  The check runs before any domain is spawned. *)
