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
  budget : Ivan_bab.Bab.budget;
  strategy : Ivan_bab.Frontier.strategy;
      (** frontier exploration order used by every BaB run of the
          setting (original, baseline and incremental alike) *)
  policy : Ivan_analyzer.Analyzer.policy;
      (** resilience (retry / fallback / node-timeout) policy used by
          every BaB run of the setting *)
  certify : bool;
      (** collect exact-checked proof certificates on every BaB run of
          the setting; the analyzer must be built with its matching
          [certify] flag ({!classifier_setting} does this itself) *)
  journal_dir : string option;
      (** when set, every BaB run journals to
          [<dir>/instance-<id>-<phase>.wal] (phases: [original],
          [baseline], one per technique name) — one file per run, so
          parallel instances never share a sink and a crash leaves an
          unambiguous journal to resume from
          ({!Ivan_bab.Engine.resume}).  The directory is
          created if missing (one level). *)
}

val classifier_setting :
  ?budget:Ivan_bab.Bab.budget ->
  ?strategy:Ivan_bab.Frontier.strategy ->
  ?policy:Ivan_analyzer.Analyzer.policy ->
  ?lp_warm:bool ->
  ?certify:bool ->
  ?journal_dir:string ->
  unit ->
  setting
(** LP triangle analyzer + zonotope-coefficient ReLU splitting (the
    paper's §6.1 baseline stack).  Default budget: 400 calls, 30 s;
    default strategy: [Fifo]; default policy:
    {!Ivan_analyzer.Analyzer.default_policy}.  [lp_warm] (default true)
    warm-starts each node's LP from the parent's simplex basis; verdicts
    and trees are identical either way (the CLI exposes it as
    [--lp-warm] / [--no-lp-warm]).  [certify] (default false) makes
    every BaB run of the setting emit a proof artifact (the CLI's
    [--certify]); verdicts and trees are again identical, only
    certificates and their exact self-checks are added. *)

val acas_setting :
  ?budget:Ivan_bab.Bab.budget ->
  ?strategy:Ivan_bab.Frontier.strategy ->
  ?policy:Ivan_analyzer.Analyzer.policy ->
  ?journal_dir:string ->
  unit ->
  setting
(** Zonotope analyzer + smear input splitting (§6.4 stack).  Default
    budget: 3000 calls, 60 s; default strategy: [Fifo]; default policy:
    {!Ivan_analyzer.Analyzer.default_policy}. *)

type measurement = {
  verdict : Ivan_bab.Bab.verdict;
  calls : int;
  seconds : float;
  tree_size : int;
  tree_leaves : int;
  retries : int;  (** analyzer re-attempts by the resilience layer *)
  fallback_bounds : int;  (** nodes bounded by a degraded analyzer *)
  faults_absorbed : int;  (** analyzer failures swallowed *)
  certs_emitted : int;  (** leaf certificates emitted (certify runs) *)
  certs_unavailable : int;  (** verified leaves without a certificate *)
  artifact : Ivan_cert.Cert.Artifact.t option;
      (** the run's proof artifact under [certify] (see
          {!Ivan_bab.Bab.run}) *)
}

val solved : measurement -> bool
(** Proved or disproved within budget. *)

type comparison = {
  instance : Workload.instance;
  original : measurement;  (** verifying [N] from scratch *)
  baseline : measurement;  (** verifying [N^a] from scratch *)
  techniques : (Ivan_core.Ivan.technique * measurement) list;
      (** verifying [N^a] incrementally *)
}

val run_instance :
  setting ->
  net:Ivan_nn.Network.t ->
  updated:Ivan_nn.Network.t ->
  techniques:Ivan_core.Ivan.technique list ->
  alpha:float ->
  theta:float ->
  Workload.instance ->
  comparison
(** The original run is shared across all techniques of the instance. *)

val run_all :
  ?domains:int ->
  setting ->
  net:Ivan_nn.Network.t ->
  updated:Ivan_nn.Network.t ->
  techniques:Ivan_core.Ivan.technique list ->
  alpha:float ->
  theta:float ->
  Workload.instance list ->
  comparison list
(** [domains] > 1 runs instances in parallel on that many OCaml 5
    domains (default 1, sequential).  Instances are independent; the
    networks' dense caches are forced up front so the shared structures
    are read-only during the parallel section.  Results keep the input
    order.  Per-instance wall times remain meaningful; aggregate time
    speedups are unaffected because baseline and incremental runs of an
    instance stay on the same domain. *)
