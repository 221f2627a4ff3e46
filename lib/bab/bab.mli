(** Branch-and-bound complete verification (Algorithms 1 and 3).

    The verifier repeatedly bounds the subproblems of the frontier with
    an analyzer and branches the unsolved ones with a heuristic, growing
    a specification tree that records the trace.  Starting from a
    non-trivial initial tree gives the paper's incremental verifier
    [V_Delta]: the frontier is initialized with the leaves of the
    supplied tree.

    [verify] is a thin wrapper over the explicit-state {!Engine}
    ([Engine.create] + [Engine.run]); its types are the engine's, so
    runs from either interface interoperate.  Under the default [Fifo]
    strategy it reproduces the original breadth-first traversal
    exactly. *)

type budget = Engine.budget = {
  max_analyzer_calls : int;
  max_seconds : float;  (** wall-clock limit; [infinity] disables it *)
}

val default_budget : budget
(** 10_000 analyzer calls, no time limit. *)

type stats = Engine.stats = {
  analyzer_calls : int;  (** bounding steps (the paper's Cost metric) *)
  branchings : int;  (** node branchings *)
  tree_size : int;  (** [|Nodes(T_f)|] *)
  tree_leaves : int;
  elapsed_seconds : float;
  analyzer_seconds : float;  (** wall-clock spent inside analyzer calls *)
  max_frontier : int;  (** largest frontier observed at a dequeue *)
  max_depth : int;  (** deepest node dequeued *)
  heuristic_failures : int;
      (** unsolved nodes the heuristic could not branch (numerical
          failure, reported distinctly from budget exhaustion) *)
  retries : int;  (** analyzer re-attempts made by the resilience layer *)
  fallback_bounds : int;
      (** nodes whose accepted bound came from a degraded analyzer *)
  faults_absorbed : int;
      (** analyzer failures swallowed instead of crashing the run *)
  lp_warm_hits : int;  (** node LPs warm-started from the parent basis *)
  lp_warm_misses : int;  (** warm attempts that fell back to cold *)
  lp_cold_solves : int;  (** node LPs solved without a warm attempt *)
  lp_pivots : int;  (** total simplex pivots across node LP solves *)
  certs_emitted : int;
      (** verified leaves whose certificate passed the emission-time
          check, float screen or exact (always 0 without [certify]) *)
  certs_unavailable : int;
      (** verified leaves left without a checkable certificate *)
}

type verdict = Engine.verdict =
  | Proved
  | Disproved of Ivan_tensor.Vec.t  (** a concrete counterexample *)
  | Exhausted  (** budget ran out — the paper's "Unknown / timeout" *)

type run = Engine.run = {
  verdict : verdict;
  tree : Ivan_spectree.Tree.t;
  stats : stats;
  artifact : Ivan_cert.Cert.Artifact.t option;
      (** proof artifact of a [certify] run (see {!Engine}); [None]
          without [certify] or on [Exhausted] *)
}

val verify :
  analyzer:Ivan_analyzer.Analyzer.t ->
  heuristic:Heuristic.t ->
  ?strategy:Frontier.strategy ->
  ?trace:Trace.sink ->
  ?budget:budget ->
  ?policy:Ivan_analyzer.Analyzer.policy ->
  ?certify:bool ->
  ?journal:Ivan_resilience.Journal.writer ->
  ?initial_tree:Ivan_spectree.Tree.t ->
  net:Ivan_nn.Network.t ->
  prop:Ivan_spec.Prop.t ->
  unit ->
  run
(** [strategy], [budget], [policy] and [certify] are the fields of an
    {!Engine.config}, defaulting to
    {!Engine.default_config}'s.  [strategy] selects the frontier
    exploration order; [trace] (default {!Trace.null}) observes every
    engine step.  [policy], when supplied, hardens the analyzer with
    {!Ivan_analyzer.Analyzer.with_fallback} (see {!Engine.create}).
    [journal], when supplied, write-ahead journals the run so it can be
    killed and resumed via {!Engine.resume} (see
    {!Engine.create}).
    [certify] collects exact-checked per-leaf proof
    certificates into the run's [artifact] — pair it with an analyzer
    built with [certify] (e.g. [Analyzer.lp_triangle ~certify:true ()]),
    otherwise every leaf counts as certificate-unavailable.
    [initial_tree] (default: a single root node) is copied, never
    mutated: the returned tree extends the copy with the run's new
    splits and records the analyzer LB of every node it bounded.
    @raise Invalid_argument if the property's box dimension does not
    match the network input. *)
