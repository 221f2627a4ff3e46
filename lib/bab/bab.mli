(** Branch-and-bound complete verification (Algorithms 1 and 3).

    The verifier repeatedly bounds the subproblems of the frontier with
    an analyzer and branches the unsolved ones with a heuristic, growing
    a specification tree that records the trace.  Starting from a
    non-trivial initial tree gives the paper's incremental verifier
    [V_Delta]: the frontier is initialized with the leaves of the
    supplied tree.

    This is the explicit-state {!Engine} plus {!verify}, a one-call
    wrapper over [Engine.create] + [Engine.run]; the types are the
    engine's, so runs from either interface interoperate.  Under the
    default [Fifo] strategy it reproduces the original breadth-first
    traversal exactly. *)

include module type of struct
  include Engine
end

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
    {!Engine.config}, defaulting to {!Engine.default_config}'s; the rest
    is passed to {!Engine.create}, which documents them.  The returned
    tree extends a copy of [initial_tree] (default: a single root node)
    with the run's new splits and records the analyzer LB of every node
    it bounded.
    @raise Invalid_argument if the property's box dimension does not
    match the network input. *)
