(** Mixed 0-1 integer programming by branch and bound over {!Lp}.

    Minimizes the LP objective with a designated subset of variables
    restricted to {0, 1}.  Branching is depth-first on the most
    fractional binary (best-bound tie-breaking comes from the DFS order
    visiting the more promising side first); nodes are pruned against
    the incumbent.  Supports warm starting on two levels: an incumbent
    bound carried across solves (the setting of the paper's §7
    MILP-warm-start comparison), and — within one solve — each child
    node's LP re-priced from its parent's optimal simplex basis via
    {!Lp.solve_from}, since a child differs from its parent only in one
    binary's bounds. *)

type stats = {
  nodes : int;
  lp_solves : int;
  warm_hits : int;  (** node LPs answered from the parent basis *)
  warm_misses : int;
      (** node LPs that abandoned the parent basis and were answered
          from the slack basis.  The node LPs solved without a parent
          basis (the root: every optimal node captures one) are
          [lp_solves - warm_hits - warm_misses]. *)
}

type result =
  | Optimal of { objective : float; primal : float array; stats : stats }
  | Infeasible of stats
  | Node_limit of stats
      (** the node cap was hit before the search finished; no exact
          answer (incumbent, if any, is not returned to keep misuse
          hard) *)
  | Solver_failure of stats
      (** an inner LP raised {!Lp.Iteration_limit} or
          {!Lp.Numerical_failure}; the search is incomplete, so no exact
          answer.  Problem bounds are restored before returning. *)

val solve :
  ?max_nodes:int ->
  ?incumbent:float ->
  Lp.problem ->
  integer:int list ->
  result
(** [solve p ~integer] minimizes over [p] with the [integer] variables
    binary.  The problem's bounds are temporarily tightened during the
    search and restored before it returns or raises.  [incumbent] is a known upper
    bound on the optimum (e.g. from a feasible point or a previous
    solve); branches whose LP relaxation cannot beat it are pruned, and
    if no solution improves on it the result is [Infeasible] (meaning:
    the true optimum is at least [incumbent]).  Each child node's LP is
    re-priced from its parent's basis ({!Lp.solve_from}, which falls
    back to the slack basis rather than alter an answer), so only the
    root is solved without one.  Binary variables must have bounds
    within [0, 1].
    Inner LP failures ({!Lp.Iteration_limit}, {!Lp.Numerical_failure})
    are absorbed into [Solver_failure] rather than escaping.
    @raise Invalid_argument on out-of-range or mis-bounded binaries. *)
