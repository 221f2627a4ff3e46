(** Pruned specification-tree construction (paper Algorithm 4).

    Rebuilds the final tree of [N]'s verification top-down, skipping
    "bad" splits — nodes whose observed improvement [I_N(n, r)] falls
    below [theta].  When a bad split is skipped, the rebuild continues
    from the child with the smaller LB increase (Equation 8), so the
    kept subtree is the better match for the branching decisions that
    would follow.

    Improvements are normalized by the largest |I_N| in the tree before
    the [theta] comparison, so the same [theta] grid is meaningful
    across instances (and matches the [H_Delta] normalization). *)

val prune :
  ?trace:Ivan_bab.Trace.sink -> theta:float -> Ivan_spectree.Tree.t -> Ivan_spectree.Tree.t
(** Returns a fresh tree; the input is not modified.  Nodes without LB
    annotations are kept as-is (their improvement is unknown, so their
    splits are never judged bad).  Every kept node carries its source's
    LB and multiplier annotation ({!Ivan_spectree.Tree.multipliers}); a
    leaf left where a bad split was skipped takes the kept child's
    multipliers.  [trace] (default null) receives one [Pruned] event
    per skipped split. *)
