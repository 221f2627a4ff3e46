(** Observed split effectiveness (paper Equations 5 and 6).

    From the final specification tree of verifying [N], each internal
    node [n] split by decision [r] yields the improvement
    [I_N(n, r) = min(LB(n_l) - LB(n), LB(n_r) - LB(n))]; the observed
    score [H_obs(r)] averages the improvement over every node where [r]
    was split.  Infinite LB values (vacuously verified children) are
    clamped to magnitude 1e6 so scores stay finite. *)

val improvement : Ivan_spectree.Tree.node -> float option
(** [I_N(n, r)] for an internal node; [None] for leaves and for nodes
    missing an LB on themselves or a child. *)

type table
(** [H_obs]: observed effectiveness per decision. *)

val observe : Ivan_spectree.Tree.t -> table
(** Equation 6 over the whole tree. *)

val score : table -> Ivan_spectree.Decision.t -> float option
(** [H_obs(r)]; [None] when [r] was never split in the observed tree. *)

val max_abs_score : table -> float
(** Largest |H_obs| in the table; [0.] for an empty table.  Used to
    normalize observed scores against heuristic scores. *)
