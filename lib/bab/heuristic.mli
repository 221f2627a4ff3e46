(** Branching heuristics (Definition 9).

    A heuristic scores the candidate branching decisions of an unsolved
    node; BaB splits on the argmax.  Scores are computed from the
    analyzer's outcome at that node, so a heuristic is a function of the
    exact subproblem — [phi], [psi], the network, and the splits made so
    far — as in the paper. *)

type context = {
  net : Ivan_nn.Network.t;
  prop : Ivan_spec.Prop.t;
  box : Ivan_spec.Box.t;  (** subproblem input box *)
  splits : Ivan_domains.Splits.t;
  outcome : Ivan_analyzer.Analyzer.outcome;
}

type t = { name : string; scores : context -> (Ivan_spectree.Decision.t * float) list }
(** [scores] lists every candidate decision with its score; an empty
    list means the node cannot be branched further. *)

val best : (Ivan_spectree.Decision.t * float) list -> Ivan_spectree.Decision.t option
(** Argmax with deterministic tie-breaking (smaller decision wins). *)

val zono_coeff : t
(** ReLU splitting scored by the zonotope noise-coefficient of each
    ambiguous ReLU in the objective — the indirect-effect estimate of
    Henriksen & Lomuscio 2021 (the paper's default H).  Falls back to
    {!width} scores when the outcome has no zonotope run. *)

val width : t
(** ReLU splitting scored by [min(-lb, ub)] of the pre-activation — a
    cheap BaBSR-flavoured ambiguity measure. *)

val random : seed:int -> t
(** ReLU splitting with pseudo-random scores (Ehlers 2017 / Katz et al.
    2017 style), deterministic in [seed] and the ReLU identity. *)

val input_smear : t
(** Input splitting on the dimension maximizing width times accumulated
    absolute weight influence on the objective (a smear heuristic; the
    "strong branching strategy" stand-in for the §6.4 baseline). *)
