(** LP / MILP encodings of verification subproblems.

    The {e persistent encodings} {!Triangle} / {!Milp} turn a
    (network, property, box, splits) subproblem into an
    {!Ivan_lp.Lp.problem}.  Each is built once per (network, property)
    pair and then {e specialized} per branch-and-bound node by mutating
    only variable bounds and the row slots of affected units.  Because
    every node of a property shares one LP of fixed shape, a parent
    node's simplex basis ({!Ivan_lp.Lp.Basis.t}) is directly installable
    in its children, which is what makes {!Ivan_lp.Lp.solve_from} warm
    starts possible.

    Units stable at the property root are substituted away by their root
    phase.  Specialization is total over splits: when a node splits such
    a unit (a specification tree built for one network and replayed on an
    updated one can), the encoding re-encodes itself once with a
    variable and row slots for that unit.  The problem shape then
    changes, so bases captured before it no longer fit (warm starts from
    them fall back cold).

    A node's LP is the same as, or tighter than, the encoding built from
    the node's own bounds ({!build_lp}): every extra constraint is a root
    DeepPoly fact, valid on the node.  Since DeepPoly is not monotone
    under splits, a unit stable at the root can be ambiguous under a
    node's bounds, and the root substitution is then strictly tighter.
    On 1,542 random subproblems of random dense ReLU nets (random
    sub-boxes, 30% of the ReLUs split), 19 had a strictly higher optimum,
    by up to 28% relative, and none a lower one.  Both LPs are sound, so
    verdicts cannot flip, but a replayed node's bound may rise. *)

module Lp = Ivan_lp.Lp
module Network = Ivan_nn.Network
module Box = Ivan_spec.Box
module Prop = Ivan_spec.Prop
module Splits = Ivan_domains.Splits
module Bounds = Ivan_domains.Bounds

exception Mismatch
(** A subproblem no encoding can represent: a box of the wrong
    dimension, or NaN or inverted bounds. *)

val build_lp :
  Network.t ->
  prop:Prop.t ->
  box:Box.t ->
  splits:Splits.t ->
  bounds:Bounds.t ->
  Lp.problem * float
(** The triangle encoding built from one subproblem's own [box] and
    [bounds] instead of the root's, with every split unit given a
    variable, and specialized to that subproblem.  Returns the problem
    and the objective constant: the subproblem's optimum is
    [lp objective + constant].  @raise Mismatch as
    {!Triangle.specialize}. *)

(** Persistent triangle-relaxation encoding. *)
module Triangle : sig
  type t

  val build : Network.t -> prop:Prop.t -> t option
  (** Build the per-property encoding from the property root's DeepPoly
      bounds.  [None] when the root itself is DeepPoly-infeasible (the
      property is vacuously true everywhere, so no LP is ever needed). *)

  val specialize : t -> box:Box.t -> splits:Splits.t -> bounds:Bounds.t -> unit
  (** Rewrite variable bounds and per-unit rows for one node's
      (box, splits, bounds), re-encoding first when a split unit has no
      variable.  After this, {!lp} is the node's triangle LP.
      @raise Mismatch on a box of the wrong dimension or NaN or inverted
      [bounds]. *)

  val lp : t -> Lp.problem
  (** The current underlying problem.  Solving it records a basis usable
      by {!Ivan_lp.Lp.solve_from} on any later specialization of the
      same encoding that does not re-encode it. *)

  val const : t -> float
  (** Objective constant, fixed between re-encodings: root-stable units
      are substituted with node-independent expressions. *)
end

(** Persistent big-M MILP encoding (plain-ReLU networks only). *)
module Milp : sig
  type t

  val build : Network.t -> prop:Prop.t -> t option
  (** [None] for a DeepPoly-infeasible property root.
      @raise Invalid_argument on networks that are not plain ReLU. *)

  val specialize : t -> box:Box.t -> splits:Splits.t -> bounds:Bounds.t -> unit
  (** As {!Triangle.specialize}. *)

  val lp : t -> Lp.problem

  val const : t -> float

  val binaries : t -> int list
  (** All indicator variables, including ones pinned to a single phase
      by the current specialization (pinned binaries are integral by
      their bounds, so the MILP search never branches on them). *)
end
