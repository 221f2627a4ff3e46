(** LP / MILP encodings of verification subproblems.

    There is one {e persistent} encoding, the triangle relaxation
    {!Triangle}, and two one-shot builders, {!build_lp} (the same
    triangle) and {!milp} (the exact big-M MILP).  Each turns a
    (network, property, box, splits) subproblem into an
    {!Ivan_lp.Lp.problem}.  The one-shot builders encode one subproblem
    from its own box and DeepPoly bounds and serve that subproblem
    alone.  {!Triangle} is built once per (network, property) pair and
    then {e specialized} per branch-and-bound node by mutating only
    variable bounds and the row slots of affected units.  Because every
    node of a property shares one LP of fixed shape, a parent node's
    simplex basis ({!Ivan_lp.Lp.Basis.t}) is directly installable in its
    children, which is what makes {!Ivan_lp.Lp.solve_from} warm starts
    possible.

    {!Triangle} is built from the property root's DeepPoly bounds: the
    DeepPoly run of [prop.input] with no splits.  A caller that has just
    run exactly that pass (the analyzer's call at the property root)
    hands its bounds in as [?root], and the build then runs no DeepPoly
    of its own; without [?root] the build runs it.  Bounds of any other
    subproblem (a split node, a sub-box) must never be passed: they hold
    only on that subproblem, so every other node's LP built from them
    could cut off its true region.  Pre-activations are composed as
    sparse affine expressions over the variables, so a build costs the
    weights' nonzeros times the expressions' nonzeros, not times the
    variable count.

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
    verdicts cannot flip, but a replayed node's bound may rise.

    {b Row keys.}  Every row of a triangle encoding has a key that
    depends only on the network's architecture: [unit * 6 + slot], where
    [unit] numbers the outputs of all layers in layer order and [slot]
    is the row's kind within its unit ([row_a]..[row_d] are 0..3, a
    smooth unit's [row_hi]/[row_lo] 4 and 5).  The input box lives in
    variable bounds and the objective in the cost vector, so there are
    no input or objective rows to key.  Keys survive re-encodes and name
    the same row in two networks of one architecture, whatever each
    substitutes away, and they increase with the row index.  They let the multipliers that proved a node of
    one run be tried on the same node of another ({!Triangle.transfer}). *)

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

  val build : ?root:Bounds.t -> Network.t -> prop:Prop.t -> t option
  (** Build the per-property encoding from the property root's DeepPoly
      bounds: [root] when given, which must be the bounds of
      [Deeppoly.analyze net ~box:prop.input ~splits:Splits.empty] and of
      nothing else, else the build's own run of that pass.  [None] when
      the root itself is DeepPoly-infeasible (the property is vacuously
      true everywhere, so no LP is ever needed). *)

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

  val keys : t -> int array
  (** The key of every row of the current problem (see above).  The
      array belongs to the current shape and is never written: hold it
      beside multipliers of a solve of this shape. *)

  val transfer : t -> keys:int array -> y:float array -> float array option
  (** Row multipliers [y], with [keys.(i)] the key of the row [y.(i)]
      multiplied (another node's, another re-encode's, or another
      network's of the same architecture), carried onto the current
      problem's rows by key: a row the current problem lacks drops its
      multiplier, a row [keys] lacks gets 0, and each multiplier is
      clamped to the sign its new row admits.  Any result is a valid
      weak-duality multiplier vector, so its bound is sound whatever [y]
      was (a NaN stays NaN, and the bound's evaluation refuses it).
      Keys are matched by one merge, so [keys] out of increasing order
      only loses matches.  [None] when [keys] and [y] differ in
      length. *)

  val crash : t -> upper:bool array -> Lp.Basis.t option
  (** A start basis for a cold {!Ivan_lp.Lp.solve} of the current
      specialization, built by a concrete forward pass.  Input [j] rests
      on its upper box end when [upper.(j)], else on its lower one.
      Every unit whose exact value under that point lies strictly inside
      its variable bounds is basic in its tight row (A, [pre - v <= 0],
      when active; C, [slope*pre - v <= 0], when leaky and inactive)
      with that row's slack at 0.  Every other variable rests on the
      bound it reaches, and every other row keeps its own slack basic.
      The basis is primal feasible exactly when the point satisfies the
      node's rows; otherwise (a corner outside a split, say) the
      solver's dual simplex repairs it.  [None] for an
      encoding with smooth units, or a variable that would rest on an
      infinite bound.  @raise Invalid_argument when [upper] does not
      have the input dimension. *)
end

val milp :
  Network.t ->
  prop:Prop.t ->
  box:Box.t ->
  splits:Splits.t ->
  bounds:Bounds.t ->
  Lp.problem * float * int list
(** The big-M MILP encoding of one subproblem, built from its own [box]
    and [bounds] for it alone, as {!build_lp} builds the triangle.
    Returns the problem, the objective constant (the subproblem's
    optimum is [objective + constant]) and the indicator variables,
    including ones a split pins to one phase (pinned binaries are
    integral by their bounds, so the MILP search never branches on
    them).  @raise Mismatch as {!build_lp}.
    @raise Invalid_argument on networks that are not plain ReLU. *)
