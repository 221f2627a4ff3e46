(** DeepPoly-style polyhedral abstract interpreter.

    Every neuron carries one symbolic lower and one symbolic upper
    linear bound over the previous layer; concrete bounds are obtained
    by back-substituting these expressions down to the input box (Singh
    et al. POPL 2019).  Split assumptions fix ReLU phases exactly.

    This is the bound engine behind the LP analyzer: the triangle
    relaxation needs tight pre-activation intervals for every ambiguous
    ReLU. *)

type analysis

type result = Feasible of analysis | Infeasible

type parent
(** What a child run resumes from: a feasible run's network, box,
    splits and per-neuron bounds — O(neurons) beyond the shared network
    and box, none of the symbolic rows. *)

val as_parent : analysis -> parent

val analyze :
  ?parent:parent -> Ivan_nn.Network.t -> box:Ivan_spec.Box.t -> splits:Splits.t -> result
(** [parent] lets a BaB child skip the back-substitution of the layers
    its new splits leave alone.  It applies when it analyzed the same
    network (physically) over a box with bit-equal corners, with splits
    that are a subset of [splits] (same units, same phases).  With [l]
    the lowest layer of the units [splits] adds, the run then takes the
    pre-activation bounds of layers [<= l] from [parent], rebuilds those
    layers' symbolic bounds from them, and back-substitutes only layers
    above [l].  The result is bit for bit the result without [parent];
    a parent that does not apply is ignored.
    @raise Invalid_argument on box/network dimension mismatch. *)

val bounds : analysis -> Bounds.t

val objective_itv : analysis -> c:Ivan_tensor.Vec.t -> offset:float -> Itv.t
(** Bound on [c . Y + offset] obtained by back-substituting the
    objective through the whole network — tighter than combining
    per-output interval bounds. *)
