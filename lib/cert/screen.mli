(** Float-only screen for leaf certificates.

    {!Cert.check_leaf} re-derives a leaf's weak-duality bound in exact
    arithmetic, which is costly.  This screen recomputes the same bound
    in binary64 floats, together with a rigorous a-priori bound on the
    rounding error (in the style of Neumaier and Shcherbina, "Safe
    bounds in linear and mixed-integer programming", 2004): a [γ_n]
    term for every dot product, one underflow term per operation, and
    an interval [[d_j - e_j, d_j + e_j]] for each reduced cost, which
    needs both variable bounds finite whenever it straddles 0.

    It answers [true] only when every condition {!Cert.check_leaf}
    enforces holds for certain: array shapes, the input binding to the
    property box, finiteness, multiplier signs, and
    [bound - error >= -const] ([> 0] for a Farkas witness).  Otherwise
    it answers [false], meaning "don't know" — never "rejected".

    The screen is {b not} part of the trusted base: the artifact checker
    never consults it.  It only decides, at emission time, whether the
    exact check may be skipped because it is certain to pass.

    The same bound is how the analyzer closes a node with multipliers
    carried over from an earlier run ({!proves}), read from a snapshot
    of the node's LP that then serves as the leaf's evidence. *)

val passes : box:Ivan_spec.Box.t -> Cert.leaf -> bool
(** [true] only if [Cert.check_leaf ~box leaf] returns [Ok ()]. *)

val proves : Cert.Snapshot.t -> const:float -> Ivan_lp.Lp.Certificate.t -> float option
(** The verdict row multipliers prove on the snapshot's problem, under
    the same rounding model as {!passes}: for [Dual y], [Some lb] with
    [0 <= lb <=] the exact weak-duality bound plus [const], when that
    sum is certainly [>= 0]; for [Farkas y], [Some infinity] when the
    witness certainly shows the problem infeasible.  [None] — don't
    know — otherwise, including a multiplier that is not finite or has
    a sign its row does not admit, or a length other than the row
    count. *)
