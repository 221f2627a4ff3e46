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
    exact check may be skipped because it is certain to pass. *)

val passes : box:Ivan_spec.Box.t -> Cert.leaf -> bool
(** [true] only if [Cert.check_leaf ~box leaf] returns [Ok ()]. *)
