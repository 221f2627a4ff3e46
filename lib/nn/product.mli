(** Product networks.

    [product a b] is a single network over the shared input computing
    the concatenation [a(x) ++ b(x)]: each layer is the block-diagonal
    combination of the two networks' layers (convolutions are lowered to
    their dense form).  Differential properties of the pair — "outputs
    differ by at most delta" — become ordinary linear properties of the
    product, so the whole complete-verification stack (including
    incremental verification) applies to differential verification, the
    §7 "complementary to ReluDiff" direction of the paper. *)

val product : Network.t -> Network.t -> Network.t
(** @raise Invalid_argument unless the networks have the same input
    dimension, the same number of layers, and matching activations per
    layer. *)
