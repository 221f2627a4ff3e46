(** Differential bounds between two networks (ReluDiff-flavoured).

    Bounds each coordinate of [N(x) - N'(x)] over an input box by
    running the zonotope analysis on both networks with {e shared} input
    noise symbols: the affine parts cancel exactly, and only the two
    networks' independent ReLU-approximation symbols contribute slack.
    This is the differential-verification setting of Paulsen et al.
    (ReluDiff, ICSE 2020) that the paper positions as complementary
    (§7).  The complete check, branch and bound on the product network,
    is [Ivan_core.Diffverify]. *)

type bound = { lo : Ivan_tensor.Vec.t; hi : Ivan_tensor.Vec.t }
(** Per-output bounds on the difference [N(x) - N'(x)]. *)

val output_difference : Ivan_nn.Network.t -> Ivan_nn.Network.t -> box:Ivan_spec.Box.t -> bound option
(** [None] when either analysis reports the region empty (cannot happen
    without split assumptions, but kept total).
    @raise Invalid_argument if the networks' input/output dimensions
    differ or do not match the box. *)
