(** Zonotope abstract interpreter (DeepZ-style).

    Every neuron's value is over-approximated by an affine form
    [c + sum_k g_k eps_k] with noise symbols [eps_k] ranging over
    [-1, 1].  The first [Box.dim] noise symbols parameterize the input
    box; each ambiguous ReLU adds one fresh symbol (the minimal-area
    parallelogram transformer of Singh et al. 2018).

    Besides bounds, the analysis exposes the coefficient that each
    ambiguous ReLU's noise symbol contributes to the output objective —
    the "indirect effect" branching score of Henriksen & Lomuscio 2021
    used as the default heuristic H. *)

type analysis = {
  bounds : Bounds.t;
  output_center : Ivan_tensor.Vec.t;
  output_gen : float array array;  (** per output neuron, per noise term *)
  relu_terms : int Ivan_nn.Relu_id.Map.t;  (** ambiguous ReLU -> its term *)
  nterms : int;
  input_box : Ivan_spec.Box.t;
}

type result = Feasible of analysis | Infeasible

val analyze : Ivan_nn.Network.t -> box:Ivan_spec.Box.t -> splits:Splits.t -> result
(** @raise Invalid_argument on box/network dimension mismatch. *)

val objective_itv : analysis -> c:Ivan_tensor.Vec.t -> offset:float -> Itv.t
(** Zonotope bound on [c . Y + offset]; at least as tight as the
    interval bound from [bounds]. *)

val objective_coeffs : analysis -> c:Ivan_tensor.Vec.t -> float array
(** Noise-term coefficients of the objective [c . Y]; index [t] is the
    coefficient of [eps_t].  Compute once and reuse when scoring many
    ReLUs. *)

val relu_score_from_coeffs : analysis -> float array -> Ivan_nn.Relu_id.t -> float
(** Magnitude of the ReLU's noise-term coefficient in the objective
    whose {!objective_coeffs} are given; [0.] for ReLUs that did not
    introduce a term. *)

val minimizing_input : analysis -> c:Ivan_tensor.Vec.t -> Ivan_tensor.Vec.t
(** The corner of the input box that minimizes the input-symbol part of
    the objective — the counterexample candidate. *)
