(** Per-neuron bounds produced by an abstract interpreter run. *)

type layer = {
  pre_lo : Ivan_tensor.Vec.t;
  pre_hi : Ivan_tensor.Vec.t;
  post_lo : Ivan_tensor.Vec.t;
  post_hi : Ivan_tensor.Vec.t;
}

type t = { layers : layer array }

val pre_itv : t -> Ivan_nn.Relu_id.t -> Itv.t
(** Pre-activation interval of a ReLU unit. *)

val ambiguous_relus : t -> Ivan_nn.Network.t -> splits:Splits.t -> Ivan_nn.Relu_id.t list
(** ReLUs whose pre-activation straddles zero and that are not already
    split — the branching candidates at a node. *)

val objective_itv : t -> c:Ivan_tensor.Vec.t -> offset:float -> Itv.t
(** Interval bound on [c . Y + offset] from the output-layer bounds. *)
