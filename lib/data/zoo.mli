(** The model zoo: Table 1 analogues.

    Six models mirroring the paper's evaluation set — the ACAS-XU
    6 x 50 network and five image classifiers (one fully-connected, four
    convolutional) — scaled down so the hand-rolled LP analyzer handles
    them, trained from scratch on the synthetic datasets.  Training is
    deterministic in the model's seed; [load_or_train] caches trained
    weights on disk so repeated experiment runs skip training. *)

type kind = Acas | Image_classifier

type spec = {
  name : string;
  kind : kind;
  eps : float;  (** Table 1's robustness radius for classifier models *)
  seed : int;
  description : string;  (** architecture summary for the Table 1 printout *)
}

val acas : spec

val fcn_mnist : spec

val conv_mnist : spec

val conv_cifar : spec

val conv_cifar_wide : spec

val conv_cifar_deep : spec

val table1 : spec list
(** All six, in the paper's order. *)

val classifiers : spec list
(** The five image classifiers (everything except ACAS). *)

val untrained : spec -> Ivan_nn.Network.t
(** The model's architecture with fresh (untrained) weights — cheap, for
    inspecting shapes and parameter counts. *)

val train : spec -> Ivan_nn.Network.t
(** Train the model from scratch (deterministic in [spec.seed]). *)

val training_set : spec -> Ivan_tensor.Vec.t array * int array
(** The (deterministic) training data used by {!train}. *)

val test_set : spec -> Ivan_tensor.Vec.t array * int array
(** Held-out samples from the same distribution, used to pick
    verification instances. *)

val load_or_train : ?cache_dir:string -> spec -> Ivan_nn.Network.t
(** Load the trained network from [cache_dir] (default
    ["_zoo_cache"], overridable with the [IVAN_ZOO_CACHE] environment
    variable), training and saving it on a cache miss. *)

val accuracy : spec -> Ivan_nn.Network.t -> float
(** Test-set accuracy of a (trained) network for this spec. *)
