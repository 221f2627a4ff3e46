(** Mini-batch stochastic gradient descent.

    A small, dependency-free trainer used to manufacture the model zoo:
    the paper evaluates pretrained MNIST/CIFAR/ACAS-XU networks, which we
    substitute by training scaled-down analogues from scratch on
    synthetic data.  Gradients are computed by hand-rolled
    backpropagation through dense and convolutional layers. *)

type config = {
  epochs : int;
  batch_size : int;
  learning_rate : float;
  momentum : float;  (** classical momentum; 0 disables it *)
  weight_decay : float;  (** L2 penalty coefficient; 0 disables it *)
}

val default_config : config
(** 20 epochs, batch 32, lr 0.05, momentum 0.9, no weight decay. *)

val train_classifier :
  rng:Ivan_tensor.Rng.t ->
  config:config ->
  Ivan_nn.Network.t ->
  inputs:Ivan_tensor.Vec.t array ->
  labels:int array ->
  Ivan_nn.Network.t
(** Minimize softmax cross-entropy.  Labels index network outputs.
    @raise Invalid_argument on empty data or mismatched lengths. *)

val accuracy : Ivan_nn.Network.t -> inputs:Ivan_tensor.Vec.t array -> labels:int array -> float
(** Fraction of inputs whose argmax output matches the label. *)

val cross_entropy :
  Ivan_nn.Network.t -> inputs:Ivan_tensor.Vec.t array -> labels:int array -> float
(** Mean softmax cross-entropy loss over the dataset. *)
