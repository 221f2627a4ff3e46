(** Identity of a ReLU unit within a network architecture.

    A ReLU is addressed by the index of the layer whose activation it
    belongs to and the neuron index within that layer.  ReLU identities
    are a function of the architecture only, which is what lets a
    specification tree built for network [N] be replayed on any updated
    network with the same architecture (paper §2.2). *)

type t = { layer : int; index : int }

val make : layer:int -> index:int -> t

val compare : t -> t -> int

val pp : Format.formatter -> t -> unit

val to_string : t -> string

module Map : Map.S with type key = t

module Set : Set.S with type elt = t
