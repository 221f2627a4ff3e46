(** Branching decisions labelling specification-tree edges.

    A decision at a node says how its subproblem was partitioned: by
    splitting a ReLU's phase (the paper's main setting) or by halving an
    input dimension (the ACAS-XU setting of §6.4).  The two children of
    a node take the two sides of the decision. *)

type t = Relu_split of Ivan_nn.Relu_id.t | Input_split of int

type side = Left | Right
(** [Left] is the [r+] (respectively lower-half) child; [Right] is [r-]
    (upper half). *)

val compare : t -> t -> int

val equal : t -> t -> bool

val relu_phase : side -> Ivan_domains.Splits.phase
(** Phase assumed by the child on the given side of a ReLU split. *)

val pp_edge : Format.formatter -> t * side -> unit

val to_string : t -> string

val of_string : string -> t
(** Inverse of {!to_string}.  @raise Failure on malformed input. *)
