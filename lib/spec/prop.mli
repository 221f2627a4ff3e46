(** Verification properties.

    A property pairs an input box [phi] with an output predicate
    [psi(Y) = (c . Y + offset >= 0)], the linear form of the paper's
    Equation 1 (the constant offset lets us express threshold properties
    such as ACAS-XU's "COC score stays below 1500"). *)

type t = {
  name : string;
  input : Box.t;  (** the region [phi_t] *)
  c : Ivan_tensor.Vec.t;  (** output coefficient vector [C] *)
  offset : float;
}

val make : name:string -> input:Box.t -> c:Ivan_tensor.Vec.t -> offset:float -> t

val holds_at : t -> Ivan_tensor.Vec.t -> bool
(** [holds_at p y] checks [psi] on a concrete output vector. *)

val margin : t -> Ivan_tensor.Vec.t -> float
(** [c . y + offset]; negative means violated. *)

val robustness :
  name:string ->
  center:Ivan_tensor.Vec.t ->
  eps:float ->
  target:int ->
  adversary:int ->
  num_outputs:int ->
  clip:(float * float) option ->
  t
(** Local L-infinity robustness: inside the eps-ball around [center]
    (optionally clipped to a pixel range), the [target] logit stays
    above the [adversary] logit: [y_target - y_adversary >= 0]. *)

val output_upper : name:string -> input:Box.t -> index:int -> bound:float -> num_outputs:int -> t
(** Global property [y_index <= bound], i.e. [bound - y_index >= 0]. *)

val pp : Format.formatter -> t -> unit
