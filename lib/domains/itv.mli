(** Scalar intervals. *)

type t = { lo : float; hi : float }

val make : float -> float -> t
(** @raise Invalid_argument if [lo > hi]. *)

val point : float -> t

val add : t -> t -> t

val scale : float -> t -> t
(** Multiplication by a constant (sign-aware). *)

val add_scaled : t -> float -> t -> t
(** [add_scaled acc k x] is [acc + k*x]. *)

val relu : t -> t

val meet : t -> t -> t option
(** Intersection; [None] when empty. *)
