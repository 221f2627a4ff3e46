(** Dense float vectors.

    A thin layer over [float array] providing the linear-algebra
    operations the verifier needs.  All operations allocate fresh vectors
    unless suffixed [_inplace]. *)

type t = float array

val create : int -> float -> t
(** [create n x] is the length-[n] vector with every entry [x]. *)

val zeros : int -> t

val dim : t -> int

val copy : t -> t

val of_list : float list -> t

val get : t -> int -> float

val add : t -> t -> t
(** Pointwise sum.  @raise Invalid_argument on dimension mismatch. *)

val sub : t -> t -> t

val scale : float -> t -> t

val axpy : float -> t -> t -> unit
(** [axpy a x y] sets [y <- a*x + y] in place. *)

val dot : t -> t -> float

val norm2 : t -> float
(** Euclidean norm. *)

val norm_inf : t -> float

val max_elt : t -> float
(** @raise Invalid_argument on the empty vector. *)

val min_elt : t -> float

val argmax : t -> int
(** Index of the first maximal element. *)

val map : (float -> float) -> t -> t

val map2 : (float -> float -> float) -> t -> t -> t

val relu : t -> t
(** Pointwise [max 0]. *)

val equal : ?eps:float -> t -> t -> bool
(** Pointwise comparison with absolute tolerance [eps] (default [1e-9]). *)

val pp : Format.formatter -> t -> unit
