(** Dense row-major float matrices. *)

type t

val zeros : int -> int -> t

val identity : int -> t

val init : int -> int -> (int -> int -> float) -> t
(** [init rows cols f] has entry [f i j] at row [i], column [j]. *)

val rows : t -> int

val cols : t -> int

val get : t -> int -> int -> float

val set : t -> int -> int -> float -> unit

val of_arrays : float array array -> t
(** @raise Invalid_argument if rows have unequal lengths. *)

val to_arrays : t -> float array array

val row : t -> int -> Vec.t
(** [row m i] is a fresh copy of row [i]. *)

val blit_row : t -> int -> float array -> unit
(** [blit_row m i dst] copies row [i] into [dst.(0 .. cols m - 1)]
    without allocating.  @raise Invalid_argument if [dst] is shorter. *)

val col : t -> int -> Vec.t

val transpose : t -> t

val add : t -> t -> t

val sub : t -> t -> t

val scale : float -> t -> t

val map : (float -> float) -> t -> t

val matvec : t -> Vec.t -> Vec.t
(** [matvec m x] is [m · x].  @raise Invalid_argument on mismatch. *)

val matvec_t : t -> Vec.t -> Vec.t
(** [matvec_t m x] is [mᵀ · x] without materializing the transpose. *)

val abs_matvec_t : t -> Vec.t -> Vec.t
(** [abs_matvec_t m x] is [|m|ᵀ · x], with the same products in the same
    order as [matvec_t (map Float.abs m) x], without building [|m|]. *)

val matmul : t -> t -> t

val frobenius_norm : t -> float

val max_abs : t -> float
(** Largest absolute entry. *)

val equal : ?eps:float -> t -> t -> bool
