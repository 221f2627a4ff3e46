(** Deterministic pseudo-random number generation.

    A splitmix64 generator: fast, statistically sound for simulation
    purposes, and fully reproducible from a 64-bit seed.  Every source of
    randomness in the repository flows through this module so that all
    experiments are deterministic given a seed. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] returns a fresh generator.  Two generators created with
    the same seed produce identical streams. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  @raise Invalid_argument if
    [bound <= 0]. *)

val float : t -> float -> float
(** [float t x] is uniform in [\[0, x)]. *)

val uniform : t -> float -> float -> float
(** [uniform t lo hi] is uniform in [\[lo, hi)]. *)

val gaussian : t -> float
(** Standard normal deviate (Box–Muller). *)

val bool : t -> bool
(** Fair coin flip. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)
