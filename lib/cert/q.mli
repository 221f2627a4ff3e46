(** Exact dyadic rationals for the trusted proof checker.

    A value is [sign * mag * 2^exp] with [mag] an arbitrary-precision
    natural number.  Every IEEE-754 binary64 float is a dyadic rational,
    so floats convert {e exactly} — the conversion decodes the mantissa
    and exponent from the bit pattern and never rounds.  Addition,
    subtraction and multiplication are closed over dyadic rationals,
    which is all weak-duality checking needs; no division ever happens.

    This module performs {b zero floating-point arithmetic}: floats are
    only decoded bit-for-bit ([Int64.bits_of_float]); every comparison
    is exact. *)

type t

val zero : t

val of_int : int -> t

val of_float : float -> t
(** Exact conversion of a finite float (subnormals included; both
    zeros map to {!zero}).
    @raise Invalid_argument on nan or an infinity. *)

val of_float_opt : float -> t option
(** [None] on nan or an infinity. *)

val sign : t -> int
(** [-1], [0] or [1]. *)

val neg : t -> t

val add : t -> t -> t

val sub : t -> t -> t

val mul : t -> t -> t

val compare : t -> t -> int

val equal : t -> t -> bool

val is_zero : t -> bool

val to_string : t -> string
(** Exact, for error messages: ["-0x1a3*2^-52"] style (hex magnitude,
    binary exponent). *)
