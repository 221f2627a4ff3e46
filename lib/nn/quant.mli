(** Post-training quantization.

    Simulates TFLite-style symmetric per-tensor quantization: every
    weight tensor is rounded to a signed [bits]-wide integer grid scaled
    by its own maximum magnitude, then dequantized back to float.  This
    is the network-update class used throughout the paper's evaluation
    (int16 and int8 columns of Tables 2–4, Figures 6–9). *)

type scheme = Int8 | Int16 | Bits of int

val scheme_name : scheme -> string

val quantize_value : scale:float -> float -> float
(** Round a single value to the grid of step [scale] (dequantized). *)

val tensor_scale : bits:int -> float array -> float
(** Symmetric per-tensor scale: [max_abs / (2^(bits-1) - 1)]; zero for an
    all-zero tensor. *)

val network : scheme -> Network.t -> Network.t
(** Quantize-dequantize every layer's weights and biases, per tensor. *)
