(** ACAS-XU stand-in: a collision-avoidance advisory task.

    The paper evaluates input-splitting BaB on the ACAS-XU networks
    (6 x 50 fully-connected, 5 inputs, 5 advisory outputs) against the
    VNN-COMP property suite.  Neither the pretrained networks nor the
    aviation data are reproducible here, so we model the same shape of
    problem: a geometric advisory function over normalized encounter
    state (distance, bearing, heading, speeds), networks of the same
    6 x 50 architecture trained to mimic it, and box-input / linear-
    output global properties modeled on ACAS-XU phi_1 .. phi_4. *)

(** Advisory classes, mirroring ACAS-XU's five outputs. *)
type advisory = Clear_of_conflict | Weak_left | Strong_left | Weak_right | Strong_right

val advisory_index : advisory -> int

val oracle : Ivan_tensor.Vec.t -> advisory
(** The ground-truth advisory for a normalized encounter state.
    @raise Invalid_argument on wrong dimension. *)

val dataset : rng:Ivan_tensor.Rng.t -> count:int -> Ivan_tensor.Vec.t array * int array
(** Uniformly sampled states with oracle labels. *)

val architecture : rng:Ivan_tensor.Rng.t -> Ivan_nn.Network.t
(** Untrained 6 x 50 network (5 -> 50 x6 -> 5). *)

val train : rng:Ivan_tensor.Rng.t -> ?epochs:int -> ?samples:int -> unit -> Ivan_nn.Network.t
(** Train the 6 x 50 network on the oracle (defaults: 40 epochs, 2000
    samples). *)

val property_regions : (string * Ivan_spec.Box.t) list
(** Named input regions modeled on the VNN-COMP ACAS-XU properties:
    distant encounters, head-on close encounters, left and right
    crossing traffic. *)

val properties :
  net:Ivan_nn.Network.t -> margin:float -> rng:Ivan_tensor.Rng.t -> Ivan_spec.Prop.t list
(** Calibrated global properties: for each region, bound an output score
    from above.  The bound interpolates between the sampled maximum (a
    lower bound on the truth) and the certified zonotope root upper
    bound: [margin] in (0, 1] controls hardness — small margins force
    many input splits, margins near 1 are provable at the root, exactly
    the hardness spread of the VNN-COMP ACAS-XU suite. *)
