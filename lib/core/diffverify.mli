(** Complete and incremental differential verification.

    Decides [forall x in box: ||N(x) - N'(x)||_inf <= delta] exactly by
    verifying, on the {!Ivan_nn.Product} network, the 2m linear
    properties [delta - (y_i - y'_i) >= 0] and [delta + (y_i - y'_i) >= 0]
    with BaB.  Because the product of [N] with any same-architecture
    update is itself architecture-stable, the specification trees of one
    differential proof seed the next — incremental differential
    verification over a sequence of updated networks (the direction the
    paper's §7 sketches on top of ReluDiff). *)

type verdict =
  | Equivalent
  | Deviation of Ivan_tensor.Vec.t
      (** concrete input where some output pair differs by more than
          delta *)
  | Unknown  (** some sub-property exhausted its budget *)

type proof = {
  verdict : verdict;
  runs : Ivan_bab.Bab.run list;  (** one per directional output property *)
  total_calls : int;
}

val verify :
  analyzer:Ivan_analyzer.Analyzer.t ->
  heuristic:Ivan_bab.Heuristic.t ->
  ?budget:Ivan_bab.Bab.budget ->
  Ivan_nn.Network.t ->
  Ivan_nn.Network.t ->
  box:Ivan_spec.Box.t ->
  delta:float ->
  proof
(** From-scratch complete differential verification. *)

val verify_incremental :
  analyzer:Ivan_analyzer.Analyzer.t ->
  heuristic:Ivan_bab.Heuristic.t ->
  ?config:Ivan.config ->
  previous:proof ->
  Ivan_nn.Network.t ->
  Ivan_nn.Network.t ->
  box:Ivan_spec.Box.t ->
  delta:float ->
  proof
(** Differentially verify a new pair by reusing the per-property proof
    trees of [previous] (which must come from a pair of the same
    architecture, e.g. the same original against an earlier update). *)
