(** Exact-arithmetic proof checking for BaB verdicts.

    This module is the {b trusted base} of proof-carrying verification.
    Together with {!Q} it re-derives, in exact dyadic-rational
    arithmetic, the bound every leaf certificate claims — so a verdict
    can be audited long after the run without trusting the float
    simplex, warm starts, fallback analyzers, or fault injection that
    produced it.  No function below performs floating-point arithmetic:
    floats are decoded bit-exactly into {!Q} values and only ever
    compared there.

    What checking establishes, per artifact:
    - [Proved]: the specification tree is structurally well-formed and
      covers the property's input region (complementary ReLU phases on
      every internal node; input-splitting trees are {e rejected} as
      uncertifiable), and every leaf carries a certificate whose
      exactly-recomputed LP bound proves the leaf's sub-property.
    - [Disproved]: the recorded counterexample lies in the input box and
      exactly evaluates, through the embedded network, to a negative
      property margin.

    What remains trusted (out of scope for the checker, see DESIGN.md):
    that the per-leaf LP snapshots are sound relaxations of the
    network's semantics under the leaf's split assumptions.  Snapshots
    are bound to their leaf structurally — input-variable bounds must
    equal the property box exactly, and the recorded split fingerprint
    must match the leaf's path in the tree — which is what rejects
    transplanted or re-keyed certificates.

    {!Screen}, the float screen the engine runs at emission time before
    falling back to {!check_leaf}, sits beside this module but outside
    the trusted base: {!check_artifact} never consults it. *)

module Lp = Ivan_lp.Lp

(** The LP a certificate refers to, frozen at solve time. *)
module Snapshot : sig
  type row = { idx : int array; cf : float array; cmp : Lp.cmp; rhs : float }

  type t = {
    nvars : int;
    obj : float array;  (** length [nvars] *)
    lo : float array;  (** variable bounds; infinities allowed *)
    hi : float array;
    rows : row array;
  }

  val of_problem : Lp.problem -> t
  (** Copy the current rows, bounds and objective of a problem — call
      immediately after the solve whose certificate is kept. *)
end

type evidence = {
  const : float;
      (** constant folded out of the LP objective by the encoder; the
          certified property margin is [LP bound + const] *)
  snapshot : Snapshot.t;
  witness : Lp.Certificate.t;
}

type leaf = {
  node : int;  (** specification-tree node id *)
  splits : string;  (** {!splits_fingerprint} of the leaf's path *)
  evidence : evidence;
}

val splits_fingerprint : (Ivan_spectree.Decision.t * Ivan_spectree.Decision.side) list -> string
(** Canonical token binding a certificate to its leaf's split
    assumptions, e.g. ["+L1N3,-L2N0"] (root-to-leaf order). *)

(** {2 Exact checking} *)

val implied_bound : Snapshot.t -> y:float array -> (Q.t, string) result
(** The lower bound on the snapshot's objective implied by row
    multipliers [y], by weak duality — sound for {e any} finite [y] of
    the right signs.  [Error] when a multiplier has a sign its row's
    comparison does not admit, when a reduced cost pushes against an
    infinite variable bound (the implied bound would be [-inf]), or when
    any datum is non-finite. *)

val check_dual : Snapshot.t -> y:float array -> threshold:Q.t -> (Q.t, string) result
(** Check that the implied bound is [>= threshold]; returns the exact
    bound on success. *)

val check_farkas : Snapshot.t -> y:float array -> (unit, string) result
(** Validate a Farkas witness: with the objective zeroed, the implied
    bound must be strictly positive — no point satisfies the rows and
    bounds. *)

val check_leaf : box:Ivan_spec.Box.t -> leaf -> (unit, string) result
(** Full per-leaf check: snapshot well-formedness, input-variable bounds
    exactly equal to the property box, and the witness — a [Dual]
    multiplier vector must certify [bound + const >= 0], a [Farkas] one
    must certify the leaf's LP infeasible (a vacuous sub-property). *)

(** {2 Proof artifacts} *)

module Artifact : sig
  type verdict = Proved | Disproved of float array

  type t = {
    net : Ivan_nn.Network.t;  (** embedded, bit-exact *)
    prop : Ivan_spec.Prop.t;
    verdict : verdict;
    tree : Ivan_spectree.Tree.t;
    leaves : leaf list;  (** one certificate per tree leaf ([Proved]) *)
  }

  val to_string : t -> string
  (** Line-oriented text, hex floats throughout; self-contained (the
      network and property are embedded, so checking needs no other
      file).  See DESIGN.md for the format. *)

  val of_string : string -> t
  (** @raise Failure on malformed input. *)

  val to_file : string -> t -> unit
  (** Atomic (write to a temp file, then rename). *)

  val of_file : string -> t
  (** @raise Sys_error / [Failure]. *)
end

type report = {
  leaves : int;  (** tree leaves checked (0 for [Disproved]) *)
  dual_certs : int;
  farkas_certs : int;
}

val check_artifact : Artifact.t -> (report, string) result
(** End-to-end validation of an artifact, without rerunning the
    verifier.  The [Error] string pinpoints the first failing leaf or
    structural defect. *)

val pp_report : Format.formatter -> report -> unit
