(** The specification tree (Definition 8).

    A rooted full binary tree recording the trace of BaB: the root
    stands for the whole property [(phi, psi)]; an internal node's two
    out-edges carry the two sides of its branching decision; every node
    stores the analyzer's lower bound [LB_N(n)] for its subproblem.

    The tree is the carrier of incremental verification: built while
    verifying [N], then pruned/reused to seed the verification of the
    updated [N^a] (paper §4).  Trees are mutable (BaB extends them in
    place); {!copy} gives an independent clone. *)

type t

type node

val create : unit -> t
(** A fresh tree with a single root node encoding [(phi, psi)]. *)

val root : t -> node

val node_id : node -> int
(** Stable within a tree; the root has id 0. *)

val is_leaf : node -> bool

val decision : node -> Decision.t option
(** The branching decision taken at this node, if internal. *)

val children : node -> (node * node) option
(** [(left, right)] children, present iff the node is internal. *)

val edge : node -> (Decision.t * Decision.side) option
(** The labelled edge from the parent into this node; [None] at root. *)

val lb : node -> float
(** The recorded [LB_N(n)]; [nan] until {!set_lb} is called. *)

val set_lb : node -> float -> unit

(** Row multipliers of the LP that verified a node: the dual vector [y]
    of an optimal solve, or a Farkas [y] of an infeasible one
    ([farkas]), with [keys.(i)] the encoding's key of the row [y.(i)]
    multiplies (see [Ivan_analyzer.Encoding]).  Plain arrays, shared
    and never written: a cache a later run on an updated network tries
    before its own simplex, like the warm-start hints.  Like them, it
    is not serialized. *)
type multipliers = { keys : int array; y : float array; farkas : bool }

val multipliers : node -> multipliers option
(** The annotation {!set_multipliers} left; [None] on a fresh node and
    on every node {!of_string} reads. *)

val set_multipliers : node -> multipliers option -> unit

val split : t -> node -> Decision.t -> node * node
(** Algorithm 2: attach two children to a leaf.
    @raise Invalid_argument if the node is internal, or if a ReLU split
    repeats one already taken on the path from the root (a BaB path
    never re-splits the same ReLU; re-halving an input dimension is
    legitimate refinement and allowed). *)

val leaves : t -> node list
(** Left-to-right leaf order (deterministic). *)

val size : t -> int
(** [|Nodes(T)|]. *)

val num_leaves : t -> int

val iter_nodes : t -> (node -> unit) -> unit
(** Pre-order traversal. *)

val path_decisions : node -> (Decision.t * Decision.side) list
(** Root-to-node list of labelled edges. *)

val subproblem : root_box:Ivan_spec.Box.t -> node -> Ivan_spec.Box.t * Ivan_domains.Splits.t
(** The specification split encoded by the node (Definition 7): the
    refined input box (input splits applied root-down) and the assumed
    ReLU phases. *)

val copy : t -> t
(** Deep copy preserving ids, decisions, LB and multiplier annotations
    (the multiplier arrays are shared, not copied). *)

val well_formed : t -> bool
(** Structural invariant behind Lemma 1: every internal node has exactly
    two children on complementary sides of its decision, and no ReLU
    split repeats along any root-to-leaf path. *)

val to_string : t -> string
(** Serialize structure, decisions and LB values; multiplier
    annotations are left out. *)

val of_string : string -> t
(** @raise Failure on malformed input. *)

val pp : Format.formatter -> t -> unit
(** Compact ASCII rendering for debugging. *)
