(** Sound analyzers (Definition 5).

    An analyzer bounds the property objective [c . N(x) + offset] over a
    subproblem — an input box plus ReLU split assumptions — and returns
    [Verified], a concrete [Counterexample], or [Unknown].  Soundness:
    [Verified] implies the property holds on the subproblem;
    [Counterexample x] implies [x] lies in the property's input region
    and concretely violates [psi].

    Four analyzers are provided:
    - {!lp_triangle}: DeepPoly bounds + LP with the triangle relaxation —
      the paper's baseline for ReLU-splitting BaB [Bunel et al. 2020;
      Ehlers 2017], with GUROBI replaced by {!Ivan_lp.Lp}.
    - {!zonotope}: DeepZ affine forms — the bounding engine of the
      RefineZono-style input-splitting baseline (paper §6.4).
    - {!deeppoly}: DeepPoly bounds without the LP — the top rung of
      the degradation {!ladder}.
    - {!interval}: plain box propagation, mainly for tests.

    {!milp_verify} is no analyzer: the exact big-M MILP decides a
    subproblem in one call, for the paper's §7 comparison. *)

type status = Verified | Counterexample of Ivan_tensor.Vec.t | Unknown

type lp_report = {
  warm_hits : int;  (** solves warm-started successfully *)
  warm_misses : int;
      (** {!Ivan_lp.Lp.solve_from} abandoned the parent basis; the crash
          basis or the slack basis answered *)
  cold_solves : int;  (** solves that never attempted a warm start, crash-started or not *)
  pivots : int;  (** total simplex pivots across the call's solves *)
  factor_pivots : int;
      (** pivots [pivots] leaves out: refactorizations of a parent or
          crash basis, and everything the attempts a solve abandoned
          spent (a warm attempt that missed, a crash start that did not
          answer) *)
  basis : Ivan_lp.Lp.Basis.t option;
      (** basis to offer to child nodes; [None] when the solve did not
          end [Optimal] or no solve ran ([closed]) *)
  deeppoly : Ivan_domains.Deeppoly.parent option;
      (** the node's DeepPoly run, for child nodes to resume from;
          O(neurons) *)
  proof : Ivan_spectree.Tree.multipliers option;
      (** the row multipliers behind the call's LP answer, keyed by the
          encoding's row keys: the solver's dual [y] after an optimum,
          its Farkas [y] after an infeasible LP, or the carried
          multipliers that closed the node; the same arrays, not
          copies.  The engine keeps them on a verified node
          ({!Ivan_spectree.Tree.set_multipliers}).  [None] when the
          solver ended with no certificate *)
  closed : bool;
      (** the node was closed by multipliers offered through {!Warm},
          with no simplex solve: every count above is 0 *)
}
(** What an LP-backed analyzer call solved: the BaB engine counts it
    into the run's statistics and offers it to the node's children
    through {!Warm}. *)

type outcome = {
  status : status;
  lb : float;
      (** lower bound on the objective; [+inf] for a vacuously verified
          (empty) subproblem *)
  bounds : Ivan_domains.Bounds.t option;
      (** per-neuron bounds, absent when the subproblem region is empty *)
  zono : Ivan_domains.Zonotope.analysis option;
      (** zonotope run used for branching scores, when available *)
  cert : Ivan_cert.Cert.evidence option;
      (** checkable evidence for the node's LP verdict (dual multipliers
          with the frozen LP, or a Farkas witness); only produced by
          {!lp_triangle} with [certify] set — [None] from every other
          analyzer and from cheap-bound shortcuts, which the engine
          counts as certificate-unavailable *)
  lp : lp_report option;
      (** the call's LP report, from {!lp_triangle} when the node
          reached its LP (solved, or closed by carried multipliers);
          [None] otherwise *)
}

val degraded_outcome : outcome
(** [Unknown] with [lb = neg_infinity] and nothing else: what a failed
    call degrades to. *)

type t = {
  name : string;
  run :
    Ivan_nn.Network.t ->
    prop:Ivan_spec.Prop.t ->
    box:Ivan_spec.Box.t ->
    splits:Ivan_domains.Splits.t ->
    outcome;
}
(** [box] is the subproblem's input region (equal to [prop.input] under
    ReLU splitting; a sub-box under input splitting). *)

val instrument :
  on_run:(name:string -> elapsed:float -> outcome:outcome -> unit) -> t -> t
(** [instrument ~on_run a] is [a] with every [run] timed: [on_run] fires
    after each call with the analyzer's name, the wall-clock seconds the
    call took, and its outcome.  The benchmark's traced pass
    ([perfbench/pass.ml]) uses this hook to attribute time to the
    analyzer boundary; the engine times its calls itself.  It composes
    (instrumenting twice fires both hooks). *)

val lp_triangle : ?warm:bool -> ?certify:bool -> unit -> t
(** The LP analyzer.  Without [certify], a subproblem already proved by
    the DeepPoly pass (or the zonotope pass) skips the LP solve; the
    returned [lb] is then that pass's and [lp] is [None].  Each [run]
    also performs a zonotope pass so branching heuristics can score
    ReLUs.

    [certify] (default false) makes every LP-decided outcome carry
    {!Ivan_cert.Cert.evidence}: the solver's dual or Farkas multipliers
    together with a frozen copy of the node's LP, ready for exact
    re-checking.  Certification turns the shortcut off (a shortcut
    verdict has no LP certificate), so every node reaches its LP, and
    it snapshots each solved LP, so it costs extra time and memory —
    perfbench's [fcn-perturb-certified] workload measures it (its
    [cert.*] metrics).  Verdicts are unchanged.

    Node LPs come from a persistent per-(network, property) encoding
    ({!Encoding.Triangle}) specialized in place per subproblem, and when
    [warm] is true (default) a parent basis offered through {!Warm} is
    used to warm-start the simplex ({!Ivan_lp.Lp.solve_from}).  Every
    other node LP is solved cold, from the crash basis of a concrete
    forward pass ({!Encoding.Triangle.crash}) at the box corner that
    minimizes the zonotope objective's input part; when that basis is
    infeasible the solver's dual simplex repairs it, and decides an
    infeasible node by its dual ray.  A warm attempt that misses tries
    the same crash basis, built only then; the slack basis answers when
    neither does.

    Under [warm], a node offered its own multipliers through {!Warm}
    (a seed leaf that an earlier run's LP verified, on this network or
    another of the same architecture) first tries them: after the
    DeepPoly/zonotope shortcut and the specialization, and before any
    crash basis, they are carried onto the node's LP by row key
    ({!Encoding.Triangle.transfer}) and evaluated by weak duality under
    the certificate screen's rounding model ({!Ivan_cert.Screen.proves}).
    When that proves the node, the call returns [Verified] with the
    proved bound as [lb] (at most the LP's own optimum) and no simplex
    runs; under [certify] the carried multipliers are the leaf's
    evidence.  Otherwise the node is solved as any other.

    [~warm:false] still crash-starts every solve and ignores the offered
    parent bases and multipliers, so every node is a cold solve.  Like
    the bases, the multipliers are not journaled, so a run without them
    is the one a journal replays exactly.  [warm] only toggles the
    solver entry point — warm and cold runs share the identical
    specialized LP, so verdicts are unchanged, and so are bounds,
    except at nodes closed by carried multipliers.  A
    node the encoding rejects ({!Encoding.Mismatch}) is treated like a
    failed solve: the outcome rests on the sound DeepPoly/zonotope
    bound. *)

(** {2 Warm-start hint}

    The BaB engine offers a parent node's {!lp_report} before an
    analyzer call.  {!lp_triangle} takes two things from it: its
    DeepPoly run, which the node resumes below its new split
    ({!Ivan_domains.Deeppoly.analyze} [?parent]; used whatever [warm]
    says, since the bounds come out the same bit for bit), and its
    basis, which warm-starts the simplex when [warm] holds.  A node
    with no parent report to offer is offered its own multiplier
    annotation instead, when it has one (a seed leaf of an incremental
    run), for {!lp_triangle}'s closure under [warm].  The slot holds
    one hint, is domain-local and consumed on read: parallel runner workers never
    observe each other's hints, and an analyzer retry (under
    {!with_fallback}) runs cold, DeepPoly and LP both, rather than
    re-using a hint that may have contributed to the failure.  Analyzers
    without an LP back-end simply never read it. *)
module Warm : sig
  val offer : lp_report -> unit
  (** Stage a parent's report for the next LP-backed analyzer call on
      this domain; only its [basis] and [deeppoly] are read. *)

  val offer_multipliers : Ivan_spectree.Tree.multipliers -> unit
  (** Stage the node's own multipliers from an earlier run for the next
      LP-backed call's closure, in place of a parent's report. *)

  val clear : unit -> unit
  (** Drop any staged hint (call before analyzing a node with no usable
      parent report). *)
end

val zonotope : unit -> t

val deeppoly : unit -> t
(** DeepPoly back-substituted bounds without the LP pass: cheaper and
    numerically simpler than {!lp_triangle}, tighter than {!interval}. *)

val interval : unit -> t

val ladder : t -> t list
(** The degradation rungs strictly cheaper than an analyzer, costliest
    first, out of {!deeppoly}, {!zonotope} and {!interval} (one root call
    on ACAS 6x50: 1.6, 0.8 and 0.15 ms; {!lp_triangle}: 70–140 ms).  An
    analyzer is placed by its name; one named like no rung gets all
    three.  {!with_fallback} and the memory supervisor step down it. *)

val check_concrete :
  Ivan_nn.Network.t -> prop:Ivan_spec.Prop.t -> Ivan_tensor.Vec.t -> bool
(** [check_concrete net ~prop x] is true when [x] is a genuine
    counterexample: inside the property's input region and violating
    [psi] on the concrete network. *)

(** {2 Exact MILP verification}

    The "one-shot" alternative to BaB: a big-M indicator encoding of
    every ambiguous ReLU solved by {!Ivan_lp.Milp}, built afresh on each
    call.  Used to reproduce the paper's §7 observation that MILP
    warm-starting yields insignificant incremental speedup, and as an
    exact oracle in tests.  Supports plain-ReLU networks only. *)

type milp_outcome = {
  milp_status : status;
  milp_lb : float;
      (** the exact objective minimum when a violating point exists;
          otherwise the cutoff that nothing beat (0 for a plain verified
          run) *)
  nodes : int;  (** branch-and-bound nodes explored *)
  witness : Ivan_tensor.Vec.t option;  (** minimizing input, if found *)
}

val milp_verify :
  ?max_nodes:int ->
  ?incumbent:float ->
  Ivan_nn.Network.t ->
  prop:Ivan_spec.Prop.t ->
  box:Ivan_spec.Box.t ->
  splits:Ivan_domains.Splits.t ->
  milp_outcome
(** The search always prunes branches that cannot push the objective
    below 0 (they cannot yield counterexamples).  [incumbent] — a known
    achievable margin, e.g. of the previous network's minimizing input
    evaluated on this network — tightens the cutoff further when
    negative; this is MILP warm starting, and exactly as the paper's §7
    observes, it cannot help on instances that end up verified.  Each
    MILP node's LP relaxation warm-starts from its parent's simplex
    basis.
    @raise Invalid_argument on leaky-ReLU networks. *)

(** {2 Resilience}

    Retry-then-degrade combinator.  A wrapped analyzer never lets a
    non-fatal exception escape and never returns an outcome that could
    violate soundness: results are sanity-checked (no NaN bound, no
    [Verified] with a negative bound, counterexamples re-checked
    concretely), failing analyzers are retried a bounded number of
    times, and persistent failures fall through a chain of progressively
    cheaper analyzers before finally degrading to [Unknown]. *)

type policy = {
  max_retries : int;  (** re-attempts per analyzer before falling back *)
  node_timeout : float;
      (** cooperative wall-clock cap in seconds per node: no new attempt
          starts past the deadline (a running call is not preempted) *)
  fallback : bool;  (** when false the default chain is empty *)
}

val default_policy : policy
(** [{ max_retries = 1; node_timeout = infinity; fallback = true }] *)

type fallback_event =
  | Retried of { analyzer : string; attempt : int; reason : string }
      (** an analyzer failed and is being re-attempted *)
  | Fell_back of { analyzer : string; reason : string }
      (** a non-primary analyzer's outcome was accepted (once per node) *)
  | Absorbed of { analyzer : string; reason : string }
      (** a failure (exception or untrustworthy outcome) was swallowed *)

val fatal_exn : exn -> bool
(** True for conditions the resilience layer must re-raise rather than
    absorb: [Out_of_memory], [Stack_overflow], [Sys.Break]. *)

val with_fallback : ?notify:(fallback_event -> unit) -> policy:policy -> t -> t
(** [with_fallback ~policy primary] is [primary] hardened per the policy.
    Its fallback chain is [ladder primary], and empty when
    [policy.fallback] is false.  [notify] observes resilience
    events — the BaB engine uses it to count retries, fallback bounds
    and absorbed faults.  When the chain is exhausted or the node
    deadline passes, the result is a degraded [Unknown] outcome with
    [lb = neg_infinity].
    @raise Invalid_argument on a negative [max_retries] or non-positive
    [node_timeout]. *)
