(** Linear programming.

    A self-contained simplex solver standing in for the commercial LP
    back-end (GUROBI) used by the paper.  It solves

    {v minimize    c^T x
  subject to  a_i^T x (<= | = | >=) b_i     for each row i
              lo_j <= x_j <= hi_j           for each variable j v}

    using a primal simplex on bounded variables with Bland's
    anti-cycling rule, started from a start basis the caller supplies
    or, failing one, from a Phase-1 artificial start.
    The tableau is dense over the live rows only: an inert row (no
    terms, right-hand side 0, such as the vacuous slots the persistent
    encodings write) is satisfied by its slack at 0 and never enters
    the tableau, and pivots visit only the pivot row's nonzero
    columns.  Which rows are inert changes no
    pivot, optimum, basis or certificate.  Problem sizes in this
    repository (at most a few hundred variables and rows) are well
    within dense-tableau territory.

    The solver is {e incremental}: an optimal {!solve} snapshots its
    simplex basis, and {!solve_from} re-solves a near-identical problem
    (bounds moved by {!set_bounds}, rows rewritten in place by
    {!set_row}, a new objective) from that snapshot with a bounded dual
    simplex instead of restarting Phase 1 — the branch-and-bound
    verifier re-solves each child node's LP from its parent's basis
    this way, as the paper's GUROBI back-end does.  To make a basis
    dual feasible, the dual path boxes every inequality row's slack by
    the finite bound the variable box implies for it (rounded outward,
    so it cuts off no point of the box) and flips each boxed nonbasic
    column onto the bound its reduced cost favours.  An optimum is kept
    only if no slack rests on an implied bound, so it is an optimum of
    the unchanged problem with the multipliers a cold solve would
    certify it by.

    A cold {!solve} can be handed a start basis (the analyzer builds one
    from a concrete forward pass through its encoding), installed by
    refactorization.  When every basic lies within its bounds the
    primal simplex runs straight from it to the optimum; otherwise the
    same dual path repairs it.  {!solve_from} takes that start basis
    too, and tries it when the parent basis does not answer for any
    reason but a dual ray.

    Phase 1 runs only when no basis answers: a basis that does not fit,
    a column the flips cannot fix, the iteration cap, numerical trouble
    — or a dual ray, which means the problem is infeasible.  Phase 1
    alone decides [Infeasible], with its Farkas witness, and
    [Unbounded]; solves from a basis never change answers. *)

type cmp = Le | Ge | Eq

type problem
(** A mutable LP under construction. *)

(** {2 Proof certificates}

    Every terminal verdict of the simplex carries evidence a client can
    re-check without trusting the solver.  An [Optimal] solve yields the
    row multipliers [y] of its final reduced-cost row: by weak duality,
    for {e any} such vector the exactly recomputed value

    {v y^T b + sum_j min over [lo_j, hi_j] of (c_j - y^T A_.j) x_j v}

    (slacks included) is a sound lower bound on the LP's optimum, even
    if every float pivot was wrong.  An [Infeasible] verdict yields the
    phase-1 multipliers, a Farkas witness: the same computation with a
    zero objective comes out strictly positive, which no feasible point
    allows.  The exact-arithmetic checker lives in [Ivan_cert.Cert];
    extraction here is float-only and untrusted. *)

module Certificate : sig
  type t =
    | Dual of float array
        (** row multipliers of an optimal solve; [y.(i)] is [<= 0] for a
            [Le] row, [>= 0] for [Ge], free for [Eq] *)
    | Farkas of float array
        (** row multipliers witnessing infeasibility, same sign rules *)
end

type solution = {
  objective : float;  (** optimal value of [c^T x] *)
  primal : float array;  (** optimal assignment, indexed by variable *)
  certificate : Certificate.t option;
      (** dual certificate of this optimum (always [Some (Dual _)] from
          this solver; an option so degraded producers can decline) *)
}

type result = Optimal of solution | Infeasible | Unbounded

exception Iteration_limit
(** Raised by {!solve} when the simplex exceeds its internal iteration
    cap — a numerical-failure escape hatch.  Callers that need soundness
    (the verifier's analyzers) treat it as an inconclusive answer. *)

exception Numerical_failure of string
(** Raised by {!solve} when the tableau degrades past repair: a NaN bound
    or non-finite coefficient in the input, a non-finite or collapsed
    pivot element, or NaN contaminating the basic values / reduced costs
    mid-run.  Distinct from {!Iteration_limit} so callers can tell "too
    slow" apart from "numerically broken"; both must be treated as
    inconclusive, never as an optimum. *)

val set_solve_hook : (problem -> unit) option -> unit
(** Install (or clear, with [None]) a hook invoked at the start of every
    {!solve} / {!solve_from} call, before validation.  Used by the
    resilience layer to inject deterministic faults during campaigns;
    production code leaves it unset.  The hook cell is atomic, so
    installing and clearing it is safe even while {!Runner} worker
    domains are solving: every domain sees either the hook or [None],
    never a torn value.  ({!solve_from} and {!solve} with a start
    basis trigger the hook once, even when they fall back to an internal
    Phase-1 solve.) *)

val create : int -> problem
(** [create n] is a problem over [n] variables with zero objective and
    free variables ([-inf, +inf]).  @raise Invalid_argument if [n < 0]. *)

val num_vars : problem -> int

val num_rows : problem -> int

val set_objective : problem -> float array -> unit
(** Dense objective vector; minimization.
    @raise Invalid_argument on dimension mismatch. *)

val set_bounds : problem -> int -> float -> float -> unit
(** [set_bounds p j lo hi].  Use [neg_infinity] / [infinity] for
    unbounded sides.  @raise Invalid_argument if [lo > hi] or [j] is out
    of range. *)

val get_bounds : problem -> int -> float * float
(** Current (lo, hi) of a variable.  @raise Invalid_argument if [j] is
    out of range. *)

val objective_coeffs : problem -> float array
(** A copy of the current objective vector, for snapshotting the problem
    a certificate refers to. *)

val row : problem -> int -> int array * float array * cmp * float
(** [row p i] is a copy of row [i] as (indices, coefficients, cmp, rhs).
    Duplicate indices, if any, are preserved as stored (the tableau sums
    them, and so must any checker).  @raise Invalid_argument if [i] is
    out of range. *)

val add_constraint : problem -> (int * float) list -> cmp -> float -> unit
(** [add_constraint p coeffs cmp rhs] adds the row
    [sum_j coeff_j * x_j cmp rhs].  Terms with duplicate indices are
    summed.  Convenience wrapper over {!add_row}; hot paths (the
    analyzer encoders) should build index/coefficient arrays and call
    {!add_row} directly.  @raise Invalid_argument on out-of-range
    variable indices. *)

val add_row : problem -> int array -> float array -> cmp -> float -> int
(** [add_row p idx cf cmp rhs] adds the row [sum_k cf_k * x_(idx_k) cmp
    rhs] and returns its row index, for later in-place updates via
    {!set_row}.  The arrays are copied; duplicate indices are summed.
    This is the allocation-light fast path behind {!add_constraint}.
    @raise Invalid_argument on out-of-range indices or mismatched array
    lengths. *)

val set_row : problem -> int -> int array -> float array -> cmp -> float -> unit
(** [set_row p i idx cf cmp rhs] replaces row [i] in place.  Together
    with {!set_bounds} this keeps a solved problem reusable: the
    analyzer's persistent node encoding rewrites only the rows of split
    ReLUs between solves instead of rebuilding the whole LP.  A
    previously captured {!Basis.t} remains installable afterwards (the
    problem's shape is unchanged); {!solve_from} re-prices against the
    updated rows.  @raise Invalid_argument on an out-of-range row or
    variable index, or mismatched array lengths. *)

(** {2 Solving} *)

(** Where a column sits relative to the basis. *)
type status =
  | Basic
  | At_lower  (** nonbasic at its lower bound *)
  | At_upper  (** nonbasic at its upper bound *)
  | Free_zero  (** nonbasic free column resting at 0 *)

module Basis : sig
  type t
  (** A simplex basis: the basic column of every row plus the at-bound
      status of every structural and slack column.  Either a snapshot of
      an optimum ({!basis}) or a start built by {!make}.  Immutable; safe
      to hold across later mutations of the problem it came from. *)

  val make : basics:int array -> statuses:status array -> t
  (** A basis from the basic column of every row and the status of every
      column, numbered as in {!basics}: [Array.length statuses] is
      [num_vars + num_rows].  The arrays are copied; a basis that does
      not fit a problem (wrong shape, repeated basics, statuses that
      disagree with [basics]) is caught when a solve installs it.
      @raise Invalid_argument when [statuses] is shorter than
      [basics]. *)

  val basics : t -> int array
  (** A copy of the basic column of every row.  Column [j < num_vars]
      is variable [j]; column [num_vars + i] is the slack of row [i]. *)

  val statuses : t -> status array
  (** A copy of the status of every column, numbered as in {!basics}. *)
end

val solve : ?start:Basis.t -> problem -> result
(** Solve the problem as currently built, from scratch.  Without
    [start], from a Phase-1 artificial start (bit for bit the solver's
    long-standing cold solve).  With [start], the basis is installed by
    refactorization.  When every basic lies within its bounds (to
    within [1e-7]) the primal simplex runs from it straight to the
    optimum, with no implied bounds and no flips.  Otherwise the bounded
    dual simplex of {!solve_from} runs from it, under the same
    acceptance test.  A start that is singular, a dual ray, an unbounded
    ray, the iteration cap or numerical trouble hands the solve to
    Phase 1, so [Infeasible] and its Farkas witness, and [Unbounded],
    only ever come from Phase 1.  Both are [Cold] in {!last_stats};
    [phase1] tells them apart.  The problem may be extended and
    re-solved afterwards.  Records {!last_stats}, and on an [Optimal]
    result {!basis}; a solve that raises leaves {!last_stats}, {!basis}
    and {!last_certificate} at [None]. *)

(** {2 Warm starts} *)

val basis : problem -> Basis.t option
(** The basis snapshot captured by the most recent successful solve of
    this problem, if any.  [None] before the first solve, after a
    non-[Optimal] result or a raised failure, or when the optimum left an artificial column
    basic (a basis the warm path could not re-install). *)

val solve_from : ?start:(unit -> Basis.t option) -> problem -> Basis.t -> result
(** [solve_from ?start p b] solves [p] warm-starting from basis [b]
    (typically the parent node's {!basis}).  The basis is re-installed
    by refactorization; each live [Le] / [Ge] row's slack gets its
    implied bound ([b - sum_j min(a_j lo_j, a_j hi_j)] above for [Le],
    the [max] below for [Ge], padded outward; infinite when a term's
    variable bound is); boxed nonbasic columns flip to the bound their
    reduced cost favours; a bounded dual simplex (largest bound
    violation leaves, smallest [|d_j / alpha_rj|] enters, ties to the
    larger [|alpha_rj|], Bland's rule after a degenerate run) drives the
    basics into their bounds; and a primal pass cleans up drift —
    usually a handful of pivots instead of a full two-phase solve.

    The attempt is abandoned (and the solve reports [Warm_miss] in
    {!last_stats}) whenever the snapshot does not fit: shape mismatch,
    singular or inconsistent basis, a row whose implied bound leaves
    its slack no room, a one-sided or free column with a wrong-signed
    reduced cost, no entering column (a dual ray: the child is
    infeasible), an unbounded cleanup, the iteration cap, numerical
    failure, or an optimum with a slack resting on its implied bound.
    An abandoned attempt other than a dual ray then calls [start] (at
    most once, and only then) and, when it gives a basis, answers as
    {!solve} with that start would; a dual ray, or no start, goes
    straight to the Phase-1 solve.  Optima agree with a cold solve's up
    to float tolerance (the vertex may differ where the optimum is not
    unique); [Infeasible] and [Unbounded] are only ever decided by
    Phase 1. *)

(** {2 Per-solve statistics} *)

type warm =
  | Cold  (** {!solve}, with or without a start basis *)
  | Warm_hit  (** {!solve_from} succeeded from the given basis *)
  | Warm_miss
      (** {!solve_from} abandoned the given basis; the start basis or
          the Phase-1 solve answered *)

type solve_stats = {
  pivots : int;
      (** simplex iterations performed (basis changes + bound flips),
          across all phases of the solve *)
  factor_pivots : int;
      (** Gauss-Jordan pivots spent installing the basis that answered: a
          parent basis or a start basis (0 for a Phase-1 solve; rows
          whose own slack is basic are free) *)
  miss_pivots : int;
      (** every pivot (simplex and Gauss-Jordan) spent by the attempts
          this solve abandoned before the one that answered — a warm
          attempt, a start basis, or both — counted in neither [pivots]
          nor [factor_pivots]; 0 when the first attempt answered *)
  phase1 : bool;
      (** the answer came from the artificial Phase-1 start: a cold
          solve or a warm miss that no basis answered, and that had
          rows its slack basis could not satisfy *)
  warm : warm;
}

val last_stats : problem -> solve_stats option
(** Statistics of the most recent solve of this problem ([None] before
    the first, or after a solve that raised).  A [Warm_miss] entry
    reports the pivots of the solve that answered: from the start
    basis, or by Phase 1. *)

val last_certificate : problem -> Certificate.t option
(** Certificate of the most recent solve: [Some (Dual _)] after an
    [Optimal] result (cold or warm), [Some (Farkas _)] after
    [Infeasible], [None] after [Unbounded], a raised failure, or before
    the first solve.  Refers to the problem's rows/bounds/objective as
    they were at that solve; snapshot them (via {!row},
    {!objective_coeffs}, {!get_bounds}) before mutating further. *)
