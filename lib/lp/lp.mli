(** Linear programming.

    A self-contained simplex solver standing in for the commercial LP
    back-end (GUROBI) used by the paper.  It solves

    {v minimize    c^T x
  subject to  a_i^T x (<= | = | >=) b_i     for each row i
              lo_j <= x_j <= hi_j           for each variable j v}

    by one bounded-variable simplex, primal and dual, with Bland's
    anti-cycling rule.  The tableau is dense over the live rows only: an
    inert row (no terms, right-hand side 0, such as the vacuous slots
    the persistent encodings write) is satisfied by its slack at 0 and
    never enters it, and pivots visit only the pivot row's nonzero
    columns; which rows are inert changes no pivot, optimum, basis or
    certificate.

    Every solve runs from a basis: a parent's ({!solve_from}), a start
    the caller supplies, or the slack basis (every slack basic, every
    variable at its finite bound, the lower one when both are, or at 0
    when free).  From a basis whose basics lie within their bounds the
    primal simplex runs; from any other, a bounded dual simplex, with
    every inequality slack boxed by the finite bound the variable box
    implies for it (rounded outward) and every boxed nonbasic column
    flipped onto the bound its reduced cost favours.  A dual ray decides
    [Infeasible], with that row of the basis inverse as the Farkas
    witness, and so does a row the box leaves no room, with that row
    alone; a primal ray decides [Unbounded].  A parent basis or a start
    answers only with an optimum of the unchanged problem, and hands
    anything else to the next basis.  The slack basis always answers: a
    one-sided or free column with a wrong-signed reduced cost gets an
    artificial bound (widened while it blocks a dual ray), and an
    optimum resting on an implied or artificial bound drops those bounds
    and continues by the primal simplex. *)

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
    multipliers of a dual ray (or of a row the box alone violates), a
    Farkas witness: the same computation with a zero objective comes out
    strictly positive, which no feasible point allows.  The
    exact-arithmetic checker lives in [Ivan_cert.Cert]; extraction here
    is float-only and untrusted. *)

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
    never a torn value.  ({!solve_from} and {!solve} trigger the hook
    once, however many bases they try.) *)

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

val row_cmp : problem -> int -> cmp
(** The comparison of row [i], without copying the row.
    @raise Invalid_argument if [i] is out of range. *)

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
(** Solve the problem as currently built, from scratch: from [start]
    when it is given and answers, otherwise from the slack basis, which
    always answers.  A start whose basics all lie within their bounds
    (to within [1e-7]) runs the primal simplex, with no implied bounds
    and no flips; any other start, or a slack basis that violates a row,
    runs the bounded dual simplex.  Every solve is [Cold] in
    {!last_stats}.  The problem may be extended and re-solved
    afterwards.  Records {!last_stats}, and on an [Optimal] result
    {!basis}; a solve that raises leaves {!last_stats}, {!basis} and
    {!last_certificate} at [None]. *)

(** {2 Warm starts} *)

val basis : problem -> Basis.t option
(** The basis snapshot captured by the most recent solve of this
    problem.  Every [Optimal] result captures one; [None] before the
    first solve, after an [Infeasible] or [Unbounded] result, or after a
    raised failure. *)

val solve_from : ?start:(unit -> Basis.t option) -> problem -> Basis.t -> result
(** [solve_from ?start p b] solves [p] warm-starting from basis [b]
    (typically the parent node's {!basis}), re-installed by
    refactorization, with the bounded dual simplex (largest bound
    violation leaves, smallest [|d_j / alpha_rj|] enters, ties to the
    larger [|alpha_rj|], Bland's rule after a degenerate run) and a
    primal pass for drift — usually a handful of pivots.  The parent
    basis answers ([Warm_hit]) with an optimum, or with [Infeasible] from
    a dual ray or a no-room row.  It is abandoned ([Warm_miss]) on a
    shape mismatch, a singular or inconsistent basis, a one-sided or
    free column with a wrong-signed reduced cost, the iteration cap,
    numerical failure, or an optimum with a slack resting on its implied
    bound; then [start] is called (at most once, and only then) and the
    solve answers as {!solve} with that start would. *)

(** {2 Per-solve statistics} *)

type warm =
  | Cold  (** {!solve}, with or without a start basis *)
  | Warm_hit  (** {!solve_from} answered from the given basis *)
  | Warm_miss
      (** {!solve_from} abandoned the given basis; the start basis or
          the slack basis answered *)

type solve_stats = {
  pivots : int;
      (** simplex iterations performed (basis changes + bound flips)
          by the attempt that answered *)
  factor_pivots : int;
      (** Gauss-Jordan pivots spent installing the basis that answered:
          a parent basis or a start basis (0 for the slack basis; rows
          whose own slack is basic are free) *)
  miss_pivots : int;
      (** every pivot (simplex and Gauss-Jordan) spent by the attempts
          this solve abandoned before the one that answered — a warm
          attempt, a start basis, or both — counted in neither [pivots]
          nor [factor_pivots]; 0 when the first attempt answered *)
  warm : warm;
}

val last_stats : problem -> solve_stats option
(** Statistics of the most recent solve of this problem ([None] before
    the first, or after a solve that raised).  A [Warm_miss] entry
    reports the pivots of the attempt that answered: from the start
    basis, or from the slack basis. *)

val last_certificate : problem -> Certificate.t option
(** Certificate of the most recent solve: [Some (Dual _)] after an
    [Optimal] result (cold or warm), [Some (Farkas _)] after
    [Infeasible], [None] after [Unbounded], a raised failure, or before
    the first solve.  Refers to the problem's rows/bounds/objective as
    they were at that solve; snapshot them (via {!row},
    {!objective_coeffs}, {!get_bounds}) before mutating further. *)
