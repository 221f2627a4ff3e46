type cmp = Le | Ge | Eq

(* Rows are stored sparse as parallel index/coefficient arrays.  Terms
   with duplicate indices are summed when the tableau is built. *)
type row = { idx : int array; cf : float array; cmp : cmp; rhs : float }

type status = Basic | At_lower | At_upper | Free_zero

type warm = Cold | Warm_hit | Warm_miss

type solve_stats = {
  pivots : int;  (* simplex iterations: basis changes + bound flips *)
  factor_pivots : int;  (* Gauss pivots spent installing a start basis *)
  miss_pivots : int;  (* all pivots an abandoned attempt spent *)
  warm : warm;
}

module Basis = struct
  (* A simplex basis: which column is basic in each row, and the
     resting status of every structural and slack column.  Captured at
     every optimum by [capture_basis] below; [make] builds a start
     basis. *)
  type t = {
    nvars : int;
    nrows : int;
    basics : int array;  (* row -> basic column in [0, nvars + nrows) *)
    statuses : status array;  (* structural + slack columns *)
  }

  let make ~basics ~statuses =
    let nrows = Array.length basics in
    let nvars = Array.length statuses - nrows in
    if nvars < 0 then invalid_arg "Lp.Basis.make: fewer statuses than rows";
    { nvars; nrows; basics = Array.copy basics; statuses = Array.copy statuses }

  let basics b = Array.copy b.basics

  let statuses b = Array.copy b.statuses
end

module Certificate = struct
  (* Row multipliers extracted from the final reduced-cost row of a
     solve.  [Dual y] witnesses a lower bound on the objective by weak
     duality; [Farkas y] witnesses infeasibility (the same bound
     computation with a zero objective comes out strictly positive).
     Both are checkable in exact arithmetic by [Ivan_cert.Cert] without
     trusting the float simplex that produced them. *)
  type t = Dual of float array | Farkas of float array
end

type problem = {
  nvars : int;
  mutable obj : float array;
  lo : float array;
  hi : float array;
  mutable rows : row array;  (* first [nrows] entries are live *)
  mutable nrows : int;
  mutable last_basis : Basis.t option;
  mutable last_stats : solve_stats option;
  mutable last_certificate : Certificate.t option;
}

type solution = { objective : float; primal : float array; certificate : Certificate.t option }

type result = Optimal of solution | Infeasible | Unbounded

exception Iteration_limit

exception Numerical_failure of string

(* Observation/injection point for every solve entry.  The resilience
   layer installs a hook here to run deterministic fault campaigns;
   production code leaves it at [None].  Atomic, because [Runner] spawns
   worker domains that all route their node LPs through here. *)
let solve_hook : (problem -> unit) option Atomic.t = Atomic.make None

let set_solve_hook h = Atomic.set solve_hook h

let run_hook p = match Atomic.get solve_hook with Some f -> f p | None -> ()

let dummy_row = { idx = [||]; cf = [||]; cmp = Le; rhs = 0.0 }

let create n =
  if n < 0 then invalid_arg "Lp.create: negative variable count";
  {
    nvars = n;
    obj = Array.make n 0.0;
    lo = Array.make n neg_infinity;
    hi = Array.make n infinity;
    rows = [||];
    nrows = 0;
    last_basis = None;
    last_stats = None;
    last_certificate = None;
  }

let num_vars p = p.nvars

let num_rows p = p.nrows

let last_stats p = p.last_stats

let last_certificate p = p.last_certificate

let basis p = p.last_basis

let objective_coeffs p = Array.copy p.obj

let row p i =
  if i < 0 || i >= p.nrows then invalid_arg "Lp.row: row out of range";
  let r = p.rows.(i) in
  (Array.copy r.idx, Array.copy r.cf, r.cmp, r.rhs)

let row_cmp p i =
  if i < 0 || i >= p.nrows then invalid_arg "Lp.row_cmp: row out of range";
  p.rows.(i).cmp

let set_objective p c =
  if Array.length c <> p.nvars then invalid_arg "Lp.set_objective: dimension mismatch";
  p.obj <- Array.copy c

let set_bounds p j lo hi =
  if j < 0 || j >= p.nvars then invalid_arg "Lp.set_bounds: variable out of range";
  if lo > hi then invalid_arg "Lp.set_bounds: lo > hi";
  p.lo.(j) <- lo;
  p.hi.(j) <- hi

let get_bounds p j =
  if j < 0 || j >= p.nvars then invalid_arg "Lp.get_bounds: variable out of range";
  (p.lo.(j), p.hi.(j))

let check_indices name p idx =
  Array.iter (fun j -> if j < 0 || j >= p.nvars then invalid_arg name) idx

let ensure_row_capacity p =
  let cap = Array.length p.rows in
  if p.nrows >= cap then begin
    let grown = Array.make (max 8 (2 * cap)) dummy_row in
    Array.blit p.rows 0 grown 0 cap;
    p.rows <- grown
  end

let add_row p idx cf cmp rhs =
  if Array.length idx <> Array.length cf then
    invalid_arg "Lp.add_row: index/coefficient length mismatch";
  check_indices "Lp.add_row: variable out of range" p idx;
  ensure_row_capacity p;
  let i = p.nrows in
  p.rows.(i) <- { idx = Array.copy idx; cf = Array.copy cf; cmp; rhs };
  p.nrows <- i + 1;
  i

let set_row p i idx cf cmp rhs =
  if i < 0 || i >= p.nrows then invalid_arg "Lp.set_row: row out of range";
  if Array.length idx <> Array.length cf then
    invalid_arg "Lp.set_row: index/coefficient length mismatch";
  check_indices "Lp.set_row: variable out of range" p idx;
  p.rows.(i) <- { idx = Array.copy idx; cf = Array.copy cf; cmp; rhs }

let add_constraint p coeffs cmp rhs =
  let len = List.length coeffs in
  let idx = Array.make len 0 in
  let cf = Array.make len 0.0 in
  List.iteri
    (fun k (j, a) ->
      idx.(k) <- j;
      cf.(k) <- a)
    coeffs;
  ignore (add_row p idx cf cmp rhs)

(* ------------------------------------------------------------------ *)
(* Bounded-variable simplex on a dense tableau of live rows.

   An inert row ([idx = [||]], [rhs = 0]: the vacuous slots of the
   persistent encodings) has its slack basic at zero from the start, is
   never a pivot row and is never updated: its tableau row stays
   e_(its slack), its slack column stays a unit column and its reduced
   cost stays +0.  So the tableau holds only the live rows and their
   slacks, and [capture_basis], [extract_multipliers] and [refactorize]
   map back to problem coordinates at the boundary.

   Column layout: [0, n) structural, then the slacks of the m live rows
   in row order; every row is a_i^T x + s_i = b_i, the slack bounds
   encoding the comparison.  The order structural < slack is what
   Bland's rule and the leaving-row tie-break compare.

   Every solve installs a basis — a parent's, a start, or the slack
   basis — and runs the primal simplex from it when it is primal
   feasible, a bounded dual simplex otherwise (see the interface).

   Every entry that is ever read again sees the same float operations
   in the same order as on the full tableau of every row and column, so
   pivots, optima, primal values, bases and certificates do not depend
   on which rows are inert. *)

let eps_cost = 1e-9
let eps_ratio = 1e-9
let eps_feas = 1e-7
let max_iterations = 50_000

type tableau = {
  m : int;  (* live rows *)
  nrows : int;  (* problem rows, live and inert *)
  ncols : int;  (* structural + live slack columns *)
  tab : float array array;  (* m x ncols: current B^{-1} A_full *)
  zrow : float array;  (* reduced costs, updated by pivots *)
  rhs_col : float array;  (* B^{-1} b *)
  lob : float array;  (* per-column lower bounds *)
  hib : float array;
  xval : float array;  (* current value of every column *)
  bval : float array;  (* value of the basic variable of each row *)
  basis : int array;  (* row -> column *)
  stat : status array;  (* column -> status *)
  live : int array;  (* tableau row -> problem row *)
  slot : int array;  (* problem row -> tableau row, -1 when inert *)
  nz : int array;  (* scratch: the columns [pivot] or [refresh_basic_values] visit *)
  nzv : float array;  (* pivot scratch: the scaled pivot row's values on [nz] *)
}

(* Slack bounds encode a row's comparison. *)
let slack_bounds = function Le -> (0.0, infinity) | Ge -> (neg_infinity, 0.0) | Eq -> (0.0, 0.0)

(* Initial value a nonbasic column rests at. *)
let resting_value lo hi = if lo > neg_infinity then lo else if hi < infinity then hi else 0.0

let resting_status lo hi =
  if lo > neg_infinity then At_lower else if hi < infinity then At_upper else Free_zero

let inert r = Array.length r.idx = 0 && r.rhs = 0.0

(* The live rows in row order, and each problem row's tableau row
   (-1 for an inert row). *)
let live_rows (p : problem) =
  let slot = Array.make p.nrows (-1) in
  let m = ref 0 in
  for i = 0 to p.nrows - 1 do
    if not (inert p.rows.(i)) then begin
      slot.(i) <- !m;
      incr m
    end
  done;
  let live = Array.make !m 0 in
  Array.iteri (fun i k -> if k >= 0 then live.(k) <- i) slot;
  (live, slot)

(* A tableau over the structural columns and the live rows' slacks,
   each live row loaded in its natural orientation with the slack
   identity in place, at the slack basis: every slack basic, every
   structural at its resting status. *)
let build_tableau (p : problem) =
  let n = p.nvars in
  let live, slot = live_rows p in
  let m = Array.length live in
  let ncols = n + m in
  let lob = Array.make ncols 0.0 in
  let hib = Array.make ncols 0.0 in
  Array.blit p.lo 0 lob 0 n;
  Array.blit p.hi 0 hib 0 n;
  let tab = Array.make_matrix m ncols 0.0 in
  let rhs_col = Array.make m 0.0 in
  Array.iteri
    (fun k i ->
      let r = p.rows.(i) in
      let slo, shi = slack_bounds r.cmp in
      lob.(n + k) <- slo;
      hib.(n + k) <- shi;
      let row = tab.(k) in
      for q = 0 to Array.length r.idx - 1 do
        row.(r.idx.(q)) <- row.(r.idx.(q)) +. r.cf.(q)
      done;
      row.(n + k) <- 1.0;
      rhs_col.(k) <- r.rhs)
    live;
  {
    m;
    nrows = p.nrows;
    ncols;
    tab;
    zrow = Array.make ncols 0.0;
    rhs_col;
    lob;
    hib;
    xval = Array.make ncols 0.0;
    bval = Array.make m 0.0;
    basis = Array.init m (fun k -> n + k);
    stat = Array.init ncols (fun j -> if j < n then resting_status lob.(j) hib.(j) else Basic);
    live;
    slot;
    nz = Array.make ncols 0;
    nzv = Array.make ncols 0.0;
  }

(* Recompute basic values from the pivoted system: for each row,
   bval = rhs - sum over nonbasic columns of tab * xval.  The nonbasic
   columns with a nonzero value are listed once, in column order. *)
let refresh_basic_values t =
  let cols = t.nz in
  let count = ref 0 in
  for j = 0 to t.ncols - 1 do
    if t.stat.(j) <> Basic && t.xval.(j) <> 0.0 then begin
      cols.(!count) <- j;
      incr count
    end
  done;
  let count = !count in
  for i = 0 to t.m - 1 do
    let acc = ref t.rhs_col.(i) in
    let row = t.tab.(i) in
    for q = 0 to count - 1 do
      let j = cols.(q) in
      acc := !acc -. (row.(j) *. t.xval.(j))
    done;
    t.bval.(i) <- !acc;
    t.xval.(t.basis.(i)) <- !acc
  done

(* Rebuild the reduced-cost row for the problem's objective. *)
let price_objective (p : problem) t =
  Array.fill t.zrow 0 t.ncols 0.0;
  Array.blit p.obj 0 t.zrow 0 p.nvars;
  for i = 0 to t.m - 1 do
    let cb = if t.basis.(i) < p.nvars then p.obj.(t.basis.(i)) else 0.0 in
    if cb <> 0.0 then begin
      let row = t.tab.(i) in
      for j = 0 to t.ncols - 1 do
        t.zrow.(j) <- t.zrow.(j) -. (cb *. row.(j))
      done
    end
  done

(* Storage is dense but the kernel is sparse-row: the pivot row is
   scaled once and its nonzero columns packed, index and value, into
   [t.nz] / [t.nzv]; every other row (and the cost row) is then updated
   on those columns only, reading the packed values in order.  On a
   column where the pivot row is zero the update would subtract a signed
   zero, so skipping it changes at most the sign of a zero entry, which
   no comparison can see: pivot choices stay the same. *)
let pivot t r j =
  let prow = t.tab.(r) in
  let piv = prow.(j) in
  (* A non-finite or collapsed pivot means the tableau has degraded past
     the point where further elimination is meaningful: dividing by it
     would spray NaN/inf across the basis.  Fail loudly instead of
     looping on garbage. *)
  if not (Float.is_finite piv) || Float.abs piv < 1e-12 then
    raise
      (Numerical_failure
         (Printf.sprintf "pivot element %h at row %d, column %d" piv t.live.(r) j));
  let inv = 1.0 /. piv in
  let nz = t.nz in
  let nzv = t.nzv in
  let count = ref 0 in
  for k = 0 to t.ncols - 1 do
    let a = prow.(k) in
    if a <> 0.0 then begin
      let v = a *. inv in
      prow.(k) <- v;
      nz.(!count) <- k;
      nzv.(!count) <- v;
      incr count
    end
  done;
  let count = !count in
  t.rhs_col.(r) <- t.rhs_col.(r) *. inv;
  (* The packed indices come from checked reads of the pivot row, and
     every tableau row and the cost row are as long as it (all are
     allocated [ncols] wide by [build_tableau]), so the updates below
     skip the per-entry bounds checks. *)
  for i = 0 to t.m - 1 do
    if i <> r then begin
      let row = t.tab.(i) in
      let f = row.(j) in
      if Float.abs f > 0.0 then begin
        for q = 0 to count - 1 do
          let k = Array.unsafe_get nz q in
          Array.unsafe_set row k (Array.unsafe_get row k -. (f *. Array.unsafe_get nzv q))
        done;
        row.(j) <- 0.0;
        t.rhs_col.(i) <- t.rhs_col.(i) -. (f *. t.rhs_col.(r))
      end
    end
  done;
  let f = t.zrow.(j) in
  if Float.abs f > 0.0 then begin
    let zrow = t.zrow in
    for q = 0 to count - 1 do
      let k = Array.unsafe_get nz q in
      Array.unsafe_set zrow k (Array.unsafe_get zrow k -. (f *. Array.unsafe_get nzv q))
    done;
    zrow.(j) <- 0.0
  end

(* [Step_moved] when some basic value changed by more than [eps_ratio],
   [Step_stalled] for a degenerate step. *)
type step_outcome = Step_optimal | Step_moved | Step_stalled

(* The verdicts a solve reaches short of an optimum: [Infeasible] with
   its Farkas witness, and [Unbounded] from a primal ray. *)
exception Decided_infeasible of float array

exception Decided_unbounded

(* Move the basic value of every row but [skip] by [step] units of
   column [j], and say whether any moved by more than [eps_ratio]. *)
let move_basics t j ~skip step =
  let moved = ref false in
  for i = 0 to t.m - 1 do
    if i <> skip then begin
      let alpha = t.tab.(i).(j) in
      if alpha <> 0.0 then begin
        let old = t.bval.(i) in
        let v = old -. (alpha *. step) in
        t.bval.(i) <- v;
        t.xval.(t.basis.(i)) <- v;
        if Float.abs (v -. old) > eps_ratio then moved := true
      end
    end
  done;
  !moved

(* One primal simplex iteration.  [bland] forces Bland's rule for
   entering and leaving choices (anti-cycling); otherwise the
   most-improving reduced cost is used.  An improving column that
   nothing blocks is a primal ray: the problem is unbounded. *)
let simplex_step t ~bland =
  (* Entering column selection.  A column moving in direction [d] gains
     -d * z per unit.  Fixed columns (lo = hi) can never improve the
     objective and are skipped.  A [Free_zero] column moves whichever
     way its reduced cost favours, from wherever it rests. *)
  let ncols = t.ncols in
  let entering = ref (-1) in
  let enter_dir = ref 1.0 in
  let best = ref eps_cost in
  let c = ref 0 in
  while !c < ncols && not (bland && !entering >= 0) do
    let j = !c in
    if t.lob.(j) < t.hib.(j) then begin
      let z = t.zrow.(j) in
      let d =
        match t.stat.(j) with
        | Basic -> 0.0
        | At_lower -> 1.0
        | At_upper -> -1.0
        | Free_zero -> if z < 0.0 then 1.0 else -1.0
      in
      let gain = -.(d *. z) in
      if gain > eps_cost && (bland || gain > !best) then begin
        entering := j;
        enter_dir := d;
        best := gain
      end
    end;
    incr c
  done;
  if !entering < 0 then Step_optimal
  else begin
    let j = !entering in
    let dir = !enter_dir in
    (* Ratio test: entering moves by t >= 0 in direction [dir]; basic i
       changes at rate delta_i = -dir * tab[i][j]. *)
    let limit = ref infinity in
    let leaving = ref (-1) in
    let leaving_to_upper = ref false in
    for i = 0 to t.m - 1 do
      let alpha = t.tab.(i).(j) in
      let delta = -.dir *. alpha in
      if delta > eps_ratio then begin
        let b = t.basis.(i) in
        let room = t.hib.(b) -. t.bval.(i) in
        let ratio = if room <= 0.0 then 0.0 else room /. delta in
        if
          ratio < !limit -. eps_ratio
          || (ratio < !limit +. eps_ratio && !leaving >= 0 && t.basis.(i) < t.basis.(!leaving))
        then begin
          limit := Float.max 0.0 ratio;
          leaving := i;
          leaving_to_upper := true
        end
      end
      else if delta < -.eps_ratio then begin
        let b = t.basis.(i) in
        let room = t.bval.(i) -. t.lob.(b) in
        let ratio = if room <= 0.0 then 0.0 else room /. -.delta in
        if
          ratio < !limit -. eps_ratio
          || (ratio < !limit +. eps_ratio && !leaving >= 0 && t.basis.(i) < t.basis.(!leaving))
        then begin
          limit := Float.max 0.0 ratio;
          leaving := i;
          leaving_to_upper := false
        end
      end
    done;
    (* The entering variable's own bound ahead of it can also bind. *)
    let own_span = if dir > 0.0 then t.hib.(j) -. t.xval.(j) else t.xval.(j) -. t.lob.(j) in
    let flip = own_span < !limit -. eps_ratio in
    if flip then begin
      (* Bound flip: no basis change. *)
      let moved = move_basics t j ~skip:(-1) (dir *. own_span) in
      t.xval.(j) <- (if dir > 0.0 then t.hib.(j) else t.lob.(j));
      t.stat.(j) <- (if dir > 0.0 then At_upper else At_lower);
      if moved then Step_moved else Step_stalled
    end
    else if !leaving < 0 then raise Decided_unbounded
    else begin
      let r = !leaving in
      let step = dir *. !limit in
      (* Move all basic values, then swap basis. *)
      let moved = move_basics t j ~skip:r step in
      let out = t.basis.(r) in
      let out_value = if !leaving_to_upper then t.hib.(out) else t.lob.(out) in
      t.xval.(out) <- out_value;
      t.stat.(out) <- (if !leaving_to_upper then At_upper else At_lower);
      let enter_value = t.xval.(j) +. step in
      let moved = moved || Float.abs (enter_value -. t.bval.(r)) > eps_ratio in
      pivot t r j;
      t.basis.(r) <- j;
      t.stat.(j) <- Basic;
      t.xval.(j) <- enter_value;
      t.bval.(r) <- enter_value;
      if moved then Step_moved else Step_stalled
    end
  end

(* NaN anywhere in the basic values or reduced costs silently corrupts
   the entering/leaving choices (every comparison against NaN is false),
   so the loop would either cycle forever or stop at a garbage "optimum".
   Checked at the same cadence as the periodic refresh. *)
let check_tableau_finite t =
  for i = 0 to t.m - 1 do
    if Float.is_nan t.bval.(i) || Float.is_nan t.rhs_col.(i) then
      raise (Numerical_failure (Printf.sprintf "non-finite basic value in row %d" t.live.(i)))
  done;
  for j = 0 to t.ncols - 1 do
    if Float.is_nan t.zrow.(j) then
      raise (Numerical_failure (Printf.sprintf "non-finite reduced cost in column %d" j))
  done

(* Run iterations of [step] (the primal [simplex_step] or the
   [dual_step]) until it reports an optimum, accumulating the iteration
   count into [counter].  Bland's rule takes over after more degenerate
   steps in a row than twice the problem's row count (inert rows
   included) plus two. *)
let iterate step t ~counter =
  let bland_after = 2 * (t.nrows + 1) in
  let rec go iter degenerate_streak =
    if iter > max_iterations then raise Iteration_limit;
    if iter mod 64 = 0 then begin
      refresh_basic_values t;
      check_tableau_finite t
    end;
    match step t ~bland:(degenerate_streak > bland_after) with
    | Step_optimal -> ()
    | Step_moved ->
        incr counter;
        go (iter + 1) 0
    | Step_stalled ->
        incr counter;
        go (iter + 1) (degenerate_streak + 1)
  in
  go 1 0

(* Primal simplex to optimality for the current cost row. *)
let optimize t ~counter = iterate simplex_step t ~counter

(* Reject problems that are already numerically corrupt.  Infinite
   variable bounds are legal (they mean "unbounded in that direction"),
   but NaN bounds and non-finite coefficients or right-hand sides have no
   meaning the simplex could preserve. *)
let validate_problem p =
  for j = 0 to p.nvars - 1 do
    if Float.is_nan p.lo.(j) || Float.is_nan p.hi.(j) then
      raise (Numerical_failure (Printf.sprintf "NaN bound on variable %d" j));
    if not (Float.is_finite p.obj.(j)) then
      raise (Numerical_failure (Printf.sprintf "non-finite objective coefficient on variable %d" j))
  done;
  for i = 0 to p.nrows - 1 do
    let r = p.rows.(i) in
    if not (Float.is_finite r.rhs) then raise (Numerical_failure "non-finite constraint rhs");
    Array.iteri
      (fun k a ->
        if not (Float.is_finite a) then
          raise
            (Numerical_failure (Printf.sprintf "non-finite coefficient on variable %d" r.idx.(k))))
      r.cf
  done

(* Snapshot the optimal basis in problem coordinates; an inert row's
   basic is its own slack. *)
let capture_basis (p : problem) t =
  let n = p.nvars in
  let basics = Array.init p.nrows (fun i -> n + i) in
  let statuses = Array.make (n + p.nrows) Basic in
  Array.blit t.stat 0 statuses 0 n;
  Array.iteri
    (fun k i ->
      statuses.(n + i) <- t.stat.(n + k);
      let c = t.basis.(k) in
      basics.(i) <- (if c < n then c else n + t.live.(c - n)))
    t.live;
  { Basis.nvars = n; nrows = p.nrows; basics; statuses }

(* Clamp a row multiplier to the sign its comparison admits: simplex
   tolerances can leave a wrong-signed residue which exact certificate
   checking would reject, and clamping only ever weakens the certified
   bound. *)
let admissible cmp v = match cmp with Le -> Float.min 0.0 v | Ge -> Float.max 0.0 v | Eq -> v

(* Row multipliers implied by the current reduced-cost row.  The slack
   of row i appears only in row i, with coefficient +1, so its reduced
   cost is the row's negated multiplier: y_i = -zrow(slack of i); an
   inert row's slack reduced cost is +0. *)
let extract_multipliers (p : problem) t =
  let n = p.nvars in
  Array.init p.nrows (fun i ->
      let k = t.slot.(i) in
      admissible p.rows.(i).cmp (-.(if k < 0 then 0.0 else t.zrow.(n + k))))

let optimal_solution (p : problem) t =
  let n = p.nvars in
  let primal = Array.sub t.xval 0 n in
  let objective = ref 0.0 in
  for j = 0 to n - 1 do
    objective := !objective +. (p.obj.(j) *. primal.(j))
  done;
  let certificate = Some (Certificate.Dual (extract_multipliers p t)) in
  { objective = !objective; primal; certificate }

(* A solve starts from a clean slate: one that raises leaves no
   statistics, basis or certificate of an earlier solve behind. *)
let forget p =
  p.last_stats <- None;
  p.last_basis <- None;
  p.last_certificate <- None

(* ------------------------------------------------------------------ *)
(* Installing a basis *)

(* An attempt from a parent basis or a start that does not answer. *)
exception Warm_bail

(* Re-derive every nonbasic column's value from its status against the
   problem's CURRENT bounds: bounds may have moved since the basis was
   captured.  Statuses pointing at a bound that no longer exists are
   downgraded to the resting status. *)
let normalize_nonbasic t =
  for j = 0 to t.ncols - 1 do
    if t.stat.(j) <> Basic then begin
      match t.stat.(j) with
      | At_lower when t.lob.(j) > neg_infinity -> t.xval.(j) <- t.lob.(j)
      | At_upper when t.hib.(j) < infinity -> t.xval.(j) <- t.hib.(j)
      | Free_zero when t.lob.(j) = neg_infinity && t.hib.(j) = infinity -> t.xval.(j) <- 0.0
      | _ ->
          t.stat.(j) <- resting_status t.lob.(j) t.hib.(j);
          t.xval.(j) <- resting_value t.lob.(j) t.hib.(j)
    end
  done

let basics_within_bounds t =
  Array.for_all2
    (fun b v -> not (v < t.lob.(b) -. eps_feas || v > t.hib.(b) +. eps_feas))
    t.basis t.bval

(* Install a captured basis on a fresh tableau and bring the tableau to
   that basis by Gauss-Jordan elimination.  Rows whose basic column is
   their own slack are already unit-pivoted (the slack column appears in
   no other row, so later pivots never disturb them); the remaining rows
   are pivoted greedily on the largest available pivot element.  When
   every remaining row's recorded column has collapsed — typically a row
   rewritten by {!set_row} since the capture, e.g. a ReLU constraint
   slot gone vacuous at this node — the basis is repaired locally: such
   a row takes its own slack as basic (a unit coefficient while the row
   is unpivoted) and the recorded column is demoted to nonbasic.  Only
   when no repair applies either is the snapshot truly singular for the
   current rows — the attempt bails.

   The basis, the pending rows and the repair order stay in problem
   coordinates.  An inert row is e_(its slack) and every inert slack
   column is zero outside its own row, so an inert row leaves [pending]
   only through own-slack repair, a pivot that changes no number but
   still counts and still demotes the recorded column; at the end every
   inert row has its own slack basic and every live row a live column. *)
let refactorize (p : problem) t (b : Basis.t) ~factor_counter =
  let n = p.nvars in
  let ncols = n + p.nrows in
  let basics = Array.copy b.Basis.basics in
  let stat = Array.copy b.Basis.statuses in
  (* Sanity: basics are distinct, in range, and agree with statuses. *)
  let is_basic = Array.make ncols false in
  Array.iter
    (fun c ->
      if c < 0 || c >= ncols then raise Warm_bail;
      if is_basic.(c) then raise Warm_bail;
      is_basic.(c) <- true)
    basics;
  for j = 0 to ncols - 1 do
    if is_basic.(j) <> (stat.(j) = Basic) then raise Warm_bail
  done;
  (* The tableau column of a problem column, -1 for an inert slack. *)
  let column c = if c < n then c else match t.slot.(c - n) with -1 -> -1 | k -> n + k in
  (* |entry| of problem row [r] at problem column [c]. *)
  let magnitude r c =
    match t.slot.(r) with
    | -1 -> if c = n + r then 1.0 else 0.0
    | k -> ( match column c with -1 -> 0.0 | tc -> Float.abs t.tab.(k).(tc))
  in
  let pending = ref [] in
  for i = p.nrows - 1 downto 0 do
    if basics.(i) <> n + i then pending := i :: !pending
  done;
  while !pending <> [] do
    let best_r = ref (-1) in
    let best_mag = ref 0.0 in
    List.iter
      (fun r ->
        let mag = magnitude r basics.(r) in
        if mag > !best_mag then begin
          best_r := r;
          best_mag := mag
        end)
      !pending;
    let r =
      if !best_r >= 0 && !best_mag >= 1e-9 then !best_r
      else begin
        (* Stuck: repair one stuck row with its own slack. *)
        let candidate = ref (-1) in
        List.iter
          (fun r ->
            if !candidate < 0 && (not is_basic.(n + r)) && magnitude r (n + r) >= 1e-9 then
              candidate := r)
          !pending;
        if !candidate < 0 then raise Warm_bail;
        let r = !candidate in
        let old = basics.(r) in
        is_basic.(old) <- false;
        stat.(old) <-
          (match column old with
          | -1 ->
              let lo, hi = slack_bounds p.rows.(old - n).cmp in
              resting_status lo hi
          | c -> resting_status t.lob.(c) t.hib.(c));
        is_basic.(n + r) <- true;
        stat.(n + r) <- Basic;
        basics.(r) <- n + r;
        r
      end
    in
    (match t.slot.(r) with -1 -> () | k -> pivot t k (column basics.(r)));
    incr factor_counter;
    pending := List.filter (fun i -> i <> r) !pending
  done;
  Array.blit stat 0 t.stat 0 n;
  Array.iteri
    (fun k i ->
      t.basis.(k) <- column basics.(i);
      t.stat.(n + k) <- stat.(n + i))
    t.live

(* ------------------------------------------------------------------ *)
(* The bounded dual simplex *)

(* A row the box alone violates is its own Farkas witness: multiplier
   -1 on a [Le] row, +1 on a [Ge] row. *)
let row_witness (p : problem) i =
  let y = Array.make p.nrows 0.0 in
  y.(i) <- (if p.rows.(i).cmp = Le then -1.0 else 1.0);
  y

(* Give each live inequality row's slack the finite bound the variable
   box implies for it: a [Le] row's slack s = b - a.x is at most
   b - sum_j min(a_j lo_j, a_j hi_j), a [Ge] row's at least
   b - sum_j max(a_j lo_j, a_j hi_j).  The float sum is padded outward
   by a bound on its rounding error (plus the least normal float, for
   underflow), so no point of the box violates the implied bound; it is
   infinite when a term's variable bound is.  With every slack boxed, a
   flip makes almost any basis dual feasible.  A row the box leaves no
   room (the padded implied bound reaches the slack's own) is
   infeasible over the box, and is its own witness. *)
let imply_slack_bounds (p : problem) t =
  let n = p.nvars in
  for k = 0 to t.m - 1 do
    let r = p.rows.(t.live.(k)) in
    if r.cmp <> Eq then begin
      let upper = r.cmp = Le in
      let acc = ref 0.0 and mag = ref 0.0 in
      for q = 0 to Array.length r.idx - 1 do
        let a = r.cf.(q) in
        if a <> 0.0 then begin
          let j = r.idx.(q) in
          let v = a *. (if a > 0.0 = upper then p.lo.(j) else p.hi.(j)) in
          acc := !acc +. v;
          mag := !mag +. Float.abs v
        end
      done;
      let pad =
        (float_of_int (Array.length r.idx + 2) *. epsilon_float *. (Float.abs r.rhs +. !mag))
        +. Float.min_float
      in
      let no_room () = raise (Decided_infeasible (row_witness p t.live.(k))) in
      if upper then begin
        let bound = r.rhs -. !acc +. pad in
        if bound <= 0.0 then no_room ();
        t.hib.(n + k) <- bound
      end
      else begin
        let bound = r.rhs -. !acc -. pad in
        if bound >= 0.0 then no_room ();
        t.lob.(n + k) <- bound
      end
    end
  done

(* The bounds a column has in the problem itself. *)
let real_bounds (p : problem) t j =
  if j < p.nvars then (p.lo.(j), p.hi.(j)) else slack_bounds p.rows.(t.live.(j - p.nvars)).cmp

(* Implied slack bounds and artificial bounds are only devices for the
   dual simplex: an optimum that rests a column on one is not an
   optimum the unchanged problem's multipliers certify.  Restore every
   column's own bounds, and say whether a nonbasic column rested on a
   device bound; such a column is [Free_zero] until the primal simplex
   moves it, whichever way its reduced cost favours, as far as its
   bound ahead. *)
let drop_device_bounds (p : problem) t =
  let rested = ref false in
  for j = 0 to t.ncols - 1 do
    let lo, hi = real_bounds p t j in
    t.lob.(j) <- lo;
    t.hib.(j) <- hi;
    match t.stat.(j) with
    | (At_lower | At_upper) when t.xval.(j) <> (if t.stat.(j) = At_lower then lo else hi) ->
        t.stat.(j) <- Free_zero;
        rested := true
    | _ -> ()
  done;
  !rested

(* A one-sided or free column's first artificial bound lies this far
   from where it rests. *)
let artificial_span = 1e6

(* Make the installed basis dual feasible for the current cost row:
   every boxed nonbasic column moves onto the bound its reduced cost
   favours.  A one-sided or free column whose reduced cost has the
   wrong sign — one the primal pricing would enter — bails when
   [artificial] is empty; otherwise it is marked there and boxed by an
   artificial bound [artificial_span] away on the side it favours. *)
let flip_to_dual_feasible t ~artificial =
  for j = 0 to t.ncols - 1 do
    let d = t.zrow.(j) in
    let boxed () = Float.is_finite t.lob.(j) && Float.is_finite t.hib.(j) in
    if t.stat.(j) <> Basic && t.lob.(j) < t.hib.(j) then begin
      let wrong =
        match t.stat.(j) with
        | At_lower -> d < -.eps_cost
        | At_upper -> d > eps_cost
        | Free_zero -> Float.abs d > eps_cost
        | Basic -> false
      in
      let artificial_bound = wrong && not (boxed ()) in
      if artificial_bound then begin
        if artificial = [||] then raise Warm_bail;
        artificial.(j) <- true;
        if d < 0.0 then t.hib.(j) <- t.xval.(j) +. artificial_span
        else t.lob.(j) <- t.xval.(j) -. artificial_span
      end;
      if artificial_bound || boxed () then
        if d > eps_cost then begin
          t.stat.(j) <- At_lower;
          t.xval.(j) <- t.lob.(j)
        end
        else if d < -.eps_cost then begin
          t.stat.(j) <- At_upper;
          t.xval.(j) <- t.hib.(j)
        end
    end
  done

(* Raised by [dual_step] when the leaving row has no entering column. *)
exception Dual_ray of int

(* One bounded dual simplex iteration from a dual feasible basis.  The
   leaving row is the basic with the largest bound violation, and it
   leaves at the bound it violates.  The entering column is, among the
   movable nonbasics whose move pushes that basic toward its bound (with
   |alpha_rj| > [eps_ratio]), the one with the smallest |d_j / alpha_rj|,
   so every reduced cost keeps its sign; ties go to the larger
   |alpha_rj|.  Under [bland] the leaving row is the violated one with
   the lowest basic column and ties go to the lower column.  No entering
   column is a dual ray, raised as [Dual_ray r]. *)
let dual_step t ~bland =
  let r = ref (-1) in
  let worst = ref eps_feas in
  for i = 0 to t.m - 1 do
    let b = t.basis.(i) in
    let v = t.bval.(i) in
    let viol = Float.max (t.lob.(b) -. v) (v -. t.hib.(b)) in
    if viol > eps_feas && (if bland then !r < 0 || b < t.basis.(!r) else viol > !worst) then begin
      r := i;
      worst := viol
    end
  done;
  if !r < 0 then Step_optimal
  else begin
    let r = !r in
    let out = t.basis.(r) in
    let below = t.bval.(r) < t.lob.(out) in
    (* The basic must rise when [below]: column j moved up by one unit
       moves it by -alpha_rj. *)
    let toward = if below then -1.0 else 1.0 in
    let prow = t.tab.(r) in
    let entering = ref (-1) in
    let best_ratio = ref infinity in
    let best_alpha = ref 0.0 in
    for j = 0 to t.ncols - 1 do
      if t.stat.(j) <> Basic && t.lob.(j) < t.hib.(j) then begin
        let alpha = prow.(j) in
        let a = toward *. alpha in
        let d = t.zrow.(j) in
        let slope =
          match t.stat.(j) with
          | At_lower when a > eps_ratio -> Float.max 0.0 d
          | At_upper when a < -.eps_ratio -> Float.max 0.0 (-.d)
          | Free_zero when Float.abs a > eps_ratio -> Float.abs d
          | _ -> -1.0 (* cannot move the basic toward its bound *)
        in
        if slope >= 0.0 then begin
          let ratio = slope /. Float.abs alpha in
          if
            ratio < !best_ratio
            || (ratio = !best_ratio && (not bland) && Float.abs alpha > !best_alpha)
          then begin
            entering := j;
            best_ratio := ratio;
            best_alpha := Float.abs alpha
          end
        end
      end
    done;
    if !entering < 0 then raise (Dual_ray r)
    else begin
      let j = !entering in
      let target = if below then t.lob.(out) else t.hib.(out) in
      let step = (t.bval.(r) -. target) /. prow.(j) in
      let moved = move_basics t j ~skip:r step in
      t.xval.(out) <- target;
      t.stat.(out) <- (if below then At_lower else At_upper);
      let enter_value = t.xval.(j) +. step in
      let stalled = Float.abs t.zrow.(j) <= eps_cost in
      pivot t r j;
      t.basis.(r) <- j;
      t.stat.(j) <- Basic;
      t.xval.(j) <- enter_value;
      t.bval.(r) <- enter_value;
      if moved && not stalled then Step_moved else Step_stalled
    end
  end

(* The direction the basic of ray row [r] must move: -1 when it lies
   below its lower bound, +1 above its upper. *)
let ray_direction t r = if t.bval.(r) < t.lob.(t.basis.(r)) then -1.0 else 1.0

(* The Farkas witness of a dual ray in row [r]: row r of B^-1 (the
   row's slack columns), signed so that the basic cannot reach its
   bound, and clamped to each comparison's sign.  A wrong-signed entry
   belongs to a slack resting on its implied bound; zeroing it is at
   least as strong, because the box implies that bound. *)
let ray_witness (p : problem) t r =
  let n = p.nvars in
  let toward = ray_direction t r in
  let y = Array.make p.nrows 0.0 in
  Array.iteri (fun k i -> y.(i) <- admissible p.rows.(i).cmp (toward *. t.tab.(r).(n + k))) t.live;
  y

(* Whether an artificial bound, not the problem, stops ray row [r]: the
   bound the row's basic violates is one, or a marked column rests on
   one and moving past it would push the basic toward its bound.  Then
   every artificial bound moves out to [artificial_span] beyond twice
   its distance from 0, its column moving along if it rests there,
   which keeps the basis dual feasible; this counts as an iteration. *)
let widened_past_ray p t ~artificial r ~counter =
  let toward = ray_direction t r in
  let stops j =
    let lo, hi = real_bounds p t j in
    match t.stat.(j) with
    | Basic -> j = t.basis.(r) && if toward < 0.0 then t.lob.(j) <> lo else t.hib.(j) <> hi
    | At_upper -> t.hib.(j) <> hi && toward *. t.tab.(r).(j) > eps_ratio
    | At_lower -> t.lob.(j) <> lo && toward *. t.tab.(r).(j) < -.eps_ratio
    | Free_zero -> false
  in
  let blocked = ref false in
  Array.iteri (fun j marked -> if marked && stops j then blocked := true) artificial;
  if !blocked then begin
    let widen v = (2.0 *. Float.abs v) +. artificial_span in
    Array.iteri
      (fun j marked ->
        if marked then
          if t.hib.(j) <> snd (real_bounds p t j) then t.hib.(j) <- widen t.hib.(j)
          else t.lob.(j) <- -.widen t.lob.(j))
      artificial;
    normalize_nonbasic t;
    incr counter;
    if !counter > max_iterations then raise Iteration_limit;
    refresh_basic_values t
  end;
  !blocked

(* The bounded dual simplex from an installed basis: box the slacks by
   their implied bounds, flip to dual feasibility, run the dual simplex
   to primal feasibility and a primal pass to clean up any drift.  A
   dual ray decides [Infeasible].  An optimum with a basic out of bounds
   or a column on a device bound bails, unless the attempt must answer
   ([always], from the slack basis): then drift re-runs the dual simplex
   and the device bounds are dropped for the primal simplex. *)
let dual_simplex p t ~counter ~always =
  imply_slack_bounds p t;
  normalize_nonbasic t;
  price_objective p t;
  let artificial = if always then Array.make t.ncols false else [||] in
  flip_to_dual_feasible t ~artificial;
  refresh_basic_values t;
  let rec settle () =
    let before = !counter in
    match iterate dual_step t ~counter with
    | exception Dual_ray r -> (
        (* A violation the incremental updates made up is no ray: decide
           only on basic values recomputed from the nonbasic ones. *)
        let drifted = t.bval.(r) in
        refresh_basic_values t;
        if t.bval.(r) <> drifted || widened_past_ray p t ~artificial r ~counter then settle ()
        else raise (Decided_infeasible (ray_witness p t r)))
    | () ->
        optimize t ~counter;
        refresh_basic_values t;
        if not (basics_within_bounds t) then begin
          if not always then raise Warm_bail;
          if !counter = before then raise (Numerical_failure "basic values drift out of bounds");
          settle ()
        end
        else if drop_device_bounds p t then begin
          if not always then raise Warm_bail;
          optimize t ~counter;
          refresh_basic_values t
        end
  in
  settle ()

(* From a start or the slack basis: when every basic lies within its
   bounds the primal simplex runs from there, with no device bounds and
   no flips; otherwise the dual simplex repairs it. *)
let primal_or_dual p t ~counter ~always =
  normalize_nonbasic t;
  refresh_basic_values t;
  if basics_within_bounds t then begin
    price_objective p t;
    optimize t ~counter;
    refresh_basic_values t
  end
  else dual_simplex p t ~counter ~always

(* ------------------------------------------------------------------ *)
(* Solving *)

(* Run [path] on the installed tableau and record its answer: the
   optimum with its basis and dual certificate, or a decided verdict. *)
let decide p t path =
  match path t with
  | () ->
      let s = optimal_solution p t in
      p.last_basis <- Some (capture_basis p t);
      p.last_certificate <- s.certificate;
      Optimal s
  | exception Decided_infeasible y ->
      p.last_certificate <- Some (Certificate.Farkas y);
      Infeasible
  | exception Decided_unbounded -> Unbounded

(* Install [b] and run [path] from it; [None] when the basis does not fit
   the problem, or the attempt bails, overruns or fails numerically.
   The caller owns the pivot counters, so an abandoned attempt still
   reports what it spent. *)
let attempt p (b : Basis.t) ~factor_counter path =
  if b.Basis.nvars <> p.nvars || b.Basis.nrows <> p.nrows then None
  else
    let t = build_tableau p in
    match
      refactorize p t b ~factor_counter;
      decide p t path
    with
    | r -> Some r
    | exception (Warm_bail | Numerical_failure _ | Iteration_limit) -> None

let record p result ~pivots ~factor_pivots ~miss_pivots ~warm =
  p.last_stats <- Some { pivots; factor_pivots; miss_pivots; warm };
  result

(* The slack basis always answers (or raises). *)
let from_slack_basis p ~warm ~spent =
  let counter = ref 0 in
  let t = build_tableau p in
  let result = decide p t (primal_or_dual p ~counter ~always:true) in
  record p result ~pivots:!counter ~factor_pivots:0 ~miss_pivots:spent ~warm

(* Answer from the start basis when it gives one and its attempt
   answers, and from the slack basis otherwise; [spent] is what an
   earlier abandoned attempt of this solve already spent. *)
let from_start p start ~warm ~spent =
  match start with
  | None -> from_slack_basis p ~warm ~spent
  | Some b -> (
      let counter = ref 0 and factor_counter = ref 0 in
      match attempt p b ~factor_counter (primal_or_dual p ~counter ~always:false) with
      | Some result ->
          record p result ~pivots:!counter ~factor_pivots:!factor_counter ~miss_pivots:spent ~warm
      | None -> from_slack_basis p ~warm ~spent:(spent + !counter + !factor_counter))

let solve ?start p =
  forget p;
  run_hook p;
  validate_problem p;
  from_start p start ~warm:Cold ~spent:0

let solve_from ?start p b =
  forget p;
  run_hook p;
  validate_problem p;
  let counter = ref 0 and factor_counter = ref 0 in
  match attempt p b ~factor_counter (dual_simplex p ~counter ~always:false) with
  | Some result ->
      record p result ~pivots:!counter ~factor_pivots:!factor_counter ~miss_pivots:0 ~warm:Warm_hit
  | None ->
      let spent = !counter + !factor_counter in
      from_start p (Option.bind start (fun f -> f ())) ~warm:Warm_miss ~spent
