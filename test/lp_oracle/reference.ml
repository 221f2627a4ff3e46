(* The simplex kernel as it stood before the live-row rewrite, kept
   verbatim as the differential oracle's reference.  Its tableau holds
   every row, inert ones included, and its pivots update every column,
   retired artificials included; the library kernel must return the
   same solves bit for bit. *)

type cmp = Le | Ge | Eq

(* Rows are stored sparse as parallel index/coefficient arrays.  Terms
   with duplicate indices are summed when the tableau is built. *)
type row = { idx : int array; cf : float array; cmp : cmp; rhs : float }

type status = Basic | At_lower | At_upper | Free_zero

type warm = Cold | Warm_hit | Warm_miss

type solve_stats = {
  pivots : int;  (* simplex iterations: basis changes + bound flips *)
  factor_pivots : int;  (* Gauss pivots spent refactorizing a warm basis *)
  phase1 : bool;  (* a cold solve needed the artificial Phase-1 start *)
  warm : warm;
}

module Basis = struct
  (* A snapshot of the simplex basis at an optimum: which column is
     basic in each row, and the resting status of every structural and
     slack column.  Captured by [capture] below only when no artificial
     column is basic, so a snapshot can always be re-installed on a
     tableau built without artificials. *)
  type t = {
    nvars : int;
    nrows : int;
    basics : int array;  (* row -> basic column in [0, nvars + nrows) *)
    statuses : status array;  (* structural + slack columns *)
  }
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
(* Bounded-variable primal simplex on a dense tableau (pivots touch only
   the pivot row's nonzero columns, see [pivot]).

   Cold-solve column layout: [0, n) structural, [n, n+m) slacks, then
   one artificial per row whose slack cannot start basic, in row order.
   Such a row i is  d_i (a_i^T x + s_i) + t_i = d_i b_i  where the slack
   bound encodes the comparison and d_i = ±1 makes the artificial start
   non-negative.  Phase 1 minimizes the artificial sum from that start;
   phase 2 minimizes the true objective with the artificials pinned to
   zero.  The order structural < slack < artificial is what Bland's rule
   and the leaving-row tie-break compare.

   Warm solves ([solve_from]) build an artificial-free tableau
   ([0, n+m) columns only), re-install a captured parent basis by
   Gauss-Jordan refactorization, repair any primal infeasibility left
   by bound/row edits with a composite Phase-1, and run Phase 2 from
   there — falling back to a cold solve on any mismatch or numerical
   trouble. *)

let eps_cost = 1e-9
let eps_ratio = 1e-9
let eps_feas = 1e-7
let max_iterations = 50_000

type tableau = {
  m : int;  (* rows *)
  ncols : int;
  tab : float array array;  (* m x ncols: current B^{-1} A_full *)
  zrow : float array;  (* reduced costs, updated by pivots *)
  rhs_col : float array;  (* B^{-1} b *)
  lob : float array;  (* per-column lower bounds *)
  hib : float array;
  xval : float array;  (* current value of every column *)
  bval : float array;  (* value of the basic variable of each row *)
  basis : int array;  (* row -> column *)
  stat : status array;  (* column -> status *)
  nz : int array;  (* pivot scratch: nonzero columns of the pivot row *)
  prev_bval : float array;  (* [optimize] scratch: bval before a step *)
}

(* Slack bounds encode a row's comparison. *)
let slack_bounds = function Le -> (0.0, infinity) | Ge -> (neg_infinity, 0.0) | Eq -> (0.0, 0.0)

(* Initial value a nonbasic column rests at. *)
let resting_value lo hi = if lo > neg_infinity then lo else if hi < infinity then hi else 0.0

let resting_status lo hi =
  if lo > neg_infinity then At_lower else if hi < infinity then At_upper else Free_zero

(* Recompute basic values from the pivoted system: for each row,
   bval = rhs - sum over nonbasic columns of tab * xval. *)
let refresh_basic_values t =
  for i = 0 to t.m - 1 do
    let acc = ref t.rhs_col.(i) in
    let row = t.tab.(i) in
    for j = 0 to t.ncols - 1 do
      if t.stat.(j) <> Basic && t.xval.(j) <> 0.0 then acc := !acc -. (row.(j) *. t.xval.(j))
    done;
    t.bval.(i) <- !acc;
    t.xval.(t.basis.(i)) <- !acc
  done

(* Rebuild the reduced-cost row for objective [c] (length ncols). *)
let refresh_cost_row t c =
  Array.blit c 0 t.zrow 0 t.ncols;
  for i = 0 to t.m - 1 do
    let cb = c.(t.basis.(i)) in
    if cb <> 0.0 then begin
      let row = t.tab.(i) in
      for j = 0 to t.ncols - 1 do
        t.zrow.(j) <- t.zrow.(j) -. (cb *. row.(j))
      done
    end
  done

(* Storage is dense but the kernel is sparse-row: the pivot row is
   scaled once and its nonzero columns gathered into [t.nz]; every other
   row (and the cost row) is then updated on those columns only.  On a
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
      (Numerical_failure (Printf.sprintf "pivot element %h at row %d, column %d" piv r j));
  let inv = 1.0 /. piv in
  let nz = t.nz in
  let count = ref 0 in
  for k = 0 to t.ncols - 1 do
    let a = prow.(k) in
    if a <> 0.0 then begin
      prow.(k) <- a *. inv;
      nz.(!count) <- k;
      incr count
    end
  done;
  let count = !count in
  t.rhs_col.(r) <- t.rhs_col.(r) *. inv;
  for i = 0 to t.m - 1 do
    if i <> r then begin
      let row = t.tab.(i) in
      let f = row.(j) in
      if Float.abs f > 0.0 then begin
        for q = 0 to count - 1 do
          let k = nz.(q) in
          row.(k) <- row.(k) -. (f *. prow.(k))
        done;
        row.(j) <- 0.0;
        t.rhs_col.(i) <- t.rhs_col.(i) -. (f *. t.rhs_col.(r))
      end
    end
  done;
  let f = t.zrow.(j) in
  if Float.abs f > 0.0 then begin
    for q = 0 to count - 1 do
      let k = nz.(q) in
      t.zrow.(k) <- t.zrow.(k) -. (f *. prow.(k))
    done;
    t.zrow.(j) <- 0.0
  end

type step_outcome = Step_optimal | Step_unbounded | Step_continue

(* One simplex iteration.  [bland] forces Bland's rule for entering and
   leaving choices (anti-cycling); otherwise the most-improving reduced
   cost is used. *)
let simplex_step t ~bland =
  (* Entering column selection.  Fixed columns (lo = hi) can never
     improve the objective and are skipped; this is what retires the
     artificials in phase 2. *)
  let entering = ref (-1) in
  let enter_dir = ref 1.0 in
  let best = ref eps_cost in
  let consider j gain dir =
    if gain > eps_cost && (bland || gain > !best) then begin
      entering := j;
      enter_dir := dir;
      best := gain
    end
  in
  (let j = ref 0 in
   while !j < t.ncols && not (bland && !entering >= 0) do
     if t.lob.(!j) < t.hib.(!j) then begin
       let z = t.zrow.(!j) in
       match t.stat.(!j) with
       | Basic -> ()
       | At_lower -> consider !j (-.z) 1.0
       | At_upper -> consider !j z (-1.0)
       | Free_zero -> if z < 0.0 then consider !j (-.z) 1.0 else consider !j z (-1.0)
     end;
     incr j
   done);
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
    (* The entering variable's own opposite bound can also bind. *)
    let own_span = t.hib.(j) -. t.lob.(j) in
    let flip = own_span < !limit -. eps_ratio in
    if flip then begin
      (* Bound flip: no basis change. *)
      let step = dir *. own_span in
      for i = 0 to t.m - 1 do
        let alpha = t.tab.(i).(j) in
        if alpha <> 0.0 then begin
          t.bval.(i) <- t.bval.(i) -. (alpha *. step);
          t.xval.(t.basis.(i)) <- t.bval.(i)
        end
      done;
      t.xval.(j) <- (if dir > 0.0 then t.hib.(j) else t.lob.(j));
      t.stat.(j) <- (if dir > 0.0 then At_upper else At_lower);
      Step_continue
    end
    else if !leaving < 0 then Step_unbounded
    else begin
      let r = !leaving in
      let step = dir *. !limit in
      (* Move all basic values, then swap basis. *)
      for i = 0 to t.m - 1 do
        if i <> r then begin
          let alpha = t.tab.(i).(j) in
          if alpha <> 0.0 then begin
            t.bval.(i) <- t.bval.(i) -. (alpha *. step);
            t.xval.(t.basis.(i)) <- t.bval.(i)
          end
        end
      done;
      let out = t.basis.(r) in
      let out_value = if !leaving_to_upper then t.hib.(out) else t.lob.(out) in
      t.xval.(out) <- out_value;
      t.stat.(out) <- (if !leaving_to_upper then At_upper else At_lower);
      let enter_value = t.xval.(j) +. step in
      pivot t r j;
      t.basis.(r) <- j;
      t.stat.(j) <- Basic;
      t.xval.(j) <- enter_value;
      t.bval.(r) <- enter_value;
      Step_continue
    end
  end

(* NaN anywhere in the basic values or reduced costs silently corrupts
   the entering/leaving choices (every comparison against NaN is false),
   so the loop would either cycle forever or stop at a garbage "optimum".
   Checked at the same cadence as the periodic refresh. *)
let check_tableau_finite t =
  for i = 0 to t.m - 1 do
    if Float.is_nan t.bval.(i) || Float.is_nan t.rhs_col.(i) then
      raise (Numerical_failure (Printf.sprintf "non-finite basic value in row %d" i))
  done;
  for j = 0 to t.ncols - 1 do
    if Float.is_nan t.zrow.(j) then
      raise (Numerical_failure (Printf.sprintf "non-finite reduced cost in column %d" j))
  done

(* Run simplex iterations to optimality for the current cost row,
   accumulating the iteration count into [counter]. *)
let optimize t ~counter =
  let iter = ref 0 in
  let degenerate_streak = ref 0 in
  let finished = ref None in
  while !finished = None do
    incr iter;
    if !iter > max_iterations then raise Iteration_limit;
    if !iter mod 64 = 0 then begin
      refresh_basic_values t;
      check_tableau_finite t
    end;
    let bland = !degenerate_streak > 2 * (t.m + 1) in
    Array.blit t.bval 0 t.prev_bval 0 t.m;
    (match simplex_step t ~bland with
    | Step_optimal -> finished := Some `Optimal
    | Step_unbounded -> finished := Some `Unbounded
    | Step_continue ->
        incr counter;
        let moved = ref false in
        for i = 0 to t.m - 1 do
          if Float.abs (t.bval.(i) -. t.prev_bval.(i)) > eps_ratio then moved := true
        done;
        if !moved then degenerate_streak := 0 else incr degenerate_streak)
  done;
  match !finished with Some `Optimal -> `Optimal | Some `Unbounded -> `Unbounded | None -> assert false

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

(* Snapshot the optimal basis.  A degenerate optimum can leave an
   artificial column basic at zero; artificials do not exist on the
   warm tableau, so such a row's basic column is substituted with the
   row's own slack when that slack is nonbasic.  The substituted
   snapshot is no longer the exact optimal basis, only a near-identical
   starting point — which is all the warm path needs, and a singular
   substitution makes the child's refactorization fall back to a cold
   solve anyway.  Only a row whose slack is already basic elsewhere
   (impossible to substitute) declines the capture. *)
let capture_basis p t =
  let n = p.nvars in
  let m = p.nrows in
  let basics = Array.sub t.basis 0 m in
  let statuses = Array.sub t.stat 0 (n + m) in
  let ok = ref true in
  for i = 0 to m - 1 do
    if basics.(i) >= n + m then begin
      let s = n + i in
      if statuses.(s) <> Basic then begin
        basics.(i) <- s;
        statuses.(s) <- Basic
      end
      else ok := false
    end
  done;
  if not !ok then None else Some { Basis.nvars = n; nrows = m; basics; statuses }

(* Row multipliers implied by the current reduced-cost row.  The slack
   of row i appears only in row i, with coefficient +1 on warm tableaus
   and the phase-1 scaling sign on cold ones; either way the scaling
   cancels and the slack's reduced cost is the negated multiplier of
   the row in its {e natural} orientation, so y_i = -zrow(n+i)
   uniformly.  Multipliers are clamped to the sign their comparison
   admits: simplex tolerances can leave a wrong-signed residue of order
   [eps_cost] which exact certificate checking would reject, and
   clamping only ever weakens the certified bound. *)
let extract_multipliers p t =
  let n = p.nvars in
  Array.init p.nrows (fun i ->
      let v = -.t.zrow.(n + i) in
      match p.rows.(i).cmp with
      | Le -> Float.min 0.0 v
      | Ge -> Float.max 0.0 v
      | Eq -> v)

let solve_cold ?(warm_note = Cold) p =
  validate_problem p;
  let n = p.nvars in
  let m = p.nrows in
  let rows = p.rows in
  (* Residual of each row at the resting point (slack at zero).  Rows
     whose residual fits inside the slack's own bounds start with the
     slack basic — no artificial needed; only the remaining rows get an
     artificial column, numbered in row order after the slacks, and
     phase 1 is skipped entirely when there are none. *)
  let resid = Array.make m 0.0 in
  let artificial = Array.make m (-1) in
  let ncols = ref (n + m) in
  for i = 0 to m - 1 do
    let r = rows.(i) in
    let acc = ref r.rhs in
    for k = 0 to Array.length r.idx - 1 do
      let j = r.idx.(k) in
      acc := !acc -. (r.cf.(k) *. resting_value p.lo.(j) p.hi.(j))
    done;
    resid.(i) <- !acc;
    let slo, shi = slack_bounds r.cmp in
    if not (!acc >= slo -. 1e-12 && !acc <= shi +. 1e-12) then begin
      artificial.(i) <- !ncols;
      incr ncols
    end
  done;
  let ncols = !ncols in
  let lob = Array.make ncols 0.0 in
  (* Artificials: [0, inf) during phase 1. *)
  let hib = Array.make ncols infinity in
  Array.blit p.lo 0 lob 0 n;
  Array.blit p.hi 0 hib 0 n;
  for i = 0 to m - 1 do
    let slo, shi = slack_bounds rows.(i).cmp in
    lob.(n + i) <- slo;
    hib.(n + i) <- shi
  done;
  let stat = Array.make ncols At_lower in
  let xval = Array.make ncols 0.0 in
  for j = 0 to n + m - 1 do
    stat.(j) <- resting_status lob.(j) hib.(j);
    xval.(j) <- resting_value lob.(j) hib.(j)
  done;
  let tab = Array.make_matrix m ncols 0.0 in
  let rhs_col = Array.make m 0.0 in
  let basis = Array.make m 0 in
  let bval = Array.make m 0.0 in
  for i = 0 to m - 1 do
    let r = rows.(i) in
    let a = artificial.(i) in
    if a < 0 then begin
      (* Slack basis: row stays in its natural orientation. *)
      for k = 0 to Array.length r.idx - 1 do
        tab.(i).(r.idx.(k)) <- tab.(i).(r.idx.(k)) +. r.cf.(k)
      done;
      tab.(i).(n + i) <- 1.0;
      rhs_col.(i) <- r.rhs;
      basis.(i) <- n + i;
      stat.(n + i) <- Basic;
      bval.(i) <- resid.(i);
      xval.(n + i) <- resid.(i)
    end
    else begin
      let sign = if resid.(i) >= 0.0 then 1.0 else -1.0 in
      for k = 0 to Array.length r.idx - 1 do
        tab.(i).(r.idx.(k)) <- tab.(i).(r.idx.(k)) +. (sign *. r.cf.(k))
      done;
      tab.(i).(n + i) <- sign;
      tab.(i).(a) <- 1.0;
      rhs_col.(i) <- sign *. r.rhs;
      basis.(i) <- a;
      stat.(a) <- Basic;
      bval.(i) <- Float.abs resid.(i);
      xval.(a) <- bval.(i)
    end
  done;
  let t =
    {
      m;
      ncols;
      tab;
      zrow = Array.make ncols 0.0;
      rhs_col;
      lob;
      hib;
      xval;
      bval;
      basis;
      stat;
      nz = Array.make ncols 0;
      prev_bval = Array.make m 0.0;
    }
  in
  let counter = ref 0 in
  let used_phase1 = ncols > n + m in
  let record ?certificate result =
    p.last_stats <-
      Some { pivots = !counter; factor_pivots = 0; phase1 = used_phase1; warm = warm_note };
    p.last_basis <- (match result with Optimal _ -> capture_basis p t | _ -> None);
    p.last_certificate <- certificate;
    result
  in
  (* Phase 1: minimize the artificial sum (skipped when the slack basis
     is already feasible). *)
  let infeasible =
    used_phase1
    && begin
         let phase1_cost = Array.make ncols 1.0 in
         Array.fill phase1_cost 0 (n + m) 0.0;
         refresh_cost_row t phase1_cost;
         (match optimize t ~counter with
         | `Optimal -> ()
         | `Unbounded ->
             (* The phase-1 objective is bounded below by 0; reaching
                here means numerical trouble, which we surface as a
                solver failure. *)
             raise Iteration_limit);
         refresh_basic_values t;
         let infeasibility = ref 0.0 in
         for a = n + m to ncols - 1 do
           infeasibility := !infeasibility +. Float.max 0.0 t.xval.(a)
         done;
         !infeasibility > eps_feas
       end
  in
  (* On infeasibility the cost row still holds the phase-1 reduced
     costs, whose multipliers are exactly a Farkas witness. *)
  if infeasible then record ~certificate:(Certificate.Farkas (extract_multipliers p t)) Infeasible
  else begin
    (* Pin artificials at zero and install the true objective. *)
    for a = n + m to ncols - 1 do
      lob.(a) <- 0.0;
      hib.(a) <- 0.0;
      if t.stat.(a) <> Basic then begin
        t.stat.(a) <- At_lower;
        t.xval.(a) <- 0.0
      end
    done;
    let phase2_cost = Array.make ncols 0.0 in
    Array.blit p.obj 0 phase2_cost 0 n;
    refresh_cost_row t phase2_cost;
    match optimize t ~counter with
    | `Unbounded -> record Unbounded
    | `Optimal ->
        refresh_basic_values t;
        let primal = Array.sub t.xval 0 n in
        let objective = ref 0.0 in
        for j = 0 to n - 1 do
          objective := !objective +. (p.obj.(j) *. primal.(j))
        done;
        let certificate = Certificate.Dual (extract_multipliers p t) in
        record ~certificate
          (Optimal { objective = !objective; primal; certificate = Some certificate })
  end

let solve p =
  run_hook p;
  solve_cold p

(* ------------------------------------------------------------------ *)
(* Warm start *)

exception Warm_bail

(* Artificial-free tableau over structural + slack columns, rows in
   their natural orientation with the slack identity in place. *)
let build_warm_tableau p =
  let n = p.nvars in
  let m = p.nrows in
  let ncols = n + m in
  let lob = Array.make ncols 0.0 in
  let hib = Array.make ncols 0.0 in
  Array.blit p.lo 0 lob 0 n;
  Array.blit p.hi 0 hib 0 n;
  let tab = Array.make_matrix m ncols 0.0 in
  let rhs_col = Array.make m 0.0 in
  for i = 0 to m - 1 do
    let r = p.rows.(i) in
    let slo, shi = slack_bounds r.cmp in
    lob.(n + i) <- slo;
    hib.(n + i) <- shi;
    for k = 0 to Array.length r.idx - 1 do
      tab.(i).(r.idx.(k)) <- tab.(i).(r.idx.(k)) +. r.cf.(k)
    done;
    tab.(i).(n + i) <- 1.0;
    rhs_col.(i) <- r.rhs
  done;
  {
    m;
    ncols;
    tab;
    zrow = Array.make ncols 0.0;
    rhs_col;
    lob;
    hib;
    xval = Array.make ncols 0.0;
    bval = Array.make m 0.0;
    basis = Array.make m 0;
    stat = Array.make ncols At_lower;
    nz = Array.make ncols 0;
    prev_bval = Array.make m 0.0;
  }

(* Re-derive every nonbasic column's value from its status against the
   problem's CURRENT bounds: bounds may have moved since the basis was
   captured, and the feasibility repair below parks leavers at temporary
   working bounds.  Statuses pointing at a bound that no longer exists
   are downgraded to the resting status. *)
let normalize_nonbasic t =
  for j = 0 to t.ncols - 1 do
    if t.stat.(j) <> Basic then begin
      (match t.stat.(j) with
      | At_lower when t.lob.(j) > neg_infinity -> t.xval.(j) <- t.lob.(j)
      | At_upper when t.hib.(j) < infinity -> t.xval.(j) <- t.hib.(j)
      | Free_zero when t.lob.(j) = neg_infinity && t.hib.(j) = infinity -> t.xval.(j) <- 0.0
      | _ ->
          t.stat.(j) <- resting_status t.lob.(j) t.hib.(j);
          t.xval.(j) <- resting_value t.lob.(j) t.hib.(j));
      ()
    end
  done

let basics_within_bounds t =
  let ok = ref true in
  for i = 0 to t.m - 1 do
    let b = t.basis.(i) in
    let v = t.bval.(i) in
    if v < t.lob.(b) -. eps_feas || v > t.hib.(b) +. eps_feas then ok := false
  done;
  !ok

(* Install a captured basis on a fresh warm tableau and bring the
   tableau to that basis by Gauss-Jordan elimination.  Rows whose basic
   column is their own slack are already unit-pivoted (the slack column
   appears in no other row, so later pivots never disturb them); the
   remaining rows are pivoted greedily on the largest available pivot
   element.  When every remaining row's recorded column has collapsed —
   typically a row rewritten by {!set_row} since the capture, e.g. a
   ReLU constraint slot gone vacuous at this node — the basis is
   repaired locally: such a row takes its own slack as basic (a unit
   coefficient while the row is unpivoted) and the recorded column is
   demoted to nonbasic.  Only when no repair applies either is the
   snapshot truly singular for the current rows — bail to a cold
   solve. *)
let refactorize t (b : Basis.t) ~factor_counter =
  let m = t.m in
  let n = t.ncols - m in
  Array.blit b.Basis.basics 0 t.basis 0 m;
  Array.blit b.Basis.statuses 0 t.stat 0 t.ncols;
  (* Sanity: basics are distinct, in range, and agree with statuses. *)
  let is_basic = Array.make t.ncols false in
  Array.iter
    (fun c ->
      if c < 0 || c >= t.ncols then raise Warm_bail;
      if is_basic.(c) then raise Warm_bail;
      is_basic.(c) <- true)
    b.Basis.basics;
  for j = 0 to t.ncols - 1 do
    if is_basic.(j) <> (t.stat.(j) = Basic) then raise Warm_bail
  done;
  let pending = ref [] in
  for i = m - 1 downto 0 do
    if t.basis.(i) <> n + i then pending := i :: !pending
  done;
  while !pending <> [] do
    let best_r = ref (-1) in
    let best_mag = ref 0.0 in
    List.iter
      (fun r ->
        let mag = Float.abs t.tab.(r).(t.basis.(r)) in
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
            if
              !candidate < 0
              && (not is_basic.(n + r))
              && Float.abs t.tab.(r).(n + r) >= 1e-9
            then candidate := r)
          !pending;
        if !candidate < 0 then raise Warm_bail;
        let r = !candidate in
        let old = t.basis.(r) in
        is_basic.(old) <- false;
        t.stat.(old) <- resting_status t.lob.(old) t.hib.(old);
        is_basic.(n + r) <- true;
        t.stat.(n + r) <- Basic;
        t.basis.(r) <- n + r;
        r
      end
    in
    pivot t r t.basis.(r);
    incr factor_counter;
    pending := List.filter (fun i -> i <> r) !pending
  done

(* Composite Phase-1 from the installed basis: basic variables pushed
   outside their bounds by the edits since capture are driven back by
   minimizing the sum of violations.  Each round extends the violated
   variables' working bounds to their current values (so the search can
   only improve them) and prices +/-1 on the violation direction; the
   true bounds are restored before checking again.  Rounds are bounded —
   persistent violation means the parent basis is a bad starting point
   and the caller should solve cold. *)
let repair_primal t ~counter =
  let max_rounds = t.m + 8 in
  let rounds = ref 0 in
  let cost = Array.make t.ncols 0.0 in
  refresh_basic_values t;
  while not (basics_within_bounds t) do
    incr rounds;
    if !rounds > max_rounds then raise Warm_bail;
    Array.fill cost 0 t.ncols 0.0;
    let saved = ref [] in
    for i = 0 to t.m - 1 do
      let b = t.basis.(i) in
      let v = t.bval.(i) in
      if v < t.lob.(b) -. eps_feas then begin
        saved := (b, t.lob.(b), t.hib.(b)) :: !saved;
        cost.(b) <- -1.0;
        t.lob.(b) <- v
      end
      else if v > t.hib.(b) +. eps_feas then begin
        saved := (b, t.lob.(b), t.hib.(b)) :: !saved;
        cost.(b) <- 1.0;
        t.hib.(b) <- v
      end
    done;
    refresh_cost_row t cost;
    let outcome = optimize t ~counter in
    List.iter (fun (b, lo, hi) ->
        t.lob.(b) <- lo;
        t.hib.(b) <- hi)
      !saved;
    (match outcome with `Unbounded -> raise Warm_bail | `Optimal -> ());
    normalize_nonbasic t;
    refresh_basic_values t
  done

let warm_attempt p (b : Basis.t) =
  if b.Basis.nvars <> p.nvars || b.Basis.nrows <> p.nrows then None
  else
    match
      validate_problem p;
      let t = build_warm_tableau p in
      let counter = ref 0 in
      let factor_counter = ref 0 in
      refactorize t b ~factor_counter;
      normalize_nonbasic t;
      repair_primal t ~counter;
      (* Phase 2 from the repaired parent basis. *)
      let cost = Array.make t.ncols 0.0 in
      Array.blit p.obj 0 cost 0 p.nvars;
      refresh_cost_row t cost;
      (match optimize t ~counter with
      | `Unbounded ->
          (* Node LPs are bounded; an unbounded claim from a recycled
             basis is more likely numerical drift than truth.  Certify
             it with a cold solve instead. *)
          raise Warm_bail
      | `Optimal -> ());
      refresh_basic_values t;
      if not (basics_within_bounds t) then raise Warm_bail;
      let n = p.nvars in
      let primal = Array.sub t.xval 0 n in
      let objective = ref 0.0 in
      for j = 0 to n - 1 do
        objective := !objective +. (p.obj.(j) *. primal.(j))
      done;
      let certificate = Some (Certificate.Dual (extract_multipliers p t)) in
      (Optimal { objective = !objective; primal; certificate }, !counter, !factor_counter, t)
    with
    | exception Warm_bail -> None
    | exception Numerical_failure _ -> None
    | exception Iteration_limit -> None
    | outcome -> Some outcome

let solve_from p b =
  run_hook p;
  match warm_attempt p b with
  | Some (result, pivots, factor_pivots, t) ->
      p.last_stats <- Some { pivots; factor_pivots; phase1 = false; warm = Warm_hit };
      p.last_basis <- capture_basis p t;
      p.last_certificate <- (match result with Optimal s -> s.certificate | _ -> None);
      result
  | None -> solve_cold ~warm_note:Warm_miss p

let pp_result fmt = function
  | Infeasible -> Format.fprintf fmt "infeasible"
  | Unbounded -> Format.fprintf fmt "unbounded"
  | Optimal { objective; primal; _ } ->
      Format.fprintf fmt "optimal %g at %a" objective Ivan_tensor.Vec.pp primal
