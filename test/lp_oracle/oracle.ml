(* Differential oracle for the simplex kernel, on random LPs and warm
   re-solve sequences.  Every [Lp] solve is checked against the
   {!Reference} cold solve of the same problem.

   A solve the slack basis answered (a cold solve, or a warm miss) whose
   reference run needed no Phase 1 — the reference's slack basis was
   primal feasible, so both ran the same primal simplex from it — must
   match bit for bit: result, pivot counts, primal values, objective,
   multipliers and captured basis.

   Every other solve (a warm hit, or a reference run through Phase 1,
   which the kernel answers by its dual simplex) must agree: the same
   status; at an optimum the objective within 1e-6 relative, a primal
   feasible within [eps_feas], a captured basis and sign-admissible
   multipliers whose float weak-duality bound reaches the objective;
   at [Infeasible] sign-admissible multipliers whose float Farkas
   bound is positive.  A solve that raises must raise in both. *)

module Lp = Ivan_lp.Lp
module Rng = Ivan_tensor.Rng
module R = Reference

(* Seed of the random state both the tier-1 slice and the long run draw
   their cases from. *)
let seed = 11

(* Cases in the tier-1 slice; [dune build @lp-oracle] runs 20x. *)
let tier1_count = 10000

let pick rng a = a.(Rng.int rng (Array.length a))

(* The same problem in both solvers; every edit goes to both. *)
type twin = {
  lp : Lp.problem;
  rf : R.problem;
  n : int;
  x0 : float array;  (* a point most rows hold at *)
  integral : bool;  (* integer coefficients, x0 and rows tight at x0 *)
}

let ref_cmp = function Lp.Le -> R.Le | Lp.Ge -> R.Ge | Lp.Eq -> R.Eq

(* Small integers and exact zeros make ratio ties and degenerate pivots
   common; the rest are arbitrary. *)
let coefficient ?(integral = false) rng =
  match Rng.int rng 4 with
  | 0 -> pick rng [| -2.0; -1.0; -0.5; 0.5; 1.0; 2.0; 3.0 |]
  | 1 -> 0.0
  | _ when integral -> float_of_int (Rng.int rng 7 - 3)
  | _ -> Rng.uniform rng (-2.0) 2.0

(* Free, fixed, half-bounded or boxed. *)
let random_bounds rng =
  let a = if Rng.bool rng then float_of_int (Rng.int rng 5 - 2) else Rng.uniform rng (-2.0) 2.0 in
  match Rng.int rng 8 with
  | 0 -> (neg_infinity, infinity)
  | 1 -> (a, a)
  | 2 -> (a, infinity)
  | 3 -> (neg_infinity, a)
  | _ -> (a, a +. float_of_int (1 + Rng.int rng 3))

let point_in ~integral rng (lo, hi) =
  let x =
    match (Float.is_finite lo, Float.is_finite hi) with
    | true, true -> Rng.uniform rng lo hi
    | true, false -> lo +. Rng.float rng 2.0
    | false, true -> hi -. Rng.float rng 2.0
    | false, false -> Rng.uniform rng (-2.0) 2.0
  in
  if integral then Float.min hi (Float.max lo (Float.round x)) else x

(* A row with possibly repeated indices.  Mostly satisfied by [x0] (so
   most problems are feasible), sometimes with an arbitrary
   right-hand side. *)
let live_row rng tw =
  let len = 1 + Rng.int rng (min tw.n 5) in
  let idx = Array.init len (fun _ -> Rng.int rng tw.n) in
  let cf = Array.init len (fun _ -> coefficient ~integral:tw.integral rng) in
  let cmp = pick rng [| Lp.Le; Lp.Ge; Lp.Eq |] in
  let ax = ref 0.0 in
  Array.iteri (fun k j -> ax := !ax +. (cf.(k) *. tw.x0.(j))) idx;
  let room = if tw.integral || Rng.bool rng then 0.0 else Rng.float rng 1.0 in
  let rhs =
    if Rng.int rng 10 = 0 then Rng.uniform rng (-3.0) 3.0
    else match cmp with Lp.Le -> !ax +. room | Lp.Ge -> !ax -. room | Lp.Eq -> !ax
  in
  (idx, cf, cmp, rhs)

(* A vacuous slot as the encodings write it, any comparison. *)
let inert_row rng = ([||], [||], pick rng [| Lp.Le; Lp.Ge; Lp.Eq |], pick rng [| 0.0; -0.0 |])

let add_row tw (idx, cf, cmp, rhs) =
  ignore (Lp.add_row tw.lp idx cf cmp rhs);
  ignore (R.add_row tw.rf idx cf (ref_cmp cmp) rhs)

let set_row tw i (idx, cf, cmp, rhs) =
  Lp.set_row tw.lp i idx cf cmp rhs;
  R.set_row tw.rf i idx cf (ref_cmp cmp) rhs

let set_bounds tw j (lo, hi) =
  Lp.set_bounds tw.lp j lo hi;
  R.set_bounds tw.rf j lo hi

let set_objective tw c =
  Lp.set_objective tw.lp c;
  R.set_objective tw.rf c

(* Each variable's summed coefficient in a row. *)
let net_coefficients n (idx, cf, _, _) =
  let s = Array.make n 0.0 in
  Array.iteri (fun k j -> s.(j) <- s.(j) +. cf.(k)) idx;
  s

(* The row a case of the implied-bound family aims at: [Le] or [Ge]
   over boxed variables that rest at [x0] on the bounds extremizing its
   left-hand side — the minimum for [Le], the maximum for [Ge] — so
   that its slack there is as far from zero as the box allows, the
   bound the warm path implies for it. *)
let extreme_row rng tw bounds =
  let len = 1 + Rng.int rng (min tw.n 5) in
  let idx = Array.init len (fun _ -> Rng.int rng tw.n) in
  let cf = Array.init len (fun _ -> coefficient ~integral:tw.integral rng) in
  let cmp = if Rng.bool rng then Lp.Le else Lp.Ge in
  let s = net_coefficients tw.n (idx, cf, cmp, 0.0) in
  Array.iter
    (fun j ->
      let lo, hi = bounds.(j) in
      tw.x0.(j) <- (if s.(j) > 0.0 = (cmp = Lp.Le) then lo else hi))
    idx;
  let ax = ref 0.0 in
  Array.iteri (fun k j -> ax := !ax +. (cf.(k) *. tw.x0.(j))) idx;
  let room = if tw.integral || Rng.bool rng then 0.0 else Rng.float rng 1.0 in
  (idx, cf, cmp, if cmp = Lp.Le then !ax +. room else !ax -. room)

(* Most problems are small; one in four is larger, and half of those
   integral, so highly degenerate vertices, long degenerate runs and
   Bland's rule get exercised too.  With [aimed], every variable is
   boxed and row 0 is an {!extreme_row}. *)
let build ~aimed rng =
  let large = Rng.int rng 4 = 0 in
  let integral = large && Rng.bool rng in
  let n = 1 + Rng.int rng (if large then 16 else 8) in
  let boxed () =
    let lo = float_of_int (Rng.int rng 5 - 2) in
    (lo, lo +. float_of_int (1 + Rng.int rng 3))
  in
  let bounds = Array.init n (fun _ -> if aimed then boxed () else random_bounds rng) in
  let x0 = Array.map (point_in ~integral rng) bounds in
  let tw = { lp = Lp.create n; rf = R.create n; n; x0; integral } in
  Array.iteri (set_bounds tw) bounds;
  set_objective tw (Array.init n (fun _ -> coefficient rng));
  if aimed then add_row tw (extreme_row rng tw bounds);
  for _ = 1 to Rng.int rng (if large then 30 else 12) do
    add_row tw (if Rng.int rng 3 = 0 then inert_row rng else live_row rng tw)
  done;
  tw

(* Turn the objective to row 0's extreme: minimize its left-hand side
   for [Le], maximize it for [Ge].  [x0] attains it, so when [x0] is
   feasible the optimum rests row 0's slack on its implied bound. *)
let aim tw =
  let ((_, _, cmp, _) as r) = Lp.row tw.lp 0 in
  let s = net_coefficients tw.n r in
  set_objective tw (if cmp = Lp.Le then s else Array.map Float.neg s)

(* One edit between solves, as a BaB child makes them: a slot goes
   vacuous or comes back, a variable's box is split or replaced, the
   objective changes, or (rarely) a row is appended, so the parent basis
   no longer fits, or a bound turns NaN, so the next solve raises. *)
let edit rng tw =
  let rows = Lp.num_rows tw.lp in
  match Rng.int rng 20 with
  | k when k < 5 && rows > 0 -> set_row tw (Rng.int rng rows) (inert_row rng)
  | k when k < 10 && rows > 0 -> set_row tw (Rng.int rng rows) (live_row rng tw)
  | k when k < 16 ->
      let j = Rng.int rng tw.n in
      let lo, hi = Lp.get_bounds tw.lp j in
      if Float.is_finite lo && Float.is_finite hi && Rng.bool rng then begin
        let mid = (lo +. hi) /. 2.0 in
        set_bounds tw j (if Rng.bool rng then (lo, mid) else (mid, hi))
      end
      else set_bounds tw j (random_bounds rng)
  | 16 | 17 -> set_objective tw (Array.init tw.n (fun _ -> coefficient rng))
  | 18 -> add_row tw (if Rng.bool rng then inert_row rng else live_row rng tw)
  | _ -> if Rng.int rng 10 = 0 then set_bounds tw (Rng.int rng tw.n) (nan, nan)

type 'a outcome = Returned of 'a | Raised of string

let run_lp f =
  match f () with
  | r -> Returned r
  | exception Lp.Iteration_limit -> Raised "iteration limit"
  | exception Lp.Numerical_failure _ -> Raised "numerical failure"

let run_ref f =
  match f () with
  | r -> Returned r
  | exception R.Iteration_limit -> Raised "iteration limit"
  | exception R.Numerical_failure _ -> Raised "numerical failure"

let same_float x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)

let bits_equal a b = Array.length a = Array.length b && Array.for_all2 same_float a b

let same_certificate c c' =
  match (c, c') with
  | None, None -> true
  | Some (Lp.Certificate.Dual y), Some (R.Certificate.Dual y')
  | Some (Lp.Certificate.Farkas y), Some (R.Certificate.Farkas y') ->
      bits_equal y y'
  | _ -> false

let same_result r r' =
  match (r, r') with
  | Lp.Optimal s, R.Optimal s' ->
      same_float s.Lp.objective s'.R.objective
      && bits_equal s.Lp.primal s'.R.primal
      && same_certificate s.Lp.certificate s'.R.certificate
  | Lp.Infeasible, R.Infeasible | Lp.Unbounded, R.Unbounded -> true
  | _ -> false

(* A warm miss answers from the slack basis: the same statistics as the
   reference's cold solve, but noted as a miss. *)
let same_stats ~miss s s' =
  match (s, s') with
  | Some s, Some s' ->
      s.Lp.pivots = s'.R.pivots
      && s.Lp.factor_pivots = s'.R.factor_pivots
      && s'.R.warm = R.Cold
      && s.Lp.warm = if miss then Lp.Warm_miss else Lp.Cold
  | None, None -> true
  | _ -> false

let lp_status = function
  | R.Basic -> Lp.Basic
  | R.At_lower -> Lp.At_lower
  | R.At_upper -> Lp.At_upper
  | R.Free_zero -> Lp.Free_zero

let same_basis b b' =
  match (b, b') with
  | Some b, Some b' ->
      Lp.Basis.basics b = b'.R.Basis.basics
      && Lp.Basis.statuses b = Array.map lp_status b'.R.Basis.statuses
  | None, None -> true
  | _ -> false

let eps_feas = 1e-7

(* Every bound and row of the current problem holds at [x] within
   [eps_feas]. *)
let feasible tw x =
  let ok = ref true in
  for j = 0 to tw.n - 1 do
    let lo, hi = Lp.get_bounds tw.lp j in
    if x.(j) < lo -. eps_feas || x.(j) > hi +. eps_feas then ok := false
  done;
  for i = 0 to Lp.num_rows tw.lp - 1 do
    let idx, cf, cmp, rhs = Lp.row tw.lp i in
    let ax = ref 0.0 in
    Array.iteri (fun k j -> ax := !ax +. (cf.(k) *. x.(j))) idx;
    let holds =
      match cmp with
      | Lp.Le -> !ax <= rhs +. eps_feas
      | Lp.Ge -> !ax >= rhs -. eps_feas
      | Lp.Eq -> Float.abs (!ax -. rhs) <= eps_feas
    in
    if not holds then ok := false
  done;
  !ok

(* [y] has the sign each row's comparison admits. *)
let admissible tw y =
  Array.length y = Lp.num_rows tw.lp
  && Array.for_all Fun.id
       (Array.mapi
          (fun i yi ->
            let _, _, cmp, _ = Lp.row tw.lp i in
            match cmp with Lp.Le -> yi <= 0.0 | Lp.Ge -> yi >= 0.0 | Lp.Eq -> true)
          y)

(* The weak-duality bound [y] implies, in floats: y.b plus each
   variable's reduced cost times its box end that minimizes it.  A
   reduced cost within float drift of zero contributes nothing, so an
   infinite bound only counts against a clearly nonzero one.  With
   [farkas] the objective reads as zero. *)
let dual_bound ?(farkas = false) tw y =
  let reduced =
    if farkas then Array.make tw.n 0.0 else Lp.objective_coeffs tw.lp
  in
  let bound = ref 0.0 in
  Array.iteri
    (fun i yi ->
      let idx, cf, _, rhs = Lp.row tw.lp i in
      bound := !bound +. (yi *. rhs);
      Array.iteri (fun k j -> reduced.(j) <- reduced.(j) -. (yi *. cf.(k))) idx)
    y;
  Array.iteri
    (fun j r ->
      if Float.abs r > 1e-7 then begin
        let lo, hi = Lp.get_bounds tw.lp j in
        bound := !bound +. (r *. if r > 0.0 then lo else hi)
      end)
    reduced;
  !bound

let tolerance v = 1e-6 *. (1.0 +. Float.abs v)

(* A solve that need not match the reference bit for bit agrees with
   its cold solve of the same problem. *)
let check_agree tw label r r' =
  let fail what = QCheck.Test.fail_reportf "%s: %s" label what in
  match (r, r') with
  | Lp.Optimal s, R.Optimal s' ->
      let cold = s'.R.objective in
      if Float.abs (s.Lp.objective -. cold) > tolerance cold then
        fail (Printf.sprintf "objective %h, reference %h" s.Lp.objective cold);
      if not (feasible tw s.Lp.primal) then fail "the primal violates a row or bound";
      if Option.is_none (Lp.basis tw.lp) then fail "an optimum captured no basis";
      (match (s.Lp.certificate, Lp.last_certificate tw.lp) with
      | Some (Lp.Certificate.Dual y), Some (Lp.Certificate.Dual y') when bits_equal y y' ->
          if not (admissible tw y) then fail "multipliers have a wrong sign";
          let b = dual_bound tw y in
          if b < s.Lp.objective -. tolerance s.Lp.objective then
            fail (Printf.sprintf "multipliers bound %h, objective %h" b s.Lp.objective)
      | _ -> fail "an optimum carried no dual certificate")
  | Lp.Infeasible, R.Infeasible -> (
      match Lp.last_certificate tw.lp with
      | Some (Lp.Certificate.Farkas y) ->
          if not (admissible tw y) then fail "Farkas multipliers have a wrong sign";
          let b = dual_bound ~farkas:true tw y in
          if not (b > 0.0) then fail (Printf.sprintf "Farkas bound %h is not positive" b)
      | _ -> fail "an infeasible solve carried no Farkas witness")
  | Lp.Unbounded, R.Unbounded ->
      if Lp.last_certificate tw.lp <> None then fail "an unbounded solve carried a certificate"
  | _ -> fail "statuses differ"

(* Solve the library cold or warm from [start], and the reference cold,
   and compare.  Returns the library's captured basis when both
   returned, [None] when both raised: a raising solve clears the
   library's recorded state, which the reference leaves stale, so a
   sequence ends there. *)
let solve_both tw label start =
  let lp_out =
    match start with
    | None -> run_lp (fun () -> Lp.solve tw.lp)
    | Some b -> run_lp (fun () -> Lp.solve_from tw.lp b)
  in
  let rf_out = run_ref (fun () -> R.solve tw.rf) in
  let fail what = QCheck.Test.fail_reportf "%s: %s differ" label what in
  match (lp_out, rf_out) with
  | Returned r, Returned r' ->
      let warm, miss_pivots =
        match Lp.last_stats tw.lp with Some s -> (s.Lp.warm, s.Lp.miss_pivots) | None -> (Lp.Cold, 0)
      in
      let phase1 = match R.last_stats tw.rf with Some s -> s.R.phase1 | None -> true in
      (match (start, warm) with
      | Some _, Lp.Cold -> QCheck.Test.fail_reportf "%s: a warm solve recorded a cold start" label
      | None, (Lp.Warm_hit | Lp.Warm_miss) ->
          QCheck.Test.fail_reportf "%s: a cold solve recorded a warm start" label
      | Some _, Lp.Warm_hit ->
          if miss_pivots <> 0 then QCheck.Test.fail_reportf "%s: a warm hit reported a miss" label;
          check_agree tw label r r'
      | (Some _ | None), (Lp.Warm_miss | Lp.Cold) when phase1 -> check_agree tw label r r'
      | (Some _ | None), (Lp.Warm_miss | Lp.Cold) ->
          let miss = warm = Lp.Warm_miss in
          if not (same_result r r') then fail "results";
          if not (same_stats ~miss (Lp.last_stats tw.lp) (R.last_stats tw.rf)) then
            fail "statistics";
          if not (same_certificate (Lp.last_certificate tw.lp) (R.last_certificate tw.rf)) then
            fail "certificates";
          if not (same_basis (Lp.basis tw.lp) (R.basis tw.rf)) then fail "captured bases");
      Some (Lp.basis tw.lp)
  | Raised e, Raised e' when e = e' ->
      if Lp.last_stats tw.lp <> None || Lp.basis tw.lp <> None || Lp.last_certificate tw.lp <> None
      then QCheck.Test.fail_reportf "%s: a raised solve left state behind" label;
      None
  | Raised e, Returned _ -> QCheck.Test.fail_reportf "%s: only the kernel raised (%s)" label e
  | Returned _, Raised e -> QCheck.Test.fail_reportf "%s: only the reference raised (%s)" label e
  | Raised e, Raised e' -> QCheck.Test.fail_reportf "%s: kernel raised %s, reference %s" label e e'

(* A cold root solve, then up to five child solves, each after a few
   edits: cold, warm from the root's basis, or warm from the latest.
   One case in eight is aimed: its first child turns the objective to
   row 0's extreme and re-solves warm from the root. *)
let run_case seed =
  let rng = Rng.create seed in
  let aimed = Rng.int rng 8 = 0 in
  let tw = build ~aimed rng in
  match solve_both tw "root" None with
  | None -> ()
  | Some root ->
      let children = Rng.int rng 6 in
      let rec child step latest =
        if step <= children || (aimed && step = 1) then begin
          let start =
            if aimed && step = 1 then begin
              aim tw;
              root
            end
            else begin
              for _ = 0 to Rng.int rng 3 do
                edit rng tw
              done;
              match Rng.int rng 4 with 0 -> None | 1 -> root | _ -> latest
            end
          in
          let how = if Option.is_none start then "cold" else "warm" in
          let label = Printf.sprintf "child %d (%s)" step how in
          match solve_both tw label start with
          | None -> ()
          | Some captured -> child (step + 1) (if Option.is_none captured then latest else captured)
        end
      in
      child 1 root

let test ~count =
  QCheck.Test.make
    ~name:"simplex kernel matches the reference: bit for bit from a feasible slack basis, agreeing elsewhere"
    ~count
    QCheck.(make ~print:(Printf.sprintf "case seed %d") Gen.(int_bound 1_000_000_000))
    (fun seed ->
      run_case seed;
      true)
