(* Soundness oracle for the float certificate screen: on random leaf
   certificates, {!Screen.passes} may answer [true] only when the exact
   checker {!Cert.check_leaf} accepts.  The generator aims at the
   screen's edges: thresholds at the naive float bound and a few ulps
   either side of it, subnormal and near-overflow coefficients,
   reduced costs that cancel to about zero against an infinite
   variable bound, and malformed certificates (wrong-signed
   multipliers, NaN and infinities, length and index mismatches, a
   broken input binding). *)

module Cert = Ivan_cert.Cert
module Screen = Ivan_cert.Screen
module Lp = Ivan_lp.Lp
module Box = Ivan_spec.Box
module Rng = Ivan_tensor.Rng

(* Seed of the random state both the tier-1 slice and the long run draw
   their cases from. *)
let seed = 23

(* Cases in the tier-1 slice; [dune build @cert-screen-oracle] runs 500x. *)
let tier1_count = 400

let pick rng a = a.(Rng.int rng (Array.length a))

let signed rng v = if Rng.bool rng then v else -.v

(* [v] moved [k] floats up (or down, for negative [k]). *)
let rec ulps k v =
  if k = 0 then v else if k > 0 then ulps (k - 1) (Float.succ v) else ulps (k + 1) (Float.pred v)

(* Magnitude regimes for one case: products of a multiplier and a
   coefficient land in the normal range, in or below the subnormal
   range, or near overflow.  Under [Subnormal] the variable bounds stay
   normal and the objective is subnormal, so every term of the bound is
   subnormal and underflow is the whole rounding error. *)
type regime = Normal | Tiny | Subnormal | Huge | Mixed

let magnitude rng = function
  | Normal -> ldexp 1.0 (Rng.int rng 9 - 4)
  | Tiny -> ldexp 1.0 (-545 + Rng.int rng 16)
  | Subnormal -> ldexp 1.0 (-540 + Rng.int rng 6)
  | Huge -> ldexp 1.0 (503 + Rng.int rng 8)
  | Mixed ->
      pick rng
        [|
          Int64.float_of_bits (Int64.of_int (1 + Rng.int rng 1_000_000));
          ldexp 1.0 (-1022 + Rng.int rng 8);
          1.0;
          ldexp 1.0 (1015 + Rng.int rng 8);
          Float.max_float;
        |]

(* A value with a full random mantissa. *)
let value rng regime = signed rng ((1.0 +. Rng.float rng 1.0) *. magnitude rng regime)

let coefficient rng regime = if Rng.int rng 5 = 0 then 0.0 else value rng regime

(* Finite box, half-bounded either way, or free. *)
let var_bounds rng regime =
  let a = value rng regime in
  let w = Float.abs (value rng regime) in
  match Rng.int rng 6 with
  | 0 -> (a, infinity)
  | 1 -> (neg_infinity, a)
  | 2 -> (neg_infinity, infinity)
  | 3 -> (a, a)
  | _ -> (a, a +. w)

(* The weak-duality bound evaluated naively in floats: no error bound,
   reduced-cost signs taken at face value.  [neg_infinity] when a
   reduced cost pushes against an infinite bound.  Also returns the
   scale of its terms, on which any rounding-error bound is built. *)
let naive_bound_and_scale (s : Cert.Snapshot.t) ~zero_obj ~y =
  let d = if zero_obj then Array.make s.nvars 0.0 else Array.copy s.obj in
  let dmag = Array.map Float.abs d in
  let b = ref 0.0 and mag = ref 0.0 in
  Array.iteri
    (fun i (r : Cert.Snapshot.row) ->
      b := !b +. (y.(i) *. r.rhs);
      mag := !mag +. Float.abs (y.(i) *. r.rhs);
      Array.iteri
        (fun k j ->
          d.(j) <- d.(j) -. (y.(i) *. r.cf.(k));
          dmag.(j) <- dmag.(j) +. Float.abs (y.(i) *. r.cf.(k)))
        r.idx)
    s.rows;
  Array.iteri
    (fun j dj ->
      let v = if dj > 0.0 then s.lo.(j) else if dj < 0.0 then s.hi.(j) else 0.0 in
      if dj <> 0.0 then b := !b +. (dj *. v);
      mag := !mag +. (dmag.(j) *. Float.abs v))
    d;
  (!b, !mag)

let naive_bound s ~zero_obj ~y = fst (naive_bound_and_scale s ~zero_obj ~y)

(* Case families.  [Threshold]: finite bounds, reduced costs small
   next to their column but of a definite sign, and the threshold
   within a few ulps of the naive bound — only the error terms can tell
   pass from fail.  [Cancel]: some reduced costs cancel to about zero
   against a one-sided infinite bound, and the threshold leaves clear
   slack — only the straddle rule can tell.  [Wild]: anything, often
   malformed. *)
type family = Threshold | Cancel | Wild

(* A certificate with multipliers of the right signs and the input
   variables bound to the box. *)
let clean_case rng family =
  let regime =
    match family with
    | Threshold -> pick rng [| Normal; Normal; Tiny; Subnormal; Huge |]
    | Cancel -> Normal
    | Wild -> pick rng [| Normal; Tiny; Subnormal; Huge; Mixed |]
  in
  let bound_regime = if regime = Subnormal then Normal else regime in
  let cost () =
    if regime = Subnormal then
      signed rng (Int64.float_of_bits (Int64.of_int (Rng.int rng 1_000_000)))
    else coefficient rng regime
  in
  let dim = 1 + Rng.int rng 3 in
  let nvars = dim + Rng.int rng 5 + if family = Cancel then 1 else 0 in
  let m = 1 + Rng.int rng 6 in
  let box_lo =
    Array.init dim (fun _ -> if Rng.int rng 4 = 0 then 0.0 else Rng.uniform rng (-2.0) 1.0)
  in
  let box_hi = Array.map (fun l -> l +. Rng.float rng 2.0) box_lo in
  let box = Box.make ~lo:box_lo ~hi:box_hi in
  let cancel = Array.init nvars (fun j -> j >= dim && family = Cancel && Rng.int rng 4 > 0) in
  let lo = Array.make nvars 0.0 and hi = Array.make nvars 0.0 in
  for j = 0 to nvars - 1 do
    let l, h =
      if j < dim then (box_lo.(j), box_hi.(j))
      else if cancel.(j) then
        let a = value rng bound_regime in
        if Rng.bool rng then (a, infinity) else (neg_infinity, a)
      else if family = Wild then var_bounds rng bound_regime
      else
        let a = value rng bound_regime in
        (a, a +. Float.abs (value rng bound_regime))
    in
    lo.(j) <- l;
    hi.(j) <- h
  done;
  let rows =
    Array.init m (fun _ ->
        let len = 1 + Rng.int rng (min 5 nvars) in
        let idx = Array.init len (fun _ -> Rng.int rng nvars) in
        {
          Cert.Snapshot.idx;
          cf = Array.map (fun _ -> coefficient rng regime) idx;
          cmp = pick rng [| Lp.Le; Lp.Ge; Lp.Eq |];
          rhs = coefficient rng regime;
        })
  in
  let y =
    Array.map
      (fun (r : Cert.Snapshot.row) ->
        if Rng.int rng 4 = 0 then 0.0
        else
          let v = Float.abs (value rng regime) in
          match r.cmp with Lp.Le -> -.v | Lp.Ge -> v | Lp.Eq -> signed rng v)
      rows
  in
  (* The float sum of each column's products: an objective coefficient
     near it leaves a reduced cost near zero. *)
  let column = Array.make nvars 0.0 in
  Array.iteri
    (fun i (r : Cert.Snapshot.row) ->
      Array.iteri (fun k j -> column.(j) <- column.(j) +. (y.(i) *. r.cf.(k))) r.idx)
    rows;
  let near j = ulps (Rng.int rng 9 - 4) column.(j) in
  let offset j = column.(j) +. signed rng (ldexp (Float.abs column.(j)) (-10 - Rng.int rng 30)) in
  let obj =
    Array.init nvars (fun j ->
        match family with
        | Cancel when cancel.(j) -> near j
        | Cancel -> column.(j) +. signed rng (Float.abs (value rng regime))
        | Threshold -> if Rng.bool rng then offset j else cost ()
        | Wild -> (
            match Rng.int rng 3 with
            | 0 -> near j
            | 1 -> offset j
            | _ -> cost ()))
  in
  (box, { Cert.Snapshot.nvars; obj; lo; hi; rows }, y)

(* The objective constant: a threshold at the naive float bound or a
   few ulps from it, below it by a fraction 2^-k of the terms' scale
   (which sweeps across any error bound), or clear slack either way. *)
let constant rng family (bound, scale) =
  let slack = Float.abs bound +. 1.0 in
  let jitter v = ulps (Rng.int rng 9 - 4) v in
  if not (Float.is_finite bound) then value rng Normal
  else
    match (family, Rng.int rng 4) with
    | Cancel, _ -> -.bound +. slack
    | Wild, 0 -> -.bound +. slack
    | Wild, 1 -> -.bound -. slack
    | _, (0 | 1) -> -.jitter (bound -. ldexp scale (-Rng.int rng 64))
    | _ -> -.jitter bound

(* For a Farkas witness, move one right-hand side so the naive bound
   lands within a few ulps of 0, where strict positivity is decided. *)
let farkas_tune rng (s : Cert.Snapshot.t) y =
  let live = List.filter (fun i -> y.(i) <> 0.0) (List.init (Array.length y) Fun.id) in
  match live with
  | [] -> s
  | _ ->
      let i = List.nth live (Rng.int rng (List.length live)) in
      let with_rhs rhs =
        Array.mapi (fun k r -> if k = i then { r with Cert.Snapshot.rhs } else r) s.rows
      in
      let rest = naive_bound { s with rows = with_rhs 0.0 } ~zero_obj:true ~y in
      if Float.is_finite rest then
        { s with rows = with_rhs (ulps (Rng.int rng 9 - 4) (-.rest /. y.(i))) }
      else s

let poke a i v = if Array.length a > 0 then a.(i mod Array.length a) <- v

(* One corruption of the kind the exact checker rejects (or, for
   [-0.0] against a [0.0] box bound, accepts). *)
let corrupt rng box (s : Cert.Snapshot.t) y const =
  let bad = pick rng [| nan; infinity; neg_infinity |] in
  let r = Rng.int rng (Array.length s.rows) in
  let row = s.rows.(r) in
  let with_row row' = { s with rows = Array.mapi (fun k x -> if k = r then row' else x) s.rows } in
  match Rng.int rng 12 with
  | 0 ->
      (* wrong-signed multiplier *)
      let y = Array.copy y in
      (match row.cmp with
      | Lp.Le -> y.(r) <- Float.abs (value rng Normal)
      | Lp.Ge -> y.(r) <- -.Float.abs (value rng Normal)
      | Lp.Eq -> y.(r) <- -.y.(r));
      (s, y, const)
  | 1 ->
      let y = Array.copy y in
      poke y (Rng.int rng 8) bad;
      (s, y, const)
  | 2 ->
      let obj = Array.copy s.obj in
      poke obj (Rng.int rng 8) bad;
      ({ s with obj }, y, const)
  | 3 -> (with_row { row with rhs = bad }, y, const)
  | 4 ->
      let cf = Array.copy row.cf in
      poke cf (Rng.int rng 8) bad;
      (with_row { row with cf }, y, const)
  | 5 ->
      let lo = Array.copy s.lo and hi = Array.copy s.hi in
      poke (if Rng.bool rng then lo else hi) (Rng.int rng 8) nan;
      ({ s with lo; hi }, y, const)
  | 6 -> (s, y, bad)
  | 7 ->
      (* multiplier count off by one *)
      let y =
        if Rng.bool rng then Array.append y [| 1.0 |] else Array.sub y 0 (Array.length y - 1)
      in
      (s, y, const)
  | 8 ->
      let cf = Array.append row.cf [| 1.0 |] in
      (with_row { row with cf }, y, const)
  | 9 ->
      let idx = Array.copy row.idx in
      poke idx (Rng.int rng 8) (if Rng.bool rng then -1 else s.nvars);
      (with_row { row with idx }, y, const)
  | 10 ->
      (* input binding: an ulp off the box, or a signed zero *)
      let lo = Array.copy s.lo and hi = Array.copy s.hi in
      let j = Rng.int rng (Box.dim box) in
      (match Rng.int rng 3 with
      | 0 -> lo.(j) <- Float.succ lo.(j)
      | 1 -> hi.(j) <- Float.pred hi.(j)
      | _ -> if lo.(j) = 0.0 then lo.(j) <- -0.0);
      ({ s with lo; hi }, y, const)
  | _ ->
      (* array shapes *)
      if Rng.bool rng then ({ s with nvars = s.nvars + 1 }, y, const)
      else ({ s with lo = Array.sub s.lo 0 (s.nvars - 1) }, y, const)

let gen_case rng =
  let family = pick rng [| Threshold; Threshold; Cancel; Cancel; Wild |] in
  let box, s, y = clean_case rng family in
  let farkas = family <> Cancel && Rng.int rng 4 = 0 in
  let s = if farkas then farkas_tune rng s y else s in
  let const = if farkas then 0.0 else constant rng family (naive_bound_and_scale s ~zero_obj:false ~y) in
  let corrupted = Rng.int rng (if family = Wild then 2 else 10) = 0 in
  let s, y, const = if corrupted then corrupt rng box s y const else (s, y, const) in
  let witness = if farkas then Lp.Certificate.Farkas y else Lp.Certificate.Dual y in
  (box, { Cert.node = 0; splits = ""; evidence = { Cert.const; snapshot = s; witness } })

type tally = { mutable cases : int; mutable screened : int; mutable exact_ok : int }

let tally = { cases = 0; screened = 0; exact_ok = 0 }

let run_case case_seed =
  let box, leaf = gen_case (Rng.create case_seed) in
  let screened = Screen.passes ~box leaf in
  let exact = Cert.check_leaf ~box leaf in
  tally.cases <- tally.cases + 1;
  if screened then tally.screened <- tally.screened + 1;
  if Result.is_ok exact then tally.exact_ok <- tally.exact_ok + 1;
  match exact with
  | Error msg when screened ->
      QCheck.Test.fail_reportf "screen passed, exact check rejected: %s" msg
  | Ok () | Error _ -> true

let test ~count =
  QCheck.Test.make ~name:"screen passes only what the exact check accepts" ~count
    QCheck.(make ~print:(Printf.sprintf "case seed %d") Gen.(int_bound 1_000_000_000))
    run_case
