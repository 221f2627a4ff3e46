(* Float screen for leaf certificates.  See screen.mli.

   Rounding model (binary64, round to nearest): a product of two floats
   is fl(ab) = ab(1 + δ) + η with |δ| <= u = 2^-53 and |η| <= 2^-1075;
   a sum is fl(a + b) = (a + b)(1 + δ), exact when subnormal.  For a
   recursive sum of n terms, each a float or a product of two floats,
   whose absolute values the same loop sums to [mag], the computed
   result lies within

     2nu * mag + n * 2^-1073

   of the exact one, as long as nu <= 1/8 (γ_n <= 8nu/7 and
   1/(1 - γ_n) <= 7/6 absorb the rounding of [mag] itself).  Error
   bounds are themselves accumulated upward: the float just above a
   round-to-nearest result is never below the exact result. *)

module Lp = Ivan_lp.Lp
module Box = Ivan_spec.Box

exception Unsure

let require b = if not b then raise_notrace Unsure

let finite v = require (Float.is_finite v)

let add_up a b = Float.succ (a +. b)

(* A product with a zero factor is exact. *)
let mul_up a b = if a = 0.0 || b = 0.0 then 0.0 else Float.succ (a *. b)

(* The error bound above for [n] terms; no term, no error. *)
let dot_err n mag =
  if n = 0 then 0.0
  else begin
    require (n < 1 lsl 40);
    let n = float_of_int n in
    add_up (mul_up (n *. 0x1p-52) mag) (n *. 0x1p-1073)
  end

(* The weak-duality sum of [Cert.implied_bound], plus [const], as a
   float [total] and an error [err] with exact sum >= total - err.
   Terms are those of the exact checker: [const + y^T b] plus, per
   variable, its reduced cost d_j times the bound it rests at.  The
   float reduced cost d̃_j is within e_j of d_j.  When [d̃_j ± e_j]
   decides the sign, d̃_j times that bound joins the sum and e_j times
   its magnitude joins the error.  When it straddles 0, the term is at
   least -max((d̃_j + e_j) max(0, -lo), (e_j - d̃_j) max(0, hi)), and
   that maximum joins the error.  Raises [Unsure] wherever the exact
   checker could reject. *)
let lower_bound (s : Cert.Snapshot.t) ~zero_obj ~const ~y =
  let n = s.nvars in
  require (Array.length y = Array.length s.rows);
  let d = if zero_obj then Array.make n 0.0 else Array.copy s.obj in
  let mag = Array.make n 0.0 and terms = Array.make n 0 in
  if not zero_obj then
    Array.iteri
      (fun j c ->
        finite c;
        if c <> 0.0 then begin
          mag.(j) <- Float.abs c;
          terms.(j) <- 1
        end)
      s.obj;
  let total = ref const and tmag = ref (Float.abs const) in
  let tterms = ref (if const = 0.0 then 0 else 1) in
  let add p =
    total := !total +. p;
    tmag := !tmag +. Float.abs p;
    incr tterms
  in
  Array.iteri
    (fun i (r : Cert.Snapshot.row) ->
      let yi = y.(i) in
      finite yi;
      (match r.cmp with
      | Lp.Le -> require (yi <= 0.0)
      | Lp.Ge -> require (yi >= 0.0)
      | Lp.Eq -> ());
      require (Array.length r.idx = Array.length r.cf);
      finite r.rhs;
      if yi <> 0.0 then begin
        add (yi *. r.rhs);
        Array.iteri
          (fun k j ->
            require (j >= 0 && j < n);
            let a = r.cf.(k) in
            finite a;
            if a <> 0.0 then begin
              let p = yi *. a in
              d.(j) <- d.(j) -. p;
              mag.(j) <- mag.(j) +. Float.abs p;
              terms.(j) <- terms.(j) + 1
            end)
          r.idx
      end)
    s.rows;
  let radius = ref 0.0 in
  for j = 0 to n - 1 do
    if terms.(j) > 0 then begin
      let dj = d.(j) and ej = dot_err terms.(j) mag.(j) in
      if dj > ej then begin
        let lo = s.lo.(j) in
        finite lo;
        add (dj *. lo);
        radius := add_up !radius (mul_up ej (Float.abs lo))
      end
      else if dj < -.ej then begin
        let hi = s.hi.(j) in
        finite hi;
        add (dj *. hi);
        radius := add_up !radius (mul_up ej (Float.abs hi))
      end
      else begin
        let lo = s.lo.(j) and hi = s.hi.(j) in
        finite lo;
        finite hi;
        radius :=
          add_up !radius
            (Float.max
               (mul_up (add_up dj ej) (Float.max 0.0 (-.lo)))
               (mul_up (add_up ej (-.dj)) (Float.max 0.0 hi)))
      end
    end
  done;
  let err = add_up (dot_err !tterms !tmag) !radius in
  finite !tmag;
  finite err;
  (!total, err)

(* What [witness] certainly proves on [s]: for [Dual y], a bound
   [lb >= 0] at most the exact weak-duality bound plus [const]
   ([total - err] rounded to nearest may sit above the exact sum; its
   predecessor cannot); for [Farkas y], [infinity] (no feasible point).
   [None] when the sum is not certainly past its threshold. *)
let proved s ~const = function
  | Lp.Certificate.Dual y ->
      finite const;
      let total, err = lower_bound s ~zero_obj:false ~const ~y in
      if total >= err then Some (Float.max 0.0 (Float.pred (total -. err))) else None
  | Lp.Certificate.Farkas y ->
      let total, err = lower_bound s ~zero_obj:true ~const:0.0 ~y in
      if total > err then Some infinity else None

let shaped (s : Cert.Snapshot.t) =
  require (Array.length s.obj = s.nvars && Array.length s.lo = s.nvars && Array.length s.hi = s.nvars)

let passes ~box (l : Cert.leaf) =
  let s = l.evidence.snapshot in
  try
    shaped s;
    require (s.nvars >= Box.dim box);
    for j = 0 to Box.dim box - 1 do
      (* Finite floats are equal exactly when their values are. *)
      finite s.lo.(j);
      finite s.hi.(j);
      require (s.lo.(j) = Box.lo_at box j && s.hi.(j) = Box.hi_at box j)
    done;
    Option.is_some (proved s ~const:l.evidence.const l.evidence.witness)
  with Unsure -> false

let proves s ~const witness =
  try
    shaped s;
    proved s ~const witness
  with Unsure -> None
