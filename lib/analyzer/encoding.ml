module Mat = Ivan_tensor.Mat
module Lp = Ivan_lp.Lp
module Network = Ivan_nn.Network
module Layer = Ivan_nn.Layer
module Relu_id = Ivan_nn.Relu_id
module Box = Ivan_spec.Box
module Prop = Ivan_spec.Prop
module Splits = Ivan_domains.Splits
module Bounds = Ivan_domains.Bounds
module Deeppoly = Ivan_domains.Deeppoly

exception Mismatch

(* Linear expressions over the LP variables: the nonzero coefficients
   [cf.(k)] of the variables [idx.(k)], indices increasing, plus a
   constant — the form {!Lp.add_row} / {!Lp.set_row} consume directly. *)
type expr = { idx : int array; cf : float array; const : float }

(* Affine image of per-neuron expressions under (w, b).  Each output row
   is accumulated into one dense scratch row over the variables, visiting
   the nonzero weights in column order, so every coefficient is the same
   sum in the same order as a dense composition, bit for bit.  The span
   of variables the row touched is then compacted to its nonzero entries
   ([-0.0] compares equal to 0 and is dropped) and cleared; scanning
   only that span keeps wide inputs (an image's pixels under a conv
   layer's local rows) from costing every row a pass over all of them. *)
let affine_exprs nvars w b exprs =
  let cols = Mat.cols w in
  let acc = Array.make nvars 0.0 in
  let nz_idx = Array.make nvars 0 and nz_cf = Array.make nvars 0.0 in
  Array.init (Mat.rows w) (fun i ->
      let row = Mat.row w i in
      let const = ref b.(i) in
      let lo = ref nvars and hi = ref (-1) in
      for j = 0 to cols - 1 do
        let wij = row.(j) in
        if wij <> 0.0 then begin
          let e = exprs.(j) in
          const := !const +. (wij *. e.const);
          let n = Array.length e.idx in
          if n > 0 then begin
            lo := Int.min !lo e.idx.(0);
            hi := Int.max !hi e.idx.(n - 1)
          end;
          for k = 0 to n - 1 do
            let v = e.idx.(k) in
            acc.(v) <- acc.(v) +. (wij *. e.cf.(k))
          done
        end
      done;
      let nnz = ref 0 in
      for v = !lo to !hi do
        let c = acc.(v) in
        if c <> 0.0 then begin
          nz_idx.(!nnz) <- v;
          nz_cf.(!nnz) <- c;
          incr nnz
        end;
        acc.(v) <- 0.0
      done;
      { idx = Array.sub nz_idx 0 !nnz; cf = Array.sub nz_cf 0 !nnz; const = !const })

(* Dense objective vector and constant for [c . outputs + offset]. *)
let objective_of nvars exprs ~c ~offset =
  let obj = Array.make nvars 0.0 in
  let const = ref offset in
  Array.iteri
    (fun i ci ->
      if ci <> 0.0 then begin
        let e = exprs.(i) in
        const := !const +. (ci *. e.const);
        Array.iteri (fun k v -> obj.(v) <- obj.(v) +. (ci *. e.cf.(k))) e.idx
      end)
    c;
  (obj, !const)

(* The expression of a single variable. *)
let var_expr v = { idx = [| v |]; cf = [| 1.0 |]; const = 0.0 }

(* [s] times [e].  A zero product is dropped for a zero slope (a plain
   ReLU) and kept otherwise (a subnormal underflow): only
   {!affine_exprs} and {!objective_of} read a scaled expression, and
   both add such a term as a no-op. *)
let scale_expr s e =
  if s = 0.0 then { idx = [||]; cf = [||]; const = s *. e.const }
  else { e with cf = Array.map (fun c -> s *. c) e.cf; const = s *. e.const }

(* Whether a piecewise unit gets LP variables: it is pinned, or
   ambiguous under the bounds the encoding is built from. *)
let needs_vars bounds ~pinned li idx =
  Relu_id.Set.mem (Relu_id.make ~layer:li ~index:idx) pinned
  ||
  let b = bounds.Bounds.layers.(li) in
  not (b.Bounds.pre_lo.(idx) >= 0.0 || b.Bounds.pre_hi.(idx) <= 0.0)

(* Units that get LP variables: piecewise units that need them, and
   every smooth unit. *)
let count_units net bounds ~pinned =
  let total = ref 0 in
  Array.iteri
    (fun li layer ->
      match Layer.classify (Layer.activation layer) with
      | Layer.Linear_activation -> ()
      | Layer.Smooth _ -> total := !total + Layer.output_dim layer
      | Layer.Piecewise _ ->
          for idx = 0 to Layer.output_dim layer - 1 do
            if needs_vars bounds ~pinned li idx then incr total
          done)
    (Network.layers net);
  !total

(* Row keys (see encoding.mli): row [i] has the key
   [unit * slots + slot], with [unit] numbering every layer's outputs in
   layer order, whether or not they get variables, and [slot] the row's
   kind within its unit.  Rows are added unit by unit and slot by slot,
   so keys increase with the row index. *)
let slots = 6

(* The walk both encodings share.  Variables [0, d) are the inputs;
   then, in layer order, every unit that gets variables takes a block of
   [width] fresh ones, and [on_unit] adds its rows through [row] and
   returns its record.  Every other piecewise unit is substituted away
   by its phase under [bounds].  Returns the problem, the objective
   constant, the unit records in order and the row keys. *)
let encode net ~prop ~box ~bounds ~pinned ~width ~on_unit =
  let d = Box.dim box in
  let nvars = d + (width * count_units net bounds ~pinned) in
  let lp = Lp.create nvars in
  for j = 0 to d - 1 do
    Lp.set_bounds lp j (Box.lo_at box j) (Box.hi_at box j)
  done;
  let next_var = ref d in
  let units = ref [] and keys = ref [] and base = ref 0 in
  let fresh ~li ~idx act e =
    let v = !next_var in
    next_var := v + width;
    let row ~slot ridx rcf cmp rhs =
      keys := (((!base + idx) * slots) + slot) :: !keys;
      Lp.add_row lp ridx rcf cmp rhs
    in
    units := on_unit ~row ~li ~idx act ~v e :: !units;
    var_expr v
  in
  let exprs = ref (Array.init d var_expr) in
  Array.iteri
    (fun li layer ->
      let w, b = Layer.dense_affine layer in
      let pre = affine_exprs nvars w b !exprs in
      let act = Layer.classify (Layer.activation layer) in
      exprs :=
        (match act with
        | Layer.Linear_activation -> pre
        | Layer.Smooth _ -> Array.mapi (fun idx e -> fresh ~li ~idx act e) pre
        | Layer.Piecewise slope ->
            let lb = bounds.Bounds.layers.(li).Bounds.pre_lo in
            Array.mapi
              (fun idx e ->
                if needs_vars bounds ~pinned li idx then fresh ~li ~idx act e
                else if lb.(idx) >= 0.0 then e
                else scale_expr slope e)
              pre);
      base := !base + Layer.output_dim layer)
    (Network.layers net);
  let obj, const = objective_of nvars !exprs ~c:prop.Prop.c ~offset:prop.Prop.offset in
  Lp.set_objective lp obj;
  (lp, const, Array.of_list (List.rev !units), Array.of_list (List.rev !keys))

let split_units splits =
  List.fold_left
    (fun acc (id, _) -> Relu_id.Set.add id acc)
    Relu_id.Set.empty (Splits.bindings splits)

(* A unit's pre-activation bounds at the node.  @raise Mismatch on NaN
   or inverted bounds. *)
let node_bounds bounds li idx =
  let l = bounds.Bounds.layers.(li).Bounds.pre_lo.(idx) in
  let h = bounds.Bounds.layers.(li).Bounds.pre_hi.(idx) in
  if Float.is_nan l || Float.is_nan h || l > h then raise Mismatch;
  (l, h)

(* ------------------------------------------------------------------ *)
(* The persistent triangle encoding.

   It is built ONCE per (network, property) from the root DeepPoly
   bounds and then specialized per BaB node by mutating only variable
   bounds and the rows of the affected units — no expression
   recomputation, no fresh LP.  A unit stable at the root is substituted
   away by its root phase: the root bounds hold on every node's region,
   so that substitution is valid everywhere.  Every root-ambiguous unit
   gets a permanent LP variable and a fixed set of row slots whose
   coefficients the per-node table rewrites; unused slots become vacuous
   all-zero rows.  The fixed shape is what makes warm starts work: a
   parent's {!Lp.Basis.t} maps 1:1 onto every child's problem.

   A node can split a unit that is stable at the root — a specification
   tree built for one network and replayed on an update does.  The unit
   is then {e pinned}: the encoding re-encodes itself once with a
   variable and row slots for it, and the per-node table specializes it
   like any other.  Bases from before the re-encoding no longer fit, so
   the node that triggers it falls back to a cold solve; its children
   warm-start again.  A pinned unit stays pinned for the encoding's
   life, and at nodes that do not split it the table works from the
   node's bounds, not the root's; such a node's LP can then be looser
   than it was before the re-encoding, but never looser than the
   invariant below allows.

   Invariant: a node's LP is the same as, or tighter than, the per-node
   encoding built from the node's own bounds ({!build_lp}).  Every
   constraint beyond that one is a root DeepPoly fact, valid on the
   node, so the LP stays a sound relaxation.  It is not always the same
   LP: DeepPoly is not monotone under splits, so a unit stable at the
   root can be ambiguous under a node's bounds, and the substitution is
   then strictly tighter than that node's triangle.  On 1,542 random
   subproblems of random dense ReLU nets (random sub-boxes, 30% of the
   ReLUs split), 64 had such a unit and 19 had a strictly higher optimum,
   by up to 28% relative; none had a lower one.  Verdicts cannot flip
   (both LPs are sound), but a replayed node's bound may rise. *)

(* Row slots per piecewise unit with variable [v]:

     A:  pre - v <= 0                (v >= pre)
     B:  v - lambda*pre <= mu        (chord / upper equality side)
     C:  slope*pre - v <= 0          (v >= slope*pre)
     D:  +/- pre <= 0                (the node's split assumption)

   and per smooth unit two rows holding [v - lambda*pre] inside the
   parallel-line sandwich. *)

type piecewise_rows = {
  slope : float;
  row_a : int;
  row_b : int;
  row_c : int;
  row_d : int;
  d_scratch : float array;  (* split-row scratch, len nnz(pre) *)
}

type smooth_rows = { f : float -> float; df : float -> float; row_hi : int; row_lo : int }

type tkind = Piecewise_unit of piecewise_rows | Smooth_unit of smooth_rows

type tunit = {
  var : int;
  relu : Relu_id.t;
  li : int;
  idx : int;
  pre_const : float;
  pre_idx : int array;
  pre_cf : float array;
  vrow_idx : int array;  (* [| var; pre vars... |], shared by the var rows *)
  scratch : float array;  (* coefficient scratch, len 1 + nnz(pre) *)
  kind : tkind;
}

(* The encoding's current problem.  [covered] holds every unit a node
   may split without a re-encoding: the pinned units and the units with
   variables.  [keys] holds every row's key. *)
type shape = {
  lp : Lp.problem;
  const : float;
  units : tunit array;
  covered : Relu_id.Set.t;
  keys : int array;
}

(* The encoding: its input dimension, its current shape, and how to
   re-encode it with a given set of pinned units. *)
type persistent = {
  d : int;
  reencode : Relu_id.Set.t -> shape;
  mutable shape : shape;
}

module Triangle = struct
  type t = persistent

  let lp t = t.shape.lp

  let const t = t.shape.const

  let keys t = t.shape.keys

  (* Make the shape cover every split of the node (pinning the units it
     substituted away), then set the input box.  Returns the problem to
     specialize. *)
  let prepare p ~box ~splits =
    if Box.dim box <> p.d then raise Mismatch;
    let split = split_units splits and covered = p.shape.covered in
    if not (Relu_id.Set.subset split covered) then
      p.shape <- p.reencode (Relu_id.Set.union split covered);
    let lp = p.shape.lp in
    for j = 0 to p.d - 1 do
      Lp.set_bounds lp j (Box.lo_at box j) (Box.hi_at box j)
    done;
    lp

  (* Multipliers [y] of the rows keyed [keys] carried onto the current
     problem by key, in one merge of the two increasing key arrays: a row
     the current problem lacks drops its multiplier, a row [keys] lacks
     gets 0, and each multiplier is clamped to the sign its new row
     admits (NaN stays NaN).  Weak duality holds for any such vector, so
     nothing about [y] needs to be trusted. *)
  let transfer t ~keys ~y =
    if Array.length keys <> Array.length y then None
    else begin
      let shape = t.shape in
      let n = Array.length keys in
      let k = ref 0 in
      Some
        (Array.mapi
           (fun i key ->
             while !k < n && keys.(!k) < key do
               incr k
             done;
             if !k < n && keys.(!k) = key then
               match Lp.row_cmp shape.lp i with
               | Lp.Le -> Float.min 0.0 y.(!k)
               | Lp.Ge -> Float.max 0.0 y.(!k)
               | Lp.Eq -> y.(!k)
             else 0.0)
           shape.keys)
    end

  (* Write a vacuous all-zero row into a slot (0 <= 0). *)
  let vacuous lp row = Lp.set_row lp row [||] [||] Lp.Le 0.0

  let on_unit ~row ~li ~idx act ~v (e : expr) =
    let pre_idx = e.idx and pre_cf = e.cf in
    let vrow_idx = Array.append [| v |] pre_idx in
    let slot k cmp = row ~slot:k [||] [||] cmp 0.0 in
    let kind =
      match act with
      | Layer.Smooth { f; df } ->
          let row_hi = slot 4 Lp.Le in
          let row_lo = slot 5 Lp.Ge in
          Smooth_unit { f; df; row_hi; row_lo }
      | Layer.Piecewise slope ->
          let row_a = slot 0 Lp.Le in
          let row_b = slot 1 Lp.Le in
          let row_c = slot 2 Lp.Le in
          let row_d = slot 3 Lp.Le in
          Piecewise_unit
            { slope; row_a; row_b; row_c; row_d; d_scratch = Array.make (Array.length pre_idx) 0.0 }
      | Layer.Linear_activation -> assert false
    in
    {
      var = v;
      relu = Relu_id.make ~layer:li ~index:idx;
      li;
      idx;
      pre_const = e.const;
      pre_idx;
      pre_cf;
      vrow_idx;
      scratch = Array.make (Array.length vrow_idx) 0.0;
      kind;
    }

  let make net ~prop ~box ~bounds ~pinned =
    let reencode pinned =
      let lp, const, units, keys = encode net ~prop ~box ~bounds ~pinned ~width:1 ~on_unit in
      let covered = Array.fold_left (fun acc u -> Relu_id.Set.add u.relu acc) pinned units in
      { lp; const; units; covered; keys }
    in
    { d = Box.dim box; reencode; shape = reencode pinned }

  (* From [root] when the caller has the root's bounds, else from a
     DeepPoly run of the root; [None] when that is infeasible. *)
  let build ?root net ~prop =
    let root =
      match root with
      | Some _ -> root
      | None -> (
          match Deeppoly.analyze net ~box:prop.Prop.input ~splits:Splits.empty with
          | Deeppoly.Infeasible -> None
          | Deeppoly.Feasible dp -> Some (Deeppoly.bounds dp))
    in
    Option.map (fun bounds -> make net ~prop ~box:prop.Prop.input ~bounds ~pinned:Relu_id.Set.empty) root

  (* Row over [var; pre...]: scale*pre + vcoeff*v <= rhs. *)
  let set_vrow lp row u ~vcoeff ~scale ~rhs =
    u.scratch.(0) <- vcoeff;
    for k = 0 to Array.length u.pre_cf - 1 do
      u.scratch.(k + 1) <- scale *. u.pre_cf.(k)
    done;
    Lp.set_row lp row u.vrow_idx u.scratch Lp.Le rhs

  let specialize_piecewise lp u { slope = s; row_a; row_b; row_c; row_d; d_scratch } ~splits ~l ~h =
    let a_active () =
      (* A: pre - v <= 0 *)
      set_vrow lp row_a u ~vcoeff:(-1.0) ~scale:1.0 ~rhs:(-.u.pre_const)
    in
    let b_chord lambda mu =
      (* B: v - lambda*pre <= mu *)
      set_vrow lp row_b u ~vcoeff:1.0 ~scale:(-.lambda) ~rhs:(mu +. (lambda *. u.pre_const))
    in
    let c_active () =
      (* C: slope*pre - v <= 0 *)
      set_vrow lp row_c u ~vcoeff:(-1.0) ~scale:s ~rhs:(-.s *. u.pre_const)
    in
    let d_split sign =
      (* D: sign*pre <= 0 *)
      for k = 0 to Array.length u.pre_cf - 1 do
        d_scratch.(k) <- sign *. u.pre_cf.(k)
      done;
      Lp.set_row lp row_d u.pre_idx d_scratch Lp.Le (-.sign *. u.pre_const)
    in
    (* Even when rows pin [v] exactly (v = pre or v = slope*pre), give
       it the finite bounds those rows imply rather than leaving it
       free: the feasible set is unchanged, but dual certificates need
       finite variable bounds to absorb the float residue of reduced
       costs — a free variable with a nonzero exact reduced cost would
       imply a bound of -inf and the proof checker would have to reject
       the certificate. *)
    let bound_var lo hi = Lp.set_bounds lp u.var lo hi in
    match Splits.find u.relu splits with
    | Some Splits.Pos ->
        (* v = pre on this side, plus the assumption pre >= 0. *)
        a_active ();
        b_chord 1.0 0.0;
        vacuous lp row_c;
        d_split (-1.0);
        bound_var (Float.max l 0.0) (Float.max h 0.0)
    | Some Splits.Neg ->
        (* v = slope*pre, plus pre <= 0. *)
        vacuous lp row_a;
        if s > 0.0 then begin
          b_chord s 0.0;
          c_active ();
          bound_var (s *. Float.min l 0.0) (s *. Float.min h 0.0)
        end
        else begin
          vacuous lp row_b;
          vacuous lp row_c;
          bound_var 0.0 0.0
        end;
        d_split 1.0
    | None ->
        if l >= 0.0 then begin
          (* Stable-positive at this node: v = pre exactly. *)
          a_active ();
          b_chord 1.0 0.0;
          vacuous lp row_c;
          vacuous lp row_d;
          bound_var l h
        end
        else if h <= 0.0 then begin
          (* Stable-negative: v = slope*pre exactly. *)
          vacuous lp row_a;
          if s > 0.0 then begin
            b_chord s 0.0;
            c_active ();
            bound_var (s *. l) (s *. h)
          end
          else begin
            vacuous lp row_b;
            vacuous lp row_c;
            bound_var 0.0 0.0
          end;
          vacuous lp row_d
        end
        else begin
          (* Ambiguous: the triangle relaxation. *)
          a_active ();
          let lambda = (h -. (s *. l)) /. (h -. l) in
          let mu = l *. (s -. lambda) in
          b_chord lambda mu;
          if s > 0.0 then c_active () else vacuous lp row_c;
          vacuous lp row_d;
          bound_var (s *. l) h
        end

  let specialize_smooth lp u { f; df; row_hi; row_lo } ~l ~h =
    let lambda = Float.min (df l) (df h) in
    let g_lo = f l -. (lambda *. l) in
    let g_hi = f h -. (lambda *. h) in
    (* v - lambda*pre within the sandwich [g_lo, g_hi]. *)
    u.scratch.(0) <- 1.0;
    for k = 0 to Array.length u.pre_cf - 1 do
      u.scratch.(k + 1) <- -.lambda *. u.pre_cf.(k)
    done;
    Lp.set_row lp row_hi u.vrow_idx u.scratch Lp.Le (g_hi +. (lambda *. u.pre_const));
    Lp.set_row lp row_lo u.vrow_idx u.scratch Lp.Ge (g_lo +. (lambda *. u.pre_const));
    (* Finite bounds implied by the sandwich rows and pre in [l, h]
       (same rationale as the piecewise units: free variables make dual
       certificates uncheckable). *)
    let lo_p = Float.min (lambda *. l) (lambda *. h)
    and hi_p = Float.max (lambda *. l) (lambda *. h) in
    Lp.set_bounds lp u.var (lo_p +. Float.min g_lo g_hi) (hi_p +. Float.max g_lo g_hi)

  let specialize t ~box ~splits ~bounds =
    let lp = prepare t ~box ~splits in
    Array.iter
      (fun u ->
        let l, h = node_bounds bounds u.li u.idx in
        match u.kind with
        | Piecewise_unit rows -> specialize_piecewise lp u rows ~splits ~l ~h
        | Smooth_unit rows -> specialize_smooth lp u rows ~l ~h)
      t.shape.units

  (* The crash basis of the current specialization.  Each input rests
     on the box end [upper] names, and a forward pass through the units'
     own pre-activation rows gives every unit its exact value under the
     values before it.  A value strictly inside the unit's bounds makes
     the unit basic in its tight row, A ([pre - v <= 0]) when [pre >= 0]
     and C ([slope*pre - v <= 0]) otherwise, with that row's slack at 0;
     each such row holds the unit's variable with coefficient -1 and
     only earlier variables besides, so the basis matrix is
     unit-triangular in layer order.  Any other value rests the
     variable on the bound it reaches.  Every other row keeps its slack
     basic, so its slack value says whether the point satisfies it.
     Such a row has no room when the point sits outside the node's
     region (a split row), and the solver's dual simplex then repairs
     the basis. *)
  let crash t ~upper =
    let lp = t.shape.lp in
    let n = Lp.num_vars lp and m = Lp.num_rows lp in
    if Array.length upper <> t.d then invalid_arg "Encoding.Triangle.crash: corner dimension";
    let value = Array.make n 0.0 in
    let statuses = Array.make (n + m) Lp.Basic in
    let basics = Array.init m (fun i -> n + i) in
    let rest j ~at_upper =
      let lo, hi = Lp.get_bounds lp j in
      let v = if at_upper then hi else lo in
      if not (Float.is_finite v) then raise Exit;
      value.(j) <- v;
      statuses.(j) <- (if at_upper then Lp.At_upper else Lp.At_lower)
    in
    let unit u =
      match u.kind with
      | Smooth_unit _ -> raise Exit
      | Piecewise_unit { slope; row_a; row_c; _ } ->
          let pre = ref u.pre_const in
          Array.iteri (fun k j -> pre := !pre +. (u.pre_cf.(k) *. value.(j))) u.pre_idx;
          let pre = !pre in
          let exact = if pre >= 0.0 then pre else slope *. pre in
          let lo, hi = Lp.get_bounds lp u.var in
          if lo < exact && exact < hi then begin
            let row = if pre >= 0.0 then row_a else row_c in
            value.(u.var) <- exact;
            basics.(row) <- u.var;
            statuses.(n + row) <- Lp.At_lower
          end
          else rest u.var ~at_upper:(exact > lo)
    in
    match
      Array.iteri (fun j at_upper -> rest j ~at_upper) upper;
      Array.iter unit t.shape.units
    with
    | () -> Some (Lp.Basis.make ~basics ~statuses)
    | exception Exit -> None
end

let build_lp net ~prop ~box ~splits ~bounds =
  if Box.dim box <> Network.input_dim net then raise Mismatch;
  let t = Triangle.make net ~prop ~box ~bounds ~pinned:(split_units splits) in
  Triangle.specialize t ~box ~splits ~bounds;
  (Triangle.lp t, Triangle.const t)

(* ------------------------------------------------------------------ *)
(* MILP encoding: big-M indicator form, built from one subproblem's own
   bounds for that subproblem alone.  Every unit ambiguous under those
   bounds, and every split unit, gets a (v, z) pair; every other unit is
   substituted away by its phase.  A split unit keeps its pair with z
   pinned to its phase ([1,1] or [0,0]), so the integral feasible set is
   the subproblem's region and the MILP optimum is exact; pinned
   binaries are never fractional, so the search never branches on them.
   Rows per unit, each written once:

     M1:  pre - v <= 0          (always)
     M2:  v - pre - l*z <= -l   (unless z is pinned 0)
     M3:  v - u*z <= 0          (only when z is free)
     M4:  +/- pre <= 0          (the split assumption, when split) *)

let milp net ~prop ~box ~splits ~bounds =
  Array.iter
    (fun layer ->
      match Layer.classify (Layer.activation layer) with
      | Layer.Linear_activation | Layer.Piecewise 0.0 -> ()
      | Layer.Piecewise _ | Layer.Smooth _ ->
          invalid_arg "Analyzer.milp_verify: only plain ReLU networks are supported")
    (Network.layers net);
  if Box.dim box <> Network.input_dim net then raise Mismatch;
  let on_unit ~row ~li ~idx _act ~v (e : expr) =
    let z = v + 1 and l, h = node_bounds bounds li idx in
    let row ~slot ridx rcf rhs = ignore (row ~slot ridx rcf Lp.Le rhs) in
    row ~slot:0 (Array.append [| v |] e.idx) (Array.append [| -1.0 |] e.cf) (-.e.const);
    let m2 () =
      row ~slot:1
        (Array.append [| v; z |] e.idx)
        (Array.append [| 1.0; -.l |] (Array.map Float.neg e.cf))
        (-.l +. e.const)
    in
    let phase = Splits.find (Relu_id.make ~layer:li ~index:idx) splits in
    (* z pinned 1 (v = pre via M1 + M2; the bound v <= max 0 h keeps
       every column boxed), z pinned 0 (v = 0 by its bounds), or free. *)
    let unit =
      if phase = Some Splits.Pos || l >= 0.0 then (m2 (); (z, 1.0, 1.0, Float.max 0.0 h))
      else if phase = Some Splits.Neg || h <= 0.0 then (z, 0.0, 0.0, 0.0)
      else (m2 (); row ~slot:2 [| v; z |] [| 1.0; -.h |] 0.0; (z, 0.0, 1.0, h))
    in
    (* M4, whatever the bounds say about the unit. *)
    Option.iter
      (fun p ->
        let sign = match p with Splits.Pos -> -1.0 | Splits.Neg -> 1.0 in
        row ~slot:3 e.idx (Array.map (fun c -> sign *. c) e.cf) (-.sign *. e.const))
      phase;
    unit
  in
  let lp, const, units, _ =
    encode net ~prop ~box ~bounds ~pinned:(split_units splits) ~width:2 ~on_unit
  in
  Array.iter
    (fun (z, z_lo, z_hi, v_hi) ->
      Lp.set_bounds lp z z_lo z_hi;
      Lp.set_bounds lp (z - 1) 0.0 v_hi)
    units;
  (lp, const, Array.to_list (Array.map (fun (z, _, _, _) -> z) units))
