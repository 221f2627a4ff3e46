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

(* Linear expressions over the LP variables: dense coefficient array
   plus a constant. *)
type expr = { coeffs : float array; const : float }

(* Sparse (indices, coefficients) arrays of an expression — the form
   {!Lp.add_row} / {!Lp.set_row} consume directly. *)
let sparse_arrays coeffs =
  let nnz = ref 0 in
  Array.iter (fun c -> if c <> 0.0 then incr nnz) coeffs;
  let idx = Array.make !nnz 0 in
  let cf = Array.make !nnz 0.0 in
  let k = ref 0 in
  Array.iteri
    (fun j c ->
      if c <> 0.0 then begin
        idx.(!k) <- j;
        cf.(!k) <- c;
        incr k
      end)
    coeffs;
  (idx, cf)

(* Affine image of per-neuron expressions under (w, b).  Hot path:
   iterate raw weight rows and skip structural zeros (conv-lowered rows
   are sparse). *)
let affine_exprs nvars w b exprs =
  let cols = Mat.cols w in
  Array.init (Mat.rows w) (fun i ->
      let row = Mat.row w i in
      let coeffs = Array.make nvars 0.0 in
      let const = ref b.(i) in
      for j = 0 to cols - 1 do
        let wij = row.(j) in
        if wij <> 0.0 then begin
          let e = exprs.(j) in
          const := !const +. (wij *. e.const);
          let ec = e.coeffs in
          for v = 0 to nvars - 1 do
            let c = ec.(v) in
            if c <> 0.0 then coeffs.(v) <- coeffs.(v) +. (wij *. c)
          done
        end
      done;
      { coeffs; const = !const })

(* Dense objective vector and constant for [c . outputs + offset]. *)
let objective_of nvars exprs ~c ~offset =
  let obj = Array.make nvars 0.0 in
  let const = ref offset in
  Array.iteri
    (fun i ci ->
      if ci <> 0.0 then begin
        let e = exprs.(i) in
        const := !const +. (ci *. e.const);
        for v = 0 to nvars - 1 do
          obj.(v) <- obj.(v) +. (ci *. e.coeffs.(v))
        done
      end)
    c;
  (obj, !const)

(* Unit-coefficient expressions for the input variables. *)
let input_exprs nvars d =
  Array.init d (fun j ->
      let coeffs = Array.make nvars 0.0 in
      coeffs.(j) <- 1.0;
      { coeffs; const = 0.0 })

let var_expr nvars v =
  let coeffs = Array.make nvars 0.0 in
  coeffs.(v) <- 1.0;
  { coeffs; const = 0.0 }

let scale_expr s e = { coeffs = Array.map (fun c -> s *. c) e.coeffs; const = s *. e.const }

(* ------------------------------------------------------------------ *)
(* Persistent encodings.

   An encoding is built ONCE per (network, property) from the root
   DeepPoly bounds and then specialized per BaB node by mutating only
   variable bounds and the rows of the affected units — no expression
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

(* The walk both encodings share.  Variables [0, d) are the inputs;
   then, in layer order, every unit that gets variables takes a block of
   [width] fresh ones, and [on_unit] reserves its rows and returns its
   record.  Every other piecewise unit is substituted away by its phase
   under [bounds].  Returns the problem, the objective constant and the
   unit records in order. *)
let encode net ~prop ~box ~bounds ~pinned ~width ~on_unit =
  let d = Box.dim box in
  let nvars = d + (width * count_units net bounds ~pinned) in
  let lp = Lp.create nvars in
  for j = 0 to d - 1 do
    Lp.set_bounds lp j (Box.lo_at box j) (Box.hi_at box j)
  done;
  let next_var = ref d in
  let units = ref [] in
  let fresh ~li ~idx act e =
    let v = !next_var in
    next_var := v + width;
    units := on_unit lp ~li ~idx act ~v e :: !units;
    var_expr nvars v
  in
  let exprs = ref (input_exprs nvars d) in
  Array.iteri
    (fun li layer ->
      let w, b = Layer.dense_affine layer in
      let pre = affine_exprs nvars w b !exprs in
      let act = Layer.classify (Layer.activation layer) in
      exprs :=
        match act with
        | Layer.Linear_activation -> pre
        | Layer.Smooth _ -> Array.mapi (fun idx e -> fresh ~li ~idx act e) pre
        | Layer.Piecewise slope ->
            let lb = bounds.Bounds.layers.(li).Bounds.pre_lo in
            Array.mapi
              (fun idx e ->
                if needs_vars bounds ~pinned li idx then fresh ~li ~idx act e
                else if lb.(idx) >= 0.0 then e
                else scale_expr slope e)
              pre)
    (Network.layers net);
  let obj, const = objective_of nvars !exprs ~c:prop.Prop.c ~offset:prop.Prop.offset in
  Lp.set_objective lp obj;
  (lp, const, Array.of_list (List.rev !units))

(* One encoding's current problem.  [covered] holds every unit a node
   may split without a re-encoding: the pinned units and the units with
   variables. *)
type 'u shape = { lp : Lp.problem; const : float; units : 'u array; covered : Relu_id.Set.t }

(* An encoding: its input dimension, its current shape, and how to
   re-encode it with a given set of pinned units. *)
type 'u persistent = {
  d : int;
  reencode : Relu_id.Set.t -> 'u shape;
  mutable shape : 'u shape;
}

let persistent net ~prop ~box ~bounds ~pinned ~width ~on_unit ~relu =
  let reencode pinned =
    let lp, const, units = encode net ~prop ~box ~bounds ~pinned ~width ~on_unit in
    let covered = Array.fold_left (fun acc u -> Relu_id.Set.add (relu u) acc) pinned units in
    { lp; const; units; covered }
  in
  { d = Box.dim box; reencode; shape = reencode pinned }

let split_units splits =
  List.fold_left
    (fun acc (id, _) -> Relu_id.Set.add id acc)
    Relu_id.Set.empty (Splits.bindings splits)

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

(* Write a vacuous all-zero row into a slot (0 <= 0). *)
let vacuous lp row = Lp.set_row lp row [||] [||] Lp.Le 0.0

(* A unit's pre-activation bounds at the node.  @raise Mismatch on NaN
   or inverted bounds. *)
let node_bounds bounds li idx =
  let l = bounds.Bounds.layers.(li).Bounds.pre_lo.(idx) in
  let h = bounds.Bounds.layers.(li).Bounds.pre_hi.(idx) in
  if Float.is_nan l || Float.is_nan h || l > h then raise Mismatch;
  (l, h)

(* The root DeepPoly bounds of a property; [None] when the root is
   DeepPoly-infeasible. *)
let root_bounds net ~prop =
  match Deeppoly.analyze net ~box:prop.Prop.input ~splits:Splits.empty with
  | Deeppoly.Infeasible -> None
  | Deeppoly.Feasible dp -> Some (Deeppoly.bounds dp)

(* ------------------------------------------------------------------ *)
(* Triangle encoding.  Row slots per piecewise unit with variable [v]:

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

module Triangle = struct
  type t = tunit persistent

  let lp t = t.shape.lp

  let const t = t.shape.const

  let on_unit lp ~li ~idx act ~v e =
    let pre_idx, pre_cf = sparse_arrays e.coeffs in
    let vrow_idx = Array.append [| v |] pre_idx in
    let slot cmp = Lp.add_row lp [||] [||] cmp 0.0 in
    let kind =
      match act with
      | Layer.Smooth { f; df } ->
          let row_hi = slot Lp.Le in
          let row_lo = slot Lp.Ge in
          Smooth_unit { f; df; row_hi; row_lo }
      | Layer.Piecewise slope ->
          let row_a = slot Lp.Le in
          let row_b = slot Lp.Le in
          let row_c = slot Lp.Le in
          let row_d = slot Lp.Le in
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
    persistent net ~prop ~box ~bounds ~pinned ~width:1 ~on_unit ~relu:(fun u -> u.relu)

  let build net ~prop =
    Option.map
      (fun bounds -> make net ~prop ~box:prop.Prop.input ~bounds ~pinned:Relu_id.Set.empty)
      (root_bounds net ~prop)

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
end

let build_lp net ~prop ~box ~splits ~bounds =
  let t = Triangle.make net ~prop ~box ~bounds ~pinned:(split_units splits) in
  Triangle.specialize t ~box ~splits ~bounds;
  (Triangle.lp t, Triangle.const t)

(* ------------------------------------------------------------------ *)
(* MILP encoding: big-M indicator form with a (v, z) pair per unit with
   variables.  Units resolved at a node (stable or split) keep their
   pair with z pinned to the known phase ([1,1] or [0,0]) and vacuous
   big-M rows, so the integral feasible set is the node's region and
   the MILP optimum is exact; pinned binaries are never fractional, so
   the search never branches on them.  Row slots per unit:

     M1:  pre - v <= 0          (fixed at build)
     M2:  v - pre - l*z <= -l   (per-node l; vacuous when z pinned 0)
     M3:  v - u*z <= 0          (per-node u; vacuous when z pinned)
     M4:  +/- pre <= 0          (split assumption; vacuous otherwise) *)

type munit = {
  mvar : int;
  mz : int;
  mrelu : Relu_id.t;
  mli : int;
  midx : int;
  mpre_const : float;
  mpre_idx : int array;
  mpre_cf : float array;
  row_m2 : int;
  row_m3 : int;
  row_m4 : int;
  m2_idx : int array;  (* [| v; z; pre vars... |] *)
  m2_scratch : float array;
  m4_scratch : float array;  (* len nnz(pre) *)
}

module Milp = struct
  type t = munit persistent

  let lp t = t.shape.lp

  let const t = t.shape.const

  let binaries t = Array.to_list (Array.map (fun u -> u.mz) t.shape.units)

  let on_unit lp ~li ~idx _act ~v e =
    let z = v + 1 in
    let pre_idx, pre_cf = sparse_arrays e.coeffs in
    (* M1 is phase-independent: v >= pre always holds for ReLU. *)
    let m1_idx = Array.append [| v |] pre_idx and m1_cf = Array.append [| -1.0 |] pre_cf in
    ignore (Lp.add_row lp m1_idx m1_cf Lp.Le (-.e.const));
    let row_m2 = Lp.add_row lp [||] [||] Lp.Le 0.0 in
    let row_m3 = Lp.add_row lp [||] [||] Lp.Le 0.0 in
    let row_m4 = Lp.add_row lp [||] [||] Lp.Le 0.0 in
    let m2_idx = Array.append [| v; z |] pre_idx in
    {
      mvar = v;
      mz = z;
      mrelu = Relu_id.make ~layer:li ~index:idx;
      mli = li;
      midx = idx;
      mpre_const = e.const;
      mpre_idx = pre_idx;
      mpre_cf = pre_cf;
      row_m2;
      row_m3;
      row_m4;
      m2_idx;
      m2_scratch = Array.make (Array.length m2_idx) 0.0;
      m4_scratch = Array.make (Array.length pre_idx) 0.0;
    }

  let build net ~prop =
    Array.iter
      (fun layer ->
        let plain_relu =
          match Layer.classify (Layer.activation layer) with
          | Layer.Linear_activation -> true
          | Layer.Smooth _ -> false
          | Layer.Piecewise slope -> slope = 0.0
        in
        if not plain_relu then invalid_arg "Analyzer.milp: only plain ReLU networks are supported")
      (Network.layers net);
    Option.map
      (fun bounds ->
        persistent net ~prop ~box:prop.Prop.input ~bounds ~pinned:Relu_id.Set.empty ~width:2
          ~on_unit ~relu:(fun u -> u.mrelu))
      (root_bounds net ~prop)

  let specialize t ~box ~splits ~bounds =
    let lp = prepare t ~box ~splits in
    Array.iter
      (fun u ->
        let l, h = node_bounds bounds u.mli u.midx in
        let m2_active ll =
          (* v - pre - l*z <= -l *)
          u.m2_scratch.(0) <- 1.0;
          u.m2_scratch.(1) <- -.ll;
          for k = 0 to Array.length u.mpre_cf - 1 do
            u.m2_scratch.(k + 2) <- -.u.mpre_cf.(k)
          done;
          Lp.set_row lp u.row_m2 u.m2_idx u.m2_scratch Lp.Le (-.ll +. u.mpre_const)
        in
        let phase = Splits.find u.mrelu splits in
        (* M4: the split assumption sign*pre <= 0, whatever the bounds
           say about the unit. *)
        (match phase with
        | None -> vacuous lp u.row_m4
        | Some p ->
            let sign = match p with Splits.Pos -> -1.0 | Splits.Neg -> 1.0 in
            for k = 0 to Array.length u.mpre_cf - 1 do
              u.m4_scratch.(k) <- sign *. u.mpre_cf.(k)
            done;
            Lp.set_row lp u.row_m4 u.mpre_idx u.m4_scratch Lp.Le (-.sign *. u.mpre_const));
        if phase = Some Splits.Pos || l >= 0.0 then begin
          (* z pinned 1: v = pre via M1 + M2. *)
          Lp.set_bounds lp u.mz 1.0 1.0;
          Lp.set_bounds lp u.mvar 0.0 infinity;
          m2_active l;
          vacuous lp u.row_m3
        end
        else if phase = Some Splits.Neg || h <= 0.0 then begin
          (* z pinned 0: v = 0 via its bounds. *)
          Lp.set_bounds lp u.mz 0.0 0.0;
          Lp.set_bounds lp u.mvar 0.0 0.0;
          vacuous lp u.row_m2;
          vacuous lp u.row_m3
        end
        else begin
          (* Ambiguous at this node: the full big-M relaxation. *)
          Lp.set_bounds lp u.mz 0.0 1.0;
          Lp.set_bounds lp u.mvar 0.0 h;
          m2_active l;
          (* M3: v - u*z <= 0 *)
          u.m2_scratch.(0) <- 1.0;
          u.m2_scratch.(1) <- -.h;
          Lp.set_row lp u.row_m3 (Array.sub u.m2_idx 0 2) (Array.sub u.m2_scratch 0 2) Lp.Le 0.0
        end)
      t.shape.units
end
