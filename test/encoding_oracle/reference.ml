(* The one-shot LP and MILP builders as they stood before the persistent
   encodings became total over splits, kept verbatim as the differential
   encoding oracle's reference.  Each call builds a fresh minimal problem
   for one subproblem from that subproblem's own bounds: every ReLU that
   is ambiguous under them and unsplit gets a variable, every split one
   a half-space row, every other one is substituted away. *)

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

(* Linear expressions over the LP variables: dense coefficient array
   plus a constant. *)
type expr = { coeffs : float array; const : float }

let sparse_terms coeffs =
  let acc = ref [] in
  for j = Array.length coeffs - 1 downto 0 do
    if coeffs.(j) <> 0.0 then acc := (j, coeffs.(j)) :: !acc
  done;
  !acc

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

(* Count the extra LP variables needed: one per ambiguous piecewise
   unit, and one error variable per smooth unit. *)
let count_extra_vars net bounds ~splits =
  let layers = Network.layers net in
  let total = ref 0 in
  Array.iteri
    (fun li layer ->
      match Layer.classify (Layer.activation layer) with
      | Layer.Linear_activation -> ()
      | Layer.Smooth _ -> total := !total + Layer.output_dim layer
      | Layer.Piecewise _ ->
          let b = bounds.Bounds.layers.(li) in
          for idx = 0 to Ivan_tensor.Vec.dim b.Bounds.pre_lo - 1 do
            let r = Relu_id.make ~layer:li ~index:idx in
            if
              b.Bounds.pre_lo.(idx) < 0.0
              && b.Bounds.pre_hi.(idx) > 0.0
              && not (Splits.mem r splits)
            then incr total
          done)
    layers;
  !total

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
(* Legacy one-shot builders: a fresh LP per subproblem.  Kept as the
   fallback for subproblems the persistent encodings cannot express
   (splits on units that are stable at the property root — possible
   when a specification tree built for one network is replayed on an
   update with different root bounds). *)

let build_lp net ~prop ~box ~splits ~bounds =
  let d = Box.dim box in
  let nvars = d + count_extra_vars net bounds ~splits in
  let lp = Lp.create nvars in
  for j = 0 to d - 1 do
    Lp.set_bounds lp j (Box.lo_at box j) (Box.hi_at box j)
  done;
  let next_var = ref d in
  let exprs = ref (input_exprs nvars d) in
  let layers = Network.layers net in
  Array.iteri
    (fun li layer ->
      let w, b = Layer.dense_affine layer in
      let pre = affine_exprs nvars w b !exprs in
      let dim = Array.length pre in
      match Layer.classify (Layer.activation layer) with
      | Layer.Linear_activation -> exprs := pre
      | Layer.Smooth { f; df } ->
          (* post = lambda*pre + e with e a fresh variable bounded by
             the parallel-line sandwich (no extra rows needed). *)
          let lb = bounds.Bounds.layers.(li).Bounds.pre_lo in
          let ub = bounds.Bounds.layers.(li).Bounds.pre_hi in
          let post =
            Array.init dim (fun idx ->
                let e = pre.(idx) in
                let l = lb.(idx) and u = ub.(idx) in
                let lambda = Float.min (df l) (df u) in
                let g_lo = f l -. (lambda *. l) and g_hi = f u -. (lambda *. u) in
                let v = !next_var in
                incr next_var;
                Lp.set_bounds lp v g_lo g_hi;
                let coeffs = Array.map (fun c -> lambda *. c) e.coeffs in
                coeffs.(v) <- coeffs.(v) +. 1.0;
                { coeffs; const = lambda *. e.const })
          in
          exprs := post
      | Layer.Piecewise slope ->
          let lb = bounds.Bounds.layers.(li).Bounds.pre_lo in
          let ub = bounds.Bounds.layers.(li).Bounds.pre_hi in
          let post =
            Array.init dim (fun idx ->
                let e = pre.(idx) in
                let phase = Splits.find (Relu_id.make ~layer:li ~index:idx) splits in
                match phase with
                | Some Splits.Pos ->
                    (* assume pre >= 0: -(pre) <= 0; the unit is exactly
                       the identity on this side. *)
                    Lp.add_constraint lp
                      (sparse_terms (Array.map (fun v -> -.v) e.coeffs))
                      Lp.Le e.const;
                    e
                | Some Splits.Neg ->
                    (* assume pre <= 0; the unit is exactly y = slope*x
                       (the zero function for ReLU). *)
                    Lp.add_constraint lp (sparse_terms e.coeffs) Lp.Le (-.e.const);
                    scale_expr slope e
                | None ->
                    if lb.(idx) >= 0.0 then e
                    else if ub.(idx) <= 0.0 then scale_expr slope e
                    else begin
                      (* Triangle relaxation with a fresh variable v:
                         v >= pre, v >= slope*pre, and v below the chord
                         through (l, slope*l) and (u, u). *)
                      let v = !next_var in
                      incr next_var;
                      let l = lb.(idx) and u = ub.(idx) in
                      Lp.set_bounds lp v (slope *. l) u;
                      (* v >= pre:  pre - v <= 0 *)
                      Lp.add_constraint lp ((v, -1.0) :: sparse_terms e.coeffs) Lp.Le (-.e.const);
                      (* v >= slope*pre (vacuous for ReLU: covered by
                         the variable's lower bound of 0). *)
                      if slope > 0.0 then
                        Lp.add_constraint lp
                          ((v, -1.0) :: sparse_terms (Array.map (fun c -> slope *. c) e.coeffs))
                          Lp.Le (-.slope *. e.const);
                      (* chord: v <= lambda*pre + mu, with
                         lambda = (u - slope*l)/(u - l) and
                         mu = l*(slope - lambda). *)
                      let lambda = (u -. (slope *. l)) /. (u -. l) in
                      let mu = l *. (slope -. lambda) in
                      let chord = Array.map (fun cv -> -.lambda *. cv) e.coeffs in
                      Lp.add_constraint lp
                        ((v, 1.0) :: sparse_terms chord)
                        Lp.Le (mu +. (lambda *. e.const));
                      let coeffs = Array.make nvars 0.0 in
                      coeffs.(v) <- 1.0;
                      { coeffs; const = 0.0 }
                    end)
          in
          exprs := post)
    layers;
  let obj, const = objective_of nvars !exprs ~c:prop.Prop.c ~offset:prop.Prop.offset in
  Lp.set_objective lp obj;
  (lp, const)

let build_milp net ~prop ~box ~splits ~bounds =
  let d = Box.dim box in
  let ambiguous = count_extra_vars net bounds ~splits in
  (* Inputs, then (v, z) pairs per ambiguous ReLU. *)
  let nvars = d + (2 * ambiguous) in
  let lp = Lp.create nvars in
  for j = 0 to d - 1 do
    Lp.set_bounds lp j (Box.lo_at box j) (Box.hi_at box j)
  done;
  let next_var = ref d in
  let binaries = ref [] in
  let exprs = ref (input_exprs nvars d) in
  let layers = Network.layers net in
  Array.iteri
    (fun li layer ->
      let w, b = Layer.dense_affine layer in
      let pre = affine_exprs nvars w b !exprs in
      let dim = Array.length pre in
      match Layer.classify (Layer.activation layer) with
      | Layer.Linear_activation -> exprs := pre
      | Layer.Smooth _ -> invalid_arg "Analyzer.milp: only plain ReLU networks are supported"
      | Layer.Piecewise slope ->
          if slope <> 0.0 then
            invalid_arg "Analyzer.milp: only plain ReLU networks are supported";
          let lb = bounds.Bounds.layers.(li).Bounds.pre_lo in
          let ub = bounds.Bounds.layers.(li).Bounds.pre_hi in
          let zero_expr = { coeffs = Array.make nvars 0.0; const = 0.0 } in
          let post =
            Array.init dim (fun idx ->
                let e = pre.(idx) in
                let phase = Splits.find (Relu_id.make ~layer:li ~index:idx) splits in
                match phase with
                | Some Splits.Pos ->
                    Lp.add_constraint lp
                      (sparse_terms (Array.map (fun v -> -.v) e.coeffs))
                      Lp.Le e.const;
                    e
                | Some Splits.Neg ->
                    Lp.add_constraint lp (sparse_terms e.coeffs) Lp.Le (-.e.const);
                    zero_expr
                | None ->
                    if lb.(idx) >= 0.0 then e
                    else if ub.(idx) <= 0.0 then zero_expr
                    else begin
                      (* v = relu(pre) with indicator z:
                         v >= 0, v >= pre, v <= pre - l(1-z), v <= u z. *)
                      let v = !next_var in
                      let z = !next_var + 1 in
                      next_var := !next_var + 2;
                      binaries := z :: !binaries;
                      let l = lb.(idx) and u = ub.(idx) in
                      Lp.set_bounds lp v 0.0 u;
                      Lp.set_bounds lp z 0.0 1.0;
                      (* pre - v <= 0 *)
                      Lp.add_constraint lp ((v, -1.0) :: sparse_terms e.coeffs) Lp.Le (-.e.const);
                      (* v - pre - l z <= -l *)
                      Lp.add_constraint lp
                        ((v, 1.0) :: (z, -.l) :: sparse_terms (Array.map (fun c -> -.c) e.coeffs))
                        Lp.Le (-.l +. e.const);
                      (* v - u z <= 0 *)
                      Lp.add_constraint lp [ (v, 1.0); (z, -.u) ] Lp.Le 0.0;
                      let coeffs = Array.make nvars 0.0 in
                      coeffs.(v) <- 1.0;
                      { coeffs; const = 0.0 }
                    end)
          in
          exprs := post)
    layers;
  let obj, const = objective_of nvars !exprs ~c:prop.Prop.c ~offset:prop.Prop.offset in
  Lp.set_objective lp obj;
  (lp, const, List.rev !binaries)
