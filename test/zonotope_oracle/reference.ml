(* The zonotope kernel as it stood before the flat-buffer rewrite, kept
   verbatim as the differential oracle's reference.  It allocates a fresh
   generator matrix for every layer and visits every term of every row;
   the library kernel must return the same analysis bit for bit. *)

module Vec = Ivan_tensor.Vec
module Mat = Ivan_tensor.Mat
module Network = Ivan_nn.Network
module Layer = Ivan_nn.Layer
module Relu_id = Ivan_nn.Relu_id
module Box = Ivan_spec.Box
module Bounds = Ivan_domains.Bounds
module Splits = Ivan_domains.Splits
open Ivan_domains.Zonotope

exception Empty_region

(* Interval concretization of an affine form. *)
let form_radius gen = Array.fold_left (fun acc g -> acc +. Float.abs g) 0.0 gen

let form_itv center gen =
  let r = form_radius gen in
  (center -. r, center +. r)

(* Affine image: given per-neuron (center, gen) of the previous layer,
   compute the same for W x + b.  Hot path: raw weight rows, structural
   zeros skipped. *)
let affine_image w b centers gens nterms =
  let rows = Mat.rows w and cols = Mat.cols w in
  let out_centers = Array.make rows 0.0 in
  let out_gens = Array.init rows (fun _ -> Array.make nterms 0.0) in
  for i = 0 to rows - 1 do
    let wrow = Mat.row w i in
    let acc = ref b.(i) in
    let row_gen = out_gens.(i) in
    for j = 0 to cols - 1 do
      let wij = wrow.(j) in
      if wij <> 0.0 then begin
        acc := !acc +. (wij *. centers.(j));
        let g = gens.(j) in
        for t = 0 to nterms - 1 do
          let gt = g.(t) in
          if gt <> 0.0 then row_gen.(t) <- row_gen.(t) +. (wij *. gt)
        done
      end
    done;
    out_centers.(i) <- !acc
  done;
  (out_centers, out_gens)

let analyze net ~box ~splits =
  let d = Box.dim box in
  if d <> Network.input_dim net then invalid_arg "Zonotope.analyze: box dimension mismatch";
  (* Input forms: x_j = mid_j + rad_j * eps_j. *)
  let centers = ref (Array.init d (fun j -> 0.5 *. (Box.lo_at box j +. Box.hi_at box j))) in
  let gens =
    ref
      (Array.init d (fun j ->
           let g = Array.make d 0.0 in
           g.(j) <- 0.5 *. Box.width box j;
           g))
  in
  let nterms = ref d in
  let relu_terms = ref Relu_id.Map.empty in
  let layers = Network.layers net in
  let bounds_layers = Array.make (Array.length layers) None in
  try
    Array.iteri
      (fun li layer ->
        let w, b = Layer.dense_affine layer in
        let pre_centers, pre_gens = affine_image w b !centers !gens !nterms in
        let dim = Array.length pre_centers in
        let pre_lo = Array.make dim 0.0 and pre_hi = Array.make dim 0.0 in
        for idx = 0 to dim - 1 do
          let lo, hi = form_itv pre_centers.(idx) pre_gens.(idx) in
          pre_lo.(idx) <- lo;
          pre_hi.(idx) <- hi
        done;
        match Layer.classify (Layer.activation layer) with
        | Layer.Linear_activation ->
            bounds_layers.(li) <-
              Some
                {
                  Bounds.pre_lo;
                  pre_hi;
                  post_lo = Array.copy pre_lo;
                  post_hi = Array.copy pre_hi;
                };
            centers := pre_centers;
            gens := pre_gens
        | Layer.Smooth { f; df } ->
            (* Minimal parallelogram for a monotone S-shaped function:
               slope min(f'(l), f'(u)) keeps f(x) - lambda*x
               nondecreasing, so its range is the endpoint image.  One
               fresh symbol per neuron. *)
            let nterms' = !nterms + dim in
            let post_centers = Array.make dim 0.0 in
            let post_gens = Array.init dim (fun _ -> Array.make nterms' 0.0) in
            let post_lo = Array.make dim 0.0 and post_hi = Array.make dim 0.0 in
            for idx = 0 to dim - 1 do
              let l = pre_lo.(idx) and u = pre_hi.(idx) in
              let lambda = Float.min (df l) (df u) in
              let g_lo = f l -. (lambda *. l) and g_hi = f u -. (lambda *. u) in
              let mid = 0.5 *. (g_lo +. g_hi) and rad = 0.5 *. (g_hi -. g_lo) in
              post_centers.(idx) <- (lambda *. pre_centers.(idx)) +. mid;
              let g = post_gens.(idx) and pg = pre_gens.(idx) in
              for t = 0 to !nterms - 1 do
                g.(t) <- lambda *. pg.(t)
              done;
              g.(!nterms + idx) <- rad;
              let lo, hi = form_itv post_centers.(idx) post_gens.(idx) in
              post_lo.(idx) <- Float.max lo (f l);
              post_hi.(idx) <- Float.min hi (f u)
            done;
            bounds_layers.(li) <- Some { Bounds.pre_lo; pre_hi; post_lo; post_hi };
            centers := post_centers;
            gens := post_gens;
            nterms := nterms'
        | Layer.Piecewise slope ->
            (* Classify neurons, checking split phases and counting the
               fresh noise symbols needed.  [`Linear s]: the activation
               acts as y = s*x on the neuron's (possibly phase-refined)
               range. *)
            let kind = Array.make dim (`Linear 1.0) in
            let fresh = ref 0 in
            for idx = 0 to dim - 1 do
              let phase = Splits.find (Relu_id.make ~layer:li ~index:idx) splits in
              (match phase with
              | Some Splits.Pos ->
                  if pre_hi.(idx) < 0.0 then raise Empty_region;
                  pre_lo.(idx) <- Float.max 0.0 pre_lo.(idx);
                  kind.(idx) <- `Linear 1.0
              | Some Splits.Neg ->
                  if pre_lo.(idx) > 0.0 then raise Empty_region;
                  pre_hi.(idx) <- Float.min 0.0 pre_hi.(idx);
                  kind.(idx) <- `Linear slope
              | None ->
                  if pre_lo.(idx) >= 0.0 then kind.(idx) <- `Linear 1.0
                  else if pre_hi.(idx) <= 0.0 then kind.(idx) <- `Linear slope
                  else begin
                    kind.(idx) <- `Ambiguous !fresh;
                    incr fresh
                  end)
            done;
            let nterms' = !nterms + !fresh in
            let post_centers = Array.make dim 0.0 in
            let post_gens = Array.init dim (fun _ -> Array.make nterms' 0.0) in
            let post_lo = Array.make dim 0.0 and post_hi = Array.make dim 0.0 in
            let act v = if v >= 0.0 then v else slope *. v in
            for idx = 0 to dim - 1 do
              (match kind.(idx) with
              | `Linear s ->
                  post_centers.(idx) <- s *. pre_centers.(idx);
                  let g = post_gens.(idx) and pg = pre_gens.(idx) in
                  for t = 0 to !nterms - 1 do
                    g.(t) <- s *. pg.(t)
                  done
              | `Ambiguous k ->
                  (* Minimal-area parallelogram for the two-piece
                     activation: chord slope lambda through the
                     endpoints, vertical half-width mu. *)
                  let lb = pre_lo.(idx) and ub = pre_hi.(idx) in
                  let lambda = (ub -. (slope *. lb)) /. (ub -. lb) in
                  let mu = (1.0 -. slope) *. ub *. -.lb /. (ub -. lb) /. 2.0 in
                  post_centers.(idx) <- (lambda *. pre_centers.(idx)) +. mu;
                  let g = post_gens.(idx) in
                  let pg = pre_gens.(idx) in
                  for t = 0 to !nterms - 1 do
                    g.(t) <- lambda *. pg.(t)
                  done;
                  g.(!nterms + k) <- mu;
                  relu_terms :=
                    Relu_id.Map.add (Relu_id.make ~layer:li ~index:idx) (!nterms + k) !relu_terms);
              let lo, hi = form_itv post_centers.(idx) post_gens.(idx) in
              (* The exact post-activation range is also within the
                 activation image of the pre bounds; meet the two. *)
              post_lo.(idx) <- Float.max lo (act pre_lo.(idx));
              post_hi.(idx) <- Float.min hi (act pre_hi.(idx))
            done;
            bounds_layers.(li) <- Some { Bounds.pre_lo; pre_hi; post_lo; post_hi };
            centers := post_centers;
            gens := post_gens;
            nterms := nterms')
      layers;
    let layers_bounds = Array.map (function Some l -> l | None -> assert false) bounds_layers in
    Feasible
      {
        bounds = { Bounds.layers = layers_bounds };
        output_center = !centers;
        output_gen = !gens;
        relu_terms = !relu_terms;
        nterms = !nterms;
        input_box = box;
      }
  with Empty_region -> Infeasible
