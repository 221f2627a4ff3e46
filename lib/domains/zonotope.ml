module Vec = Ivan_tensor.Vec
module Mat = Ivan_tensor.Mat
module Network = Ivan_nn.Network
module Layer = Ivan_nn.Layer
module Relu_id = Ivan_nn.Relu_id
module Box = Ivan_spec.Box

type analysis = {
  bounds : Bounds.t;
  output_center : Vec.t;
  output_gen : float array array;
  relu_terms : int Relu_id.Map.t;
  nterms : int;
  input_box : Box.t;
}

type result = Feasible of analysis | Infeasible

exception Empty_region

(* Interval concretization of an affine form: the radius of the [len]
   terms stored from [data.(base)]. *)
let radius data base len =
  let acc = ref 0.0 in
  for t = base to base + len - 1 do
    acc := !acc +. Float.abs data.(t)
  done;
  !acc

(* The affine forms of one layer's neurons.  Row [i] is a dense prefix,
   its coefficients of [eps_0 .. eps_(stride - 1)] at
   [data.(i * stride)], plus at most one term past it: the activation
   that produced the rows gave each unit its own fresh term, so row [i]
   holds [fresh_coeff.(i)] on [eps_(fresh.(i))] ([fresh.(i) = -1] and
   [fresh_coeff.(i) = 0.] if none) and zeros on the rest of that block.
   [zero.(i)] marks a row whose prefix is all zeros (a unit fixed at
   slope 0). *)
type forms = {
  centers : float array;
  data : float array;
  stride : int;
  fresh : int array;
  fresh_coeff : float array;
  zero : bool array;
}

(* Affine image [W x + b] of [src], written densely over its [nterms]
   terms to the first [rows * nterms] entries of [data] ([wrow] holds a
   weight row).  Each entry sums [w_ij * g_j] over [j] in increasing
   order from +0, as a dense product would; the terms it skips are exact
   zeros of [src], and adding a signed zero to an accumulator that
   starts at +0 changes no bit, so the result is the dense product's bit
   for bit.  A destination row's contributing source rows are gathered
   first (compacted into the front of [wrow], their offsets into
   [sbases]), then folded into the row's prefix 8, 4 or 1 at a time:
   one pass per group, the entry held in a local, the rows still added
   in increasing [j].  Fresh terms lie past the prefix, one per source
   row, so each gets its single product as it is gathered. *)
let affine_image w b (src : forms) ~nterms data ~wrow =
  let rows = Mat.rows w and cols = Mat.cols w in
  let sdata = src.data and prefix = src.stride in
  (* The prefix loops below index without bounds checks; this is the
     condition that keeps every index in range. *)
  if prefix > nterms || rows * nterms > Array.length data || cols * prefix > Array.length sdata
  then invalid_arg "Zonotope.affine_image: buffer too small";
  let centers = Array.make rows 0.0 in
  let sbases = Array.make cols 0 in
  for i = 0 to rows - 1 do
    let base = i * nterms in
    Array.fill data base nterms 0.0;
    Mat.blit_row w i wrow;
    let acc = ref b.(i) in
    let n = ref 0 in
    for j = 0 to cols - 1 do
      let wij = wrow.(j) in
      if wij <> 0.0 then begin
        acc := !acc +. (wij *. src.centers.(j));
        if not src.zero.(j) then begin
          wrow.(!n) <- wij;
          sbases.(!n) <- j * prefix;
          incr n
        end;
        let f = src.fresh.(j) in
        if f >= 0 then data.(base + f) <- data.(base + f) +. (wij *. src.fresh_coeff.(j))
      end
    done;
    centers.(i) <- !acc;
    let n = !n and k = ref 0 in
    while !k + 8 <= n do
      let g = !k in
      let w0 = wrow.(g) and w1 = wrow.(g + 1) and w2 = wrow.(g + 2) and w3 = wrow.(g + 3) in
      let w4 = wrow.(g + 4) and w5 = wrow.(g + 5) and w6 = wrow.(g + 6) and w7 = wrow.(g + 7) in
      let s0 = sbases.(g) and s1 = sbases.(g + 1) and s2 = sbases.(g + 2) in
      let s3 = sbases.(g + 3) and s4 = sbases.(g + 4) and s5 = sbases.(g + 5) in
      let s6 = sbases.(g + 6) and s7 = sbases.(g + 7) in
      for t = 0 to prefix - 1 do
        let v = Array.unsafe_get data (base + t) +. (w0 *. Array.unsafe_get sdata (s0 + t)) in
        let v = v +. (w1 *. Array.unsafe_get sdata (s1 + t)) in
        let v = v +. (w2 *. Array.unsafe_get sdata (s2 + t)) in
        let v = v +. (w3 *. Array.unsafe_get sdata (s3 + t)) in
        let v = v +. (w4 *. Array.unsafe_get sdata (s4 + t)) in
        let v = v +. (w5 *. Array.unsafe_get sdata (s5 + t)) in
        let v = v +. (w6 *. Array.unsafe_get sdata (s6 + t)) in
        Array.unsafe_set data (base + t) (v +. (w7 *. Array.unsafe_get sdata (s7 + t)))
      done;
      k := g + 8
    done;
    if !k + 4 <= n then begin
      let g = !k in
      let w0 = wrow.(g) and w1 = wrow.(g + 1) and w2 = wrow.(g + 2) and w3 = wrow.(g + 3) in
      let s0 = sbases.(g) and s1 = sbases.(g + 1) and s2 = sbases.(g + 2) in
      let s3 = sbases.(g + 3) in
      for t = 0 to prefix - 1 do
        let v = Array.unsafe_get data (base + t) +. (w0 *. Array.unsafe_get sdata (s0 + t)) in
        let v = v +. (w1 *. Array.unsafe_get sdata (s1 + t)) in
        let v = v +. (w2 *. Array.unsafe_get sdata (s2 + t)) in
        Array.unsafe_set data (base + t) (v +. (w3 *. Array.unsafe_get sdata (s3 + t)))
      done;
      k := g + 4
    end;
    for g = !k to n - 1 do
      let wg = wrow.(g) and sg = sbases.(g) in
      for t = 0 to prefix - 1 do
        Array.unsafe_set data (base + t)
          (Array.unsafe_get data (base + t) +. (wg *. Array.unsafe_get sdata (sg + t)))
      done
    done
  done;
  centers

(* Rewrite row [idx]'s [stride] terms in place as [s * x] and return
   whether the scaled row is all zeros. *)
let scale_row data ~stride idx s =
  let zero = ref true in
  for t = idx * stride to ((idx + 1) * stride) - 1 do
    let v = s *. data.(t) in
    data.(t) <- v;
    if v <> 0.0 then zero := false
  done;
  !zero

(* Number of fresh noise terms a layer's activation may add. *)
let fresh_capacity layer =
  match Layer.classify (Layer.activation layer) with
  | Layer.Linear_activation -> 0
  | Layer.Piecewise _ | Layer.Smooth _ -> Layer.output_dim layer

(* Sizes of the two generator buffers.  Layer [li] writes its rows to
   buffer [li mod 2], one per unit, each over at most the input's terms
   and every fresh term the layers before it can add. *)
let buffer_sizes layers d =
  let sizes = [| 0; 0 |] in
  let bound = ref d in
  Array.iteri
    (fun li layer ->
      sizes.(li mod 2) <- max sizes.(li mod 2) (Layer.output_dim layer * !bound);
      bound := !bound + fresh_capacity layer)
    layers;
  sizes

let analyze net ~box ~splits =
  let d = Box.dim box in
  if d <> Network.input_dim net then invalid_arg "Zonotope.analyze: box dimension mismatch";
  let layers = Network.layers net in
  let buffers = Array.map (fun n -> Array.make n 0.0) (buffer_sizes layers d) in
  let wrow = Array.make (Array.fold_left (fun m l -> max m (Layer.input_dim l)) 0 layers) 0.0 in
  (* Input forms: x_j = mid_j + rad_j * eps_j, an empty prefix and one
     fresh term each. *)
  let src =
    ref
      {
        centers = Array.init d (fun j -> 0.5 *. (Box.lo_at box j +. Box.hi_at box j));
        data = [||];
        stride = 0;
        fresh = Array.init d Fun.id;
        fresh_coeff = Array.init d (fun j -> 0.5 *. Box.width box j);
        zero = Array.make d false;
      }
  in
  let nterms = ref d in
  let relu_terms = ref Relu_id.Map.empty in
  let bounds_layers = Array.make (Array.length layers) None in
  try
    Array.iteri
      (fun li layer ->
        let w, b = Layer.dense_affine layer in
        let dim = Mat.rows w in
        let nt = !nterms in
        let data = buffers.(li mod 2) in
        let centers = affine_image w b !src ~nterms:nt data ~wrow in
        let pre_lo = Array.make dim 0.0 and pre_hi = Array.make dim 0.0 in
        for idx = 0 to dim - 1 do
          let r = radius data (idx * nt) nt in
          pre_lo.(idx) <- centers.(idx) -. r;
          pre_hi.(idx) <- centers.(idx) +. r
        done;
        (* The activation rewrites the rows in place and gives unit
           [idx] its fresh term, if any.  The dense row would also hold
           zeros on the rest of the fresh block; they leave the radius
           unchanged. *)
        let fresh = Array.make dim (-1) and fresh_coeff = Array.make dim 0.0 in
        let zero = Array.make dim false in
        let post_radius idx = radius data (idx * nt) nt +. Float.abs fresh_coeff.(idx) in
        (match Layer.classify (Layer.activation layer) with
        | Layer.Linear_activation ->
            bounds_layers.(li) <-
              Some
                {
                  Bounds.pre_lo;
                  pre_hi;
                  post_lo = Array.copy pre_lo;
                  post_hi = Array.copy pre_hi;
                }
        | Layer.Smooth { f; df } ->
            (* Minimal parallelogram for a monotone S-shaped function:
               slope min(f'(l), f'(u)) keeps f(x) - lambda*x
               nondecreasing, so its range is the endpoint image.  One
               fresh symbol per neuron. *)
            nterms := nt + dim;
            let post_lo = Array.make dim 0.0 and post_hi = Array.make dim 0.0 in
            for idx = 0 to dim - 1 do
              let l = pre_lo.(idx) and u = pre_hi.(idx) in
              let lambda = Float.min (df l) (df u) in
              let g_lo = f l -. (lambda *. l) and g_hi = f u -. (lambda *. u) in
              let mid = 0.5 *. (g_lo +. g_hi) and rad = 0.5 *. (g_hi -. g_lo) in
              centers.(idx) <- (lambda *. centers.(idx)) +. mid;
              zero.(idx) <- scale_row data ~stride:nt idx lambda;
              fresh.(idx) <- nt + idx;
              fresh_coeff.(idx) <- rad;
              let r = post_radius idx in
              post_lo.(idx) <- Float.max (centers.(idx) -. r) (f l);
              post_hi.(idx) <- Float.min (centers.(idx) +. r) (f u)
            done;
            bounds_layers.(li) <- Some { Bounds.pre_lo; pre_hi; post_lo; post_hi }
        | Layer.Piecewise slope ->
            (* Classify neurons, checking split phases and counting the
               fresh noise symbols needed.  [`Linear s]: the activation
               acts as y = s*x on the neuron's (possibly phase-refined)
               range. *)
            let kind = Array.make dim (`Linear 1.0) in
            let count = ref 0 in
            for idx = 0 to dim - 1 do
              let phase = Splits.find (Relu_id.make ~layer:li ~index:idx) splits in
              match phase with
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
                    kind.(idx) <- `Ambiguous !count;
                    incr count
                  end
            done;
            nterms := nt + !count;
            let post_lo = Array.make dim 0.0 and post_hi = Array.make dim 0.0 in
            let act v = if v >= 0.0 then v else slope *. v in
            for idx = 0 to dim - 1 do
              (match kind.(idx) with
              | `Linear s ->
                  centers.(idx) <- s *. centers.(idx);
                  zero.(idx) <- scale_row data ~stride:nt idx s
              | `Ambiguous k ->
                  (* Minimal-area parallelogram for the two-piece
                     activation: chord slope lambda through the
                     endpoints, vertical half-width mu. *)
                  let lb = pre_lo.(idx) and ub = pre_hi.(idx) in
                  let lambda = (ub -. (slope *. lb)) /. (ub -. lb) in
                  let mu = (1.0 -. slope) *. ub *. -.lb /. (ub -. lb) /. 2.0 in
                  centers.(idx) <- (lambda *. centers.(idx)) +. mu;
                  zero.(idx) <- scale_row data ~stride:nt idx lambda;
                  fresh.(idx) <- nt + k;
                  fresh_coeff.(idx) <- mu;
                  relu_terms :=
                    Relu_id.Map.add (Relu_id.make ~layer:li ~index:idx) (nt + k) !relu_terms);
              let r = post_radius idx in
              (* The exact post-activation range is also within the
                 activation image of the pre bounds; meet the two. *)
              post_lo.(idx) <- Float.max (centers.(idx) -. r) (act pre_lo.(idx));
              post_hi.(idx) <- Float.min (centers.(idx) +. r) (act pre_hi.(idx))
            done;
            bounds_layers.(li) <- Some { Bounds.pre_lo; pre_hi; post_lo; post_hi });
        src := { centers; data; stride = nt; fresh; fresh_coeff; zero })
      layers;
    let layers_bounds = Array.map (function Some l -> l | None -> assert false) bounds_layers in
    let out = !src in
    let output_gen =
      Array.mapi
        (fun i f ->
          let g = Array.make !nterms 0.0 in
          Array.blit out.data (i * out.stride) g 0 out.stride;
          if f >= 0 then g.(f) <- out.fresh_coeff.(i);
          g)
        out.fresh
    in
    Feasible
      {
        bounds = { Bounds.layers = layers_bounds };
        output_center = out.centers;
        output_gen;
        relu_terms = !relu_terms;
        nterms = !nterms;
        input_box = box;
      }
  with Empty_region -> Infeasible

let objective_coeffs a ~c =
  let obj = Array.make a.nterms 0.0 in
  Array.iteri
    (fun i ci ->
      if ci <> 0.0 then
        let g = a.output_gen.(i) in
        for t = 0 to a.nterms - 1 do
          obj.(t) <- obj.(t) +. (ci *. g.(t))
        done)
    c;
  obj

let objective_itv a ~c ~offset =
  let center = Vec.dot c a.output_center +. offset in
  let r = radius (objective_coeffs a ~c) 0 a.nterms in
  Itv.make (center -. r) (center +. r)

let relu_score_from_coeffs a obj r =
  match Relu_id.Map.find_opt r a.relu_terms with None -> 0.0 | Some t -> Float.abs obj.(t)

let minimizing_input a ~c =
  let obj = objective_coeffs a ~c in
  let d = Box.dim a.input_box in
  Array.init d (fun j ->
      let mid = 0.5 *. (Box.lo_at a.input_box j +. Box.hi_at a.input_box j) in
      let rad = 0.5 *. Box.width a.input_box j in
      if obj.(j) > 0.0 then mid -. rad else if obj.(j) < 0.0 then mid +. rad else mid)
