(* The DeepPoly kernel as it stood before dense symbolic rows were
   fused, kept verbatim as the differential oracle's reference.  Its
   back-substitution walks every symbolic row one at a time over that
   row's nonzero entries, and its evaluation reads the box one entry at
   a time; the library kernel must return the same bounds bit for bit. *)

module Bounds = Ivan_domains.Bounds
module Splits = Ivan_domains.Splits
module Itv = Ivan_domains.Itv

module Vec = Ivan_tensor.Vec
module Mat = Ivan_tensor.Mat
module Network = Ivan_nn.Network
module Layer = Ivan_nn.Layer
module Relu_id = Ivan_nn.Relu_id
module Box = Ivan_spec.Box

(* Symbolic post-activation bounds of one layer, expressed over the
   previous layer's post-activations (the input for layer 0):
   lw x + lb <= post <= uw x + ub, row per neuron.  Stored as raw row
   arrays — this module is the analyzer stack's hot path.  Each row
   carries the indices of its nonzero entries ([lnz], [unz]), so
   back-substitution walks only those: conv-lowered rows are mostly
   structural zeros. *)
type sym = {
  lw : float array array;
  lnz : int array array;
  lconst : Vec.t;
  uw : float array array;
  unz : int array array;
  uconst : Vec.t;
}

(* Indices of a row's nonzero entries, in increasing order. *)
let nonzeros row =
  let count = ref 0 in
  for p = 0 to Array.length row - 1 do
    if row.(p) <> 0.0 then incr count
  done;
  let nz = Array.make !count 0 in
  let k = ref 0 in
  for p = 0 to Array.length row - 1 do
    if row.(p) <> 0.0 then begin
      nz.(!k) <- p;
      incr k
    end
  done;
  nz

let make_sym ~lw ~lconst ~uw ~uconst =
  let lnz = Array.map nonzeros lw in
  let unz = if lw == uw then lnz else Array.map nonzeros uw in
  { lw; lnz; lconst; uw; unz; uconst }

type analysis = { syms : sym array; bounds : Bounds.t; box : Box.t }

type result = Feasible of analysis | Infeasible

exception Empty_region

(* One back-substitution step: rewrite the expression rows (w, c) over
   layer [k]'s posts into rows over layer [k-1]'s posts using layer
   [k]'s symbolic bounds.  [lower] selects which bound a positive
   coefficient takes.  Only the nonzero entries of each symbolic row are
   visited: a zero entry adds nothing, so skipping it leaves the bounds
   bit-identical. *)
let step ~lower sym w c =
  let rows = Array.length w in
  let inner = Array.length sym.lw in
  let prev = if inner = 0 then 0 else Array.length sym.lw.(0) in
  let w' = Array.make_matrix rows prev 0.0 in
  let c' = Array.copy c in
  for r = 0 to rows - 1 do
    let wr = w.(r) in
    let wr' = w'.(r) in
    for j = 0 to inner - 1 do
      let coeff = wr.(j) in
      if coeff <> 0.0 then begin
        let take_lower = if lower then coeff > 0.0 else coeff < 0.0 in
        let srow = if take_lower then sym.lw.(j) else sym.uw.(j) in
        let snz = if take_lower then sym.lnz.(j) else sym.unz.(j) in
        let sconst = if take_lower then sym.lconst.(j) else sym.uconst.(j) in
        c'.(r) <- c'.(r) +. (coeff *. sconst);
        for q = 0 to Array.length snz - 1 do
          let p = snz.(q) in
          wr'.(p) <- wr'.(p) +. (coeff *. srow.(p))
        done
      end
    done
  done;
  (w', c')

(* Evaluate an input-level expression over the box. *)
let eval ~lower box w c =
  Array.init (Array.length w) (fun r ->
      let wr = w.(r) in
      let acc = ref c.(r) in
      for j = 0 to Array.length wr - 1 do
        let coeff = wr.(j) in
        if coeff <> 0.0 then
          let take_lo = if lower then coeff >= 0.0 else coeff < 0.0 in
          acc := !acc +. (coeff *. if take_lo then Box.lo_at box j else Box.hi_at box j)
      done;
      !acc)

(* Concrete bounds of an expression over layer [upto - 1]'s posts (or
   the input if [upto = 0]), back-substituting through syms. *)
let backsub ~lower syms box ~upto w c =
  let w = ref w and c = ref c in
  for k = upto - 1 downto 0 do
    let w', c' = step ~lower syms.(k) !w !c in
    w := w';
    c := c'
  done;
  eval ~lower box !w !c

let backsub_lower syms box ~upto w c = backsub ~lower:true syms box ~upto w c

let backsub_upper syms box ~upto w c = backsub ~lower:false syms box ~upto w c

let rows_of_mat m = Array.init (Mat.rows m) (fun i -> Mat.row m i)

let analyze net ~box ~splits =
  if Box.dim box <> Network.input_dim net then
    invalid_arg "Deeppoly.analyze: box dimension mismatch";
  let layers = Network.layers net in
  let count = Array.length layers in
  let syms = Array.make count (make_sym ~lw:[||] ~lconst:[||] ~uw:[||] ~uconst:[||]) in
  let bounds_layers = Array.make count None in
  try
    for li = 0 to count - 1 do
      let wm, b = Network.layer_dense net li in
      let w = rows_of_mat wm in
      let dim = Array.length w in
      let cols = Mat.cols wm in
      (* Concrete pre-activation bounds by back-substitution. *)
      let pre_lo = backsub_lower syms box ~upto:li w b in
      let pre_hi = backsub_upper syms box ~upto:li w b in
      match Layer.classify (Layer.activation layers.(li)) with
      | Layer.Linear_activation ->
          syms.(li) <- make_sym ~lw:w ~lconst:b ~uw:w ~uconst:b;
          bounds_layers.(li) <-
            Some
              {
                Bounds.pre_lo;
                pre_hi;
                post_lo = Array.copy pre_lo;
                post_hi = Array.copy pre_hi;
              }
      | Layer.Smooth { f; df } ->
          (* Two parallel lines of slope min(f'(l), f'(u)) sandwich a
             monotone S-shaped activation on [l, u]. *)
          let lw = Array.make_matrix dim cols 0.0 in
          let uw = Array.make_matrix dim cols 0.0 in
          let lconst = Array.make dim 0.0 in
          let uconst = Array.make dim 0.0 in
          let post_lo = Array.make dim 0.0 and post_hi = Array.make dim 0.0 in
          for idx = 0 to dim - 1 do
            let l = pre_lo.(idx) and u = pre_hi.(idx) in
            let lambda = Float.min (df l) (df u) in
            let wrow = w.(idx) in
            let scale target trow_const const_add =
              let trow = target.(idx) in
              for p = 0 to cols - 1 do
                trow.(p) <- lambda *. wrow.(p)
              done;
              trow_const.(idx) <- (lambda *. b.(idx)) +. const_add
            in
            scale lw lconst (f l -. (lambda *. l));
            scale uw uconst (f u -. (lambda *. u));
            post_lo.(idx) <- f l;
            post_hi.(idx) <- f u
          done;
          syms.(li) <- make_sym ~lw ~lconst ~uw ~uconst;
          bounds_layers.(li) <- Some { Bounds.pre_lo; pre_hi; post_lo; post_hi }
      | Layer.Piecewise slope ->
          (* Per-neuron activation relaxation slopes; the symbolic bound
             of the post in terms of the PREVIOUS layer composes the
             relaxation with the affine row.  [slope] is the
             activation's negative-side slope (0 for ReLU). *)
          let lw = Array.make_matrix dim cols 0.0 in
          let uw = Array.make_matrix dim cols 0.0 in
          let lconst = Array.make dim 0.0 in
          let uconst = Array.make dim 0.0 in
          let post_lo = Array.make dim 0.0 and post_hi = Array.make dim 0.0 in
          let act v = if v >= 0.0 then v else slope *. v in
          for idx = 0 to dim - 1 do
            let phase = Splits.find (Relu_id.make ~layer:li ~index:idx) splits in
            let lb = pre_lo.(idx) and ub = pre_hi.(idx) in
            let wrow = w.(idx) in
            let copy_row ~scale target const_arr const_add =
              let trow = target.(idx) in
              for p = 0 to cols - 1 do
                trow.(p) <- scale *. wrow.(p)
              done;
              const_arr.(idx) <- (scale *. b.(idx)) +. const_add
            in
            (* Both bounds are the exact line y = s*x. *)
            let linear s =
              copy_row ~scale:s lw lconst 0.0;
              copy_row ~scale:s uw uconst 0.0
            in
            match phase with
            | Some Splits.Pos ->
                if ub < 0.0 then raise Empty_region;
                pre_lo.(idx) <- Float.max 0.0 lb;
                linear 1.0;
                post_lo.(idx) <- pre_lo.(idx);
                post_hi.(idx) <- ub
            | Some Splits.Neg ->
                if lb > 0.0 then raise Empty_region;
                pre_hi.(idx) <- Float.min 0.0 ub;
                linear slope;
                post_lo.(idx) <- slope *. lb;
                post_hi.(idx) <- slope *. pre_hi.(idx)
            | None ->
                if lb >= 0.0 then begin
                  linear 1.0;
                  post_lo.(idx) <- lb;
                  post_hi.(idx) <- ub
                end
                else if ub <= 0.0 then begin
                  linear slope;
                  post_lo.(idx) <- slope *. lb;
                  post_hi.(idx) <- slope *. ub
                end
                else begin
                  (* Ambiguous: upper chord through the endpoints, lower
                     slope by min-area between the two exact pieces. *)
                  let lambda_u = (ub -. (slope *. lb)) /. (ub -. lb) in
                  let mu_u = lb *. (slope -. lambda_u) in
                  copy_row ~scale:lambda_u uw uconst mu_u;
                  let lambda_l = if ub >= -.lb then 1.0 else slope in
                  copy_row ~scale:lambda_l lw lconst 0.0;
                  post_lo.(idx) <- act lb;
                  post_hi.(idx) <- ub
                end
          done;
          syms.(li) <- make_sym ~lw ~lconst ~uw ~uconst;
          bounds_layers.(li) <- Some { Bounds.pre_lo; pre_hi; post_lo; post_hi }
    done;
    let layers_bounds = Array.map (function Some l -> l | None -> assert false) bounds_layers in
    Feasible { syms; bounds = { Bounds.layers = layers_bounds }; box }
  with Empty_region -> Infeasible

let bounds a = a.bounds

let objective_itv a ~c ~offset =
  let count = Array.length a.syms in
  let row = [| Vec.copy c |] in
  let const = [| offset |] in
  let lo = backsub_lower a.syms a.box ~upto:count row const in
  let hi = backsub_upper a.syms a.box ~upto:count row const in
  Itv.make lo.(0) hi.(0)
