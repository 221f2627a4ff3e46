module Vec = Ivan_tensor.Vec
module Mat = Ivan_tensor.Mat
module Network = Ivan_nn.Network
module Layer = Ivan_nn.Layer
module Relu_id = Ivan_nn.Relu_id
module Box = Ivan_spec.Box

(* Symbolic post-activation bounds of one layer, expressed over the
   previous layer's post-activations (the input for layer 0):
   lw x + lb <= post <= uw x + ub, row per neuron.  Stored as raw row
   arrays — this module is the analyzer stack's hot path — indexed
   [side] then neuron, with side 0 the lower bound and 1 the upper, so
   a back-substitution step picks a neuron's row by an index computed
   from a coefficient's sign, not by a branch on it.  Each row carries
   the indices of its nonzero entries ([nz]), so back-substitution walks
   only those: conv-lowered rows are mostly structural zeros.  [dense]
   holds when every row is fully nonzero or all zeros, as in a dense
   layer; back-substitution then folds several rows at a time into each
   output row. *)
type sym = {
  rows : float array array array;
  nz : int array array array;
  const : Vec.t array;
  dense : bool;
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
  let width = if Array.length lw = 0 then 0 else Array.length lw.(0) in
  let full row nz =
    Array.length row = width && (Array.length nz = 0 || Array.length nz = width)
  in
  let dense = Array.for_all2 full lw lnz && Array.for_all2 full uw unz in
  { rows = [| lw; uw |]; nz = [| lnz; unz |]; const = [| lconst; uconst |]; dense }

(* What a run analyzed and the bounds it found: all a child needs to
   resume from it, O(neurons) beyond the shared network and box. *)
type parent = { net : Network.t; box : Box.t; splits : Splits.t; bounds : Bounds.t }

(* [corners] holds the input box's lower and upper corners, indexed by
   [side] like a sym's rows, read once per analysis: under [-opaque]
   every [Box.lo_at] is a cross-library call that boxes its float. *)
type analysis = { syms : sym array; corners : Vec.t array; run : parent }

type result = Feasible of analysis | Infeasible

exception Empty_region

(* The side a nonzero coefficient takes: the lower row or corner (0)
   when [s *. coeff > 0.0], the upper one (1) otherwise, with [s = 1]
   for a lower bound and [-1] for an upper one.  Selected by index, not
   by a branch: signs are random, so a branch on them mispredicts. *)
let side s coeff = Bool.to_int (not (s *. coeff > 0.0))

let sign ~lower = if lower then 1.0 else -1.0

(* One back-substitution step: rewrite the expression rows (w, c) over
   layer [k]'s posts into rows over layer [k-1]'s posts using layer
   [k]'s symbolic bounds.  [lower] selects which bound a positive
   coefficient takes.  Each output entry sums [coeff_j * row_j] over the
   symbolic rows [j] with a nonzero coefficient, in increasing [j] from
   +0.  A sparse symbolic layer is walked row by row over each row's
   nonzero entries only: a zero entry would add a signed zero, which
   leaves an accumulator that starts at +0 bit-identical.  A dense one
   first gathers the contributing nonempty rows, then folds them into
   the output row 4 at a time, one pass per group with the entry held
   in a local, and the remainder singly: the same additions in the same
   order. *)
let step ~lower sym w c =
  let rows = Array.length w in
  let inner = Array.length sym.rows.(0) in
  let prev = if inner = 0 then 0 else Array.length sym.rows.(0).(0) in
  let w' = Array.make_matrix rows prev 0.0 in
  let c' = Array.copy c in
  let coeffs = Array.make (if sym.dense then inner else 0) 0.0 in
  let srows = Array.make (Array.length coeffs) [||] in
  let s = sign ~lower in
  for r = 0 to rows - 1 do
    let wr = w.(r) in
    let wr' = w'.(r) in
    let n = ref 0 in
    for j = 0 to inner - 1 do
      let coeff = wr.(j) in
      if coeff <> 0.0 then begin
        let k = side s coeff in
        let srow = sym.rows.(k).(j) and snz = sym.nz.(k).(j) in
        c'.(r) <- c'.(r) +. (coeff *. sym.const.(k).(j));
        if sym.dense then begin
          (* Written always, kept only for a nonempty row. *)
          coeffs.(!n) <- coeff;
          srows.(!n) <- srow;
          n := !n + Bool.to_int (Array.length snz > 0)
        end
        else
          for q = 0 to Array.length snz - 1 do
            let p = snz.(q) in
            wr'.(p) <- wr'.(p) +. (coeff *. srow.(p))
          done
      end
    done;
    (* Dense rows, gathered: every one is [prev] long, so the loops
       below index without bounds checks. *)
    let n = !n and k = ref 0 in
    while !k + 4 <= n do
      let g = !k in
      let a0 = coeffs.(g) and a1 = coeffs.(g + 1) and a2 = coeffs.(g + 2) in
      let a3 = coeffs.(g + 3) in
      let r0 = srows.(g) and r1 = srows.(g + 1) and r2 = srows.(g + 2) and r3 = srows.(g + 3) in
      for p = 0 to prev - 1 do
        let v = Array.unsafe_get wr' p +. (a0 *. Array.unsafe_get r0 p) in
        let v = v +. (a1 *. Array.unsafe_get r1 p) in
        let v = v +. (a2 *. Array.unsafe_get r2 p) in
        Array.unsafe_set wr' p (v +. (a3 *. Array.unsafe_get r3 p))
      done;
      k := g + 4
    done;
    for g = !k to n - 1 do
      let a = coeffs.(g) and row = srows.(g) in
      for p = 0 to prev - 1 do
        Array.unsafe_set wr' p (Array.unsafe_get wr' p +. (a *. Array.unsafe_get row p))
      done
    done
  done;
  (w', c')

(* Evaluate an input-level expression over the box with the given
   corners: a coefficient takes the corner on its [side]. *)
let eval ~lower corners w c =
  let s = sign ~lower in
  Array.init (Array.length w) (fun r ->
      let wr = w.(r) in
      let acc = ref c.(r) in
      for j = 0 to Array.length wr - 1 do
        let coeff = wr.(j) in
        if coeff <> 0.0 then acc := !acc +. (coeff *. corners.(side s coeff).(j))
      done;
      !acc)

(* Concrete bounds of an expression over layer [upto - 1]'s posts (or
   the input if [upto = 0]), back-substituting through syms. *)
let backsub ~lower syms corners ~upto w c =
  let w = ref w and c = ref c in
  for k = upto - 1 downto 0 do
    let w', c' = step ~lower syms.(k) !w !c in
    w := w';
    c := c'
  done;
  eval ~lower corners !w !c

let backsub_lower syms corners ~upto w c = backsub ~lower:true syms corners ~upto w c

let backsub_upper syms corners ~upto w c = backsub ~lower:false syms corners ~upto w c

let rows_of_mat m = Array.init (Mat.rows m) (fun i -> Mat.row m i)

let same_bits a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)) a b

(* A split child shares its parent's box; a sub-box under input
   splitting is a new one. *)
let same_box a b = a == b || (same_bits (Box.lo a) (Box.lo b) && same_bits (Box.hi a) (Box.hi b))

(* How many layers, from the input up, a run on [net] over [box] with
   [splits] can take its pre-activation bounds from [p]'s: none unless
   [p] analyzed the same network over a box with bit-equal corners and
   a subset of [splits]; otherwise up to and including the lowest layer
   of the units [splits] adds.  Layer [l]'s pre-activation bounds
   depend only on the syms of layers below [l], which are the same when
   the splits below [l] are. *)
let resumable p net box splits =
  let count = Array.length (Network.layers net) in
  if p.net != net || not (same_box p.box box) then 0
  else
    let lowest = ref count and shared = ref 0 and subset = ref true in
    List.iter
      (fun ((r : Relu_id.t), phase) ->
        match Splits.find r p.splits with
        | None -> lowest := min !lowest r.layer
        | Some q -> if q = phase then incr shared else subset := false)
      (Splits.bindings splits);
    if !subset && !shared = Splits.cardinal p.splits then min count (!lowest + 1) else 0

let analyze ?parent net ~box ~splits =
  if Box.dim box <> Network.input_dim net then
    invalid_arg "Deeppoly.analyze: box dimension mismatch";
  let layers = Network.layers net in
  let count = Array.length layers in
  let corners = [| Box.lo box; Box.hi box |] in
  let resume = match parent with None -> 0 | Some p -> resumable p net box splits in
  let syms = Array.make count (make_sym ~lw:[||] ~lconst:[||] ~uw:[||] ~uconst:[||]) in
  let bounds_layers = Array.make count None in
  try
    for li = 0 to count - 1 do
      let wm, b = Network.layer_dense net li in
      let w = rows_of_mat wm in
      let dim = Array.length w in
      let cols = Mat.cols wm in
      (* Concrete pre-activation bounds: below [resume] the parent's,
         copied because the phase clamps below write them in place
         (they are idempotent, so re-clamping the parent's clamped
         bounds changes nothing); from there on by back-substitution. *)
      let pre_lo, pre_hi =
        match parent with
        | Some p when li < resume ->
            let l = p.bounds.Bounds.layers.(li) in
            (Array.copy l.Bounds.pre_lo, Array.copy l.Bounds.pre_hi)
        | _ ->
            let pre_lo = backsub_lower syms corners ~upto:li w b in
            (pre_lo, backsub_upper syms corners ~upto:li w b)
      in
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
    let bounds = { Bounds.layers = layers_bounds } in
    Feasible { syms; corners; run = { net; box; splits; bounds } }
  with Empty_region -> Infeasible

let bounds a = a.run.bounds

let as_parent a = a.run

let objective_itv a ~c ~offset =
  let count = Array.length a.syms in
  let row = [| Vec.copy c |] in
  let const = [| offset |] in
  let lo = backsub_lower a.syms a.corners ~upto:count row const in
  let hi = backsub_upper a.syms a.corners ~upto:count row const in
  Itv.make lo.(0) hi.(0)
