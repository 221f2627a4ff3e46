(* Differential oracle for the zonotope kernel: on random networks,
   boxes and splits, [Zonotope.analyze] must return exactly what
   {!Reference.analyze} returns, down to the bit pattern of every
   float. *)

module Rng = Ivan_tensor.Rng
module Layer = Ivan_nn.Layer
module Network = Ivan_nn.Network
module Builder = Ivan_nn.Builder
module Quant = Ivan_nn.Quant
module Relu_id = Ivan_nn.Relu_id
module Box = Ivan_spec.Box
module Bounds = Ivan_domains.Bounds
module Splits = Ivan_domains.Splits
module Zonotope = Ivan_domains.Zonotope

(* Seed of the random state both the tier-1 slice and the long run draw
   their cases from. *)
let seed = 10

(* Cases in the tier-1 slice; [dune build @zonotope-oracle] runs 20x. *)
let tier1_count = 500

let pick rng a = a.(Rng.int rng (Array.length a))

let with_activation act l = Layer.make (Layer.affine l) act

(* A dense or conv ReLU net, then one of four families: kept as is,
   leaky hidden layers, sigmoid/tanh hidden layers, or any activation
   per layer (identity included).  Sometimes the output layer gets a
   piecewise activation too, so the output forms come out of an
   activation transformer. *)
let random_net rng =
  let width () = 1 + Rng.int rng 16 in
  let outputs = width () in
  let base =
    if Rng.int rng 4 = 0 then
      let out_channels = 1 + Rng.int rng 3 in
      let stride = 1 + Rng.int rng 2 in
      let in_channels = 1 + Rng.int rng 2 in
      let hidden = width () in
      Builder.conv_net ~rng ~in_channels ~in_height:4 ~in_width:4
        ~convs:[ { Builder.out_channels; kernel = 3; stride; padding = 1 } ]
        ~dense:[ hidden; outputs ]
    else
      let hidden = List.init (1 + Rng.int rng 4) (fun _ -> width ()) in
      Builder.dense_net ~rng ~dims:((1 + Rng.int rng 6) :: (hidden @ [ outputs ]))
  in
  let layers = Array.to_list (Network.layers base) in
  let last = List.length layers - 1 in
  let leaky () = Layer.Leaky_relu (0.05 +. Rng.float rng 0.9) in
  let hidden_act =
    match Rng.int rng 4 with
    | 0 -> fun () -> Layer.Relu
    | 1 -> leaky
    | 2 -> fun () -> pick rng [| Layer.Sigmoid; Layer.Tanh |]
    | _ ->
        fun () -> pick rng [| Layer.Relu; Layer.Identity; leaky (); Layer.Sigmoid; Layer.Tanh |]
  in
  let output_act =
    if Rng.int rng 4 = 0 then pick rng [| Layer.Relu; leaky () |] else Layer.Identity
  in
  let net =
    Network.make
      (List.mapi
         (fun i l -> with_activation (if i = last then output_act else hidden_act ()) l)
         layers)
  in
  (* Exact zeros in weights and biases: int8 rounding, or a threshold
     that keeps the sign of what it zeroes. *)
  match Rng.int rng 3 with
  | 0 -> Quant.network Quant.Int8 net
  | 1 ->
      let threshold = Rng.float rng 0.5 in
      Network.map_weights
        (fun w -> if Float.abs w < threshold then Float.copy_sign 0.0 w else w)
        net
  | _ -> net

(* A box around a point in [-1, 1]^d; some dimensions have zero width. *)
let random_box rng d =
  let scale = pick rng [| 0.01; 0.1; 1.0 |] in
  let center = Array.init d (fun _ -> Rng.uniform rng (-1.0) 1.0) in
  let radius = Array.init d (fun _ -> if Rng.int rng 5 = 0 then 0.0 else Rng.float rng scale) in
  Box.make
    ~lo:(Array.mapi (fun j c -> c -. radius.(j)) center)
    ~hi:(Array.mapi (fun j c -> c +. radius.(j)) center)

(* No splits, or a random subset of the root-ambiguous units, sometimes
   with one arbitrary unit (often fixing it against its bounds, which
   empties the region). *)
let random_splits rng net box =
  let phase () = if Rng.bool rng then Splits.Pos else Splits.Neg in
  let add splits r = if Splits.mem r splits then splits else Splits.add r (phase ()) splits in
  if Network.num_relus net = 0 || Rng.int rng 3 = 0 then Splits.empty
  else
    let ambiguous =
      match Reference.analyze net ~box ~splits:Splits.empty with
      | Zonotope.Infeasible -> []
      | Zonotope.Feasible a -> Bounds.ambiguous_relus a.Zonotope.bounds net ~splits:Splits.empty
    in
    let splits =
      List.fold_left (fun s r -> if Rng.bool rng then add s r else s) Splits.empty ambiguous
    in
    if Rng.int rng 5 = 0 then add splits (pick rng (Network.relu_ids net)) else splits

let case seed =
  let rng = Rng.create seed in
  let net = random_net rng in
  let box = random_box rng (Network.input_dim net) in
  (net, box, random_splits rng net box)

let bits_equal a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)) a b

let same_layer (x : Bounds.layer) (y : Bounds.layer) =
  bits_equal x.pre_lo y.pre_lo && bits_equal x.pre_hi y.pre_hi && bits_equal x.post_lo y.post_lo
  && bits_equal x.post_hi y.post_hi

let same_analysis (a : Zonotope.analysis) (b : Zonotope.analysis) =
  let la = a.bounds.Bounds.layers and lb = b.bounds.Bounds.layers in
  Array.length la = Array.length lb
  && Array.for_all2 same_layer la lb
  && bits_equal a.output_center b.output_center
  && Array.length a.output_gen = Array.length b.output_gen
  && Array.for_all2 bits_equal a.output_gen b.output_gen
  && Relu_id.Map.equal Int.equal a.relu_terms b.relu_terms
  && a.nterms = b.nterms
  && Box.equal ~eps:0.0 a.input_box b.input_box

let same r r' =
  match (r, r') with
  | Zonotope.Infeasible, Zonotope.Infeasible -> true
  | Zonotope.Feasible a, Zonotope.Feasible b -> same_analysis a b
  | Zonotope.Feasible _, Zonotope.Infeasible | Zonotope.Infeasible, Zonotope.Feasible _ -> false

let property ~name ~count case =
  QCheck.Test.make ~name ~count
    QCheck.(make ~print:(Printf.sprintf "case seed %d") Gen.(int_bound 1_000_000_000))
    (fun seed ->
      let net, box, splits = case seed in
      same (Reference.analyze net ~box ~splits) (Zonotope.analyze net ~box ~splits))

let test ~count = property ~name:"zonotope kernel matches the reference bit for bit" ~count case

(* Seed of the wide property's random state. *)
let wide_seed = 11

(* Cases in the wide property's tier-1 slice; the long run takes 20x. *)
let wide_tier1_count = 200

(* Hidden layers 17-64 units wide, so the kernel folds source rows in
   groups of 8 and 4 as well as singly.  A third of the root-ambiguous
   ReLUs are split Neg and some Pos: Neg rows have an all-zero prefix
   and drop out of the middle of a group. *)
let wide_case seed =
  let rng = Rng.create seed in
  let width () = 17 + Rng.int rng 48 in
  let hidden = List.init (2 + Rng.int rng 2) (fun _ -> width ()) in
  let dims = ((1 + Rng.int rng 8) :: hidden) @ [ 1 + Rng.int rng 8 ] in
  let net = Builder.dense_net ~rng ~dims in
  let net =
    if Rng.int rng 3 = 0 then
      let threshold = Rng.float rng 0.2 in
      Network.map_weights
        (fun w -> if Float.abs w < threshold then Float.copy_sign 0.0 w else w)
        net
    else net
  in
  let box = random_box rng (Network.input_dim net) in
  let splits =
    match Reference.analyze net ~box ~splits:Splits.empty with
    | Zonotope.Infeasible -> Splits.empty
    | Zonotope.Feasible a ->
        List.fold_left
          (fun s r ->
            match Rng.int rng 6 with
            | 0 | 1 -> Splits.add r Splits.Neg s
            | 2 -> Splits.add r Splits.Pos s
            | _ -> s)
          Splits.empty
          (Bounds.ambiguous_relus a.Zonotope.bounds net ~splits:Splits.empty)
  in
  (net, box, splits)

let wide_test ~count =
  property ~name:"wide zonotope layers match the reference bit for bit" ~count wide_case
