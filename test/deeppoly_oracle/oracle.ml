(* Differential oracle for the DeepPoly kernel: on random networks,
   boxes, splits and objectives, [Deeppoly.analyze] must return exactly
   the bounds {!Reference.analyze} returns, and [Deeppoly.objective_itv]
   exactly {!Reference.objective_itv}, down to the bit pattern of every
   float.  Networks and boxes come from the zonotope oracle's
   generators: dense and conv ReLU nets, leaky and sigmoid/tanh hidden
   layers, exact zero weights, boxes with zero-width dimensions.  A
   second property runs [Deeppoly.analyze ~parent], as a BaB child
   resumes from its parent, against the reference's run from scratch. *)

module Rng = Ivan_tensor.Rng
module Network = Ivan_nn.Network
module Bounds = Ivan_domains.Bounds
module Splits = Ivan_domains.Splits
module Itv = Ivan_domains.Itv
module Deeppoly = Ivan_domains.Deeppoly
module Zo = Zonotope_oracle.Oracle

(* Seed of the random state both the tier-1 slice and the long run draw
   their cases from. *)
let seed = 12

(* Cases in the tier-1 slice; [dune build @deeppoly-oracle] runs 20x. *)
let tier1_count = 1000

(* No splits, or a random subset of the units DeepPoly finds ambiguous
   at the root, sometimes with one arbitrary unit (often fixing it
   against its bounds, which empties the region). *)
let phase rng = if Rng.bool rng then Splits.Pos else Splits.Neg

let random_splits rng net box =
  let add splits r = if Splits.mem r splits then splits else Splits.add r (phase rng) splits in
  if Network.num_relus net = 0 || Rng.int rng 3 = 0 then Splits.empty
  else
    let ambiguous =
      match Reference.analyze net ~box ~splits:Splits.empty with
      | Reference.Infeasible -> []
      | Reference.Feasible a -> Bounds.ambiguous_relus (Reference.bounds a) net ~splits:Splits.empty
    in
    let splits =
      List.fold_left (fun s r -> if Rng.bool rng then add s r else s) Splits.empty ambiguous
    in
    if Rng.int rng 5 = 0 then add splits (Zo.pick rng (Network.relu_ids net)) else splits

(* An objective [c . Y + offset] with some zero coefficients. *)
let random_objective rng net =
  let c =
    Array.init (Network.output_dim net) (fun _ ->
        if Rng.int rng 4 = 0 then 0.0 else Rng.uniform rng (-2.0) 2.0)
  in
  (c, Rng.uniform rng (-1.0) 1.0)

let case seed =
  let rng = Rng.create seed in
  let net = Zo.random_net rng in
  let box = Zo.random_box rng (Network.input_dim net) in
  let splits = random_splits rng net box in
  (net, box, splits, random_objective rng net)

let same_itv x y =
  match (x, y) with
  | Ok (x : Itv.t), Ok (y : Itv.t) -> Zo.bits_equal [| x.lo; x.hi |] [| y.lo; y.hi |]
  | Error e, Error e' -> e = e'
  | Ok _, Error _ | Error _, Ok _ -> false

(* [result] is what the reference computes on the same case: the same
   feasibility, every bound and the objective interval bit for bit. *)
let matches_reference net ~box ~splits ~c ~offset result =
  let itv f = try Ok (f ()) with e -> Error e in
  match (Reference.analyze net ~box ~splits, result) with
  | Reference.Infeasible, Deeppoly.Infeasible -> true
  | Reference.Feasible r, Deeppoly.Feasible a ->
      let lr = (Reference.bounds r).Bounds.layers and la = (Deeppoly.bounds a).Bounds.layers in
      Array.length lr = Array.length la
      && Array.for_all2 Zo.same_layer lr la
      && same_itv
           (itv (fun () -> Reference.objective_itv r ~c ~offset))
           (itv (fun () -> Deeppoly.objective_itv a ~c ~offset))
  | Reference.Feasible _, Deeppoly.Infeasible | Reference.Infeasible, Deeppoly.Feasible _ -> false

let seed_arb = QCheck.(make ~print:(Printf.sprintf "case seed %d") Gen.(int_bound 1_000_000_000))

let test ~count =
  QCheck.Test.make ~name:"deeppoly kernel matches the reference bit for bit" ~count seed_arb
    (fun seed ->
      let net, box, splits, (c, offset) = case seed in
      matches_reference net ~box ~splits ~c ~offset (Deeppoly.analyze net ~box ~splits))

(* A BaB child: the case's splits S are the parent's, and the child adds
   one unit r not in S (or nothing, on a net whose every unit S splits).
   One case in five gives the child another box, where the parent must
   not apply. *)
let resume_test ~count =
  QCheck.Test.make ~name:"deeppoly resumed from a parent matches the reference bit for bit" ~count
    seed_arb (fun seed ->
      let net, box, parent_splits, (c, offset) = case seed in
      let rng = Rng.create (seed + 1) in
      match Deeppoly.analyze net ~box ~splits:parent_splits with
      | Deeppoly.Infeasible -> true
      | Deeppoly.Feasible p ->
          let free =
            List.filter
              (fun r -> not (Splits.mem r parent_splits))
              (Array.to_list (Network.relu_ids net))
          in
          let splits =
            match free with
            | [] -> parent_splits
            | _ -> Splits.add (Zo.pick rng (Array.of_list free)) (phase rng) parent_splits
          in
          let box = if Rng.int rng 5 = 0 then Zo.random_box rng (Network.input_dim net) else box in
          matches_reference net ~box ~splits ~c ~offset
            (Deeppoly.analyze ~parent:(Deeppoly.as_parent p) net ~box ~splits))
