(* Differential oracle for the persistent encodings.  On a random
   network and property, one {!Encoding.Triangle} and one
   {!Encoding.Milp} are built at the property root and specialized to a
   run of random subproblems (sub-box, splits), as the BaB engine does
   node after node.  The splits cover root-stable units, which make the
   encodings re-encode themselves, and units that are ambiguous at the
   root but stable at the node.  Against the one-shot {!Reference}
   builders, fed each node's own DeepPoly bounds:

   (a) the triangle optimum is at least the reference's (an infeasible
       reference makes the encoding infeasible too);
   (b) the triangle optimum is at most the margin of every sampled
       concrete point of the subproblem (soundness);
   (c) both MILPs are exact, so when both searches finish they agree. *)

module Rng = Ivan_tensor.Rng
module Lp = Ivan_lp.Lp
module Milp = Ivan_lp.Milp
module Layer = Ivan_nn.Layer
module Network = Ivan_nn.Network
module Builder = Ivan_nn.Builder
module Relu_id = Ivan_nn.Relu_id
module Box = Ivan_spec.Box
module Prop = Ivan_spec.Prop
module Splits = Ivan_domains.Splits
module Bounds = Ivan_domains.Bounds
module Deeppoly = Ivan_domains.Deeppoly
module Encoding = Ivan_analyzer.Encoding

(* Seed of the random state both the tier-1 slice and the long run draw
   their cases from. *)
let seed = 12

(* Cases in the tier-1 slice; [dune build @encoding-oracle] runs 20x. *)
let tier1_count = 1000

(* Subproblems the checks ran on, and how many of them exercised each
   situation the oracle is after. *)
type tally = {
  mutable subproblems : int;
  mutable root_stable_splits : int;  (* a split unit is stable at the root *)
  mutable node_stable_splits : int;  (* ... ambiguous at the root, stable at the node *)
  mutable tighter : int;  (* triangle optimum strictly above the reference's *)
  mutable milp_compared : int;
}

let tally =
  {
    subproblems = 0;
    root_stable_splits = 0;
    node_stable_splits = 0;
    tighter = 0;
    milp_compared = 0;
  }

let pick rng a = a.(Rng.int rng (Array.length a))

(* A small dense or conv ReLU net; a quarter get leaky hidden layers and
   a quarter sigmoid/tanh ones (those are checked on the triangle
   only). *)
let random_net rng =
  let width () = 1 + Rng.int rng 8 in
  let outputs = 1 + Rng.int rng 3 in
  let base =
    if Rng.int rng 4 = 0 then
      Builder.conv_net ~rng ~in_channels:1 ~in_height:3 ~in_width:3
        ~convs:
          [
            {
              Builder.out_channels = 1 + Rng.int rng 2;
              kernel = 3;
              stride = 1 + Rng.int rng 2;
              padding = 1;
            };
          ]
        ~dense:[ width (); outputs ]
    else
      let hidden = List.init (1 + Rng.int rng 3) (fun _ -> width ()) in
      Builder.dense_net ~rng ~dims:((1 + Rng.int rng 4) :: (hidden @ [ outputs ]))
  in
  let hidden_act =
    match Rng.int rng 4 with
    | 0 -> fun () -> Some (Layer.Leaky_relu (0.05 +. Rng.float rng 0.9))
    | 1 -> fun () -> Some (pick rng [| Layer.Sigmoid; Layer.Tanh |])
    | _ -> fun () -> None
  in
  let layers = Array.to_list (Network.layers base) in
  let last = List.length layers - 1 in
  Network.make
    (List.mapi
       (fun i l ->
         match if i = last then None else hidden_act () with
         | Some act -> Layer.make (Layer.affine l) act
         | None -> l)
       layers)

let plain_relu net =
  Array.for_all
    (fun l -> match Layer.activation l with Layer.Relu | Layer.Identity -> true | _ -> false)
    (Network.layers net)

let random_prop rng net =
  let d = Network.input_dim net in
  let scale = pick rng [| 0.1; 0.5; 1.0 |] in
  let center = Array.init d (fun _ -> Rng.uniform rng (-1.0) 1.0) in
  let radius = Array.init d (fun _ -> Rng.float rng scale) in
  let input =
    Box.make
      ~lo:(Array.mapi (fun j c -> c -. radius.(j)) center)
      ~hi:(Array.mapi (fun j c -> c +. radius.(j)) center)
  in
  let c = Array.init (Network.output_dim net) (fun _ -> Rng.uniform rng (-1.0) 1.0) in
  Prop.make ~name:"oracle" ~input ~c ~offset:(Rng.uniform rng (-1.0) 1.0)

(* The whole box, or a random sub-box of it per dimension. *)
let sub_box rng box =
  if Rng.int rng 4 = 0 then box
  else
    let ends j =
      let lo = Box.lo_at box j and hi = Box.hi_at box j in
      let a = Rng.uniform rng lo hi and b = Rng.uniform rng lo hi in
      (Float.min a b, Float.max a b)
    in
    let e = Array.init (Box.dim box) ends in
    Box.make ~lo:(Array.map fst e) ~hi:(Array.map snd e)

let point_in rng box =
  Array.init (Box.dim box) (fun j -> Rng.uniform rng (Box.lo_at box j) (Box.hi_at box j))

let pre_at (trace : Network.trace) (r : Relu_id.t) =
  trace.Network.pre.(r.Relu_id.layer).(r.Relu_id.index)

(* A random share of the units, each split on the side [x0] is on, so
   the subproblem holds [x0]; one split in eight goes the other way,
   which often empties the region. *)
let random_splits rng net x0 =
  let trace = Network.forward_trace net x0 in
  let share = 0.1 +. Rng.float rng 0.4 in
  Array.fold_left
    (fun s r ->
      if Rng.float rng 1.0 >= share then s
      else
        let phase = if pre_at trace r >= 0.0 then Splits.Pos else Splits.Neg in
        Splits.add r (if Rng.int rng 8 = 0 then Splits.negate phase else phase) s)
    Splits.empty (Network.relu_ids net)

let stable (b : Bounds.t) (r : Relu_id.t) =
  let l = b.Bounds.layers.(r.Relu_id.layer) in
  l.Bounds.pre_lo.(r.Relu_id.index) >= 0.0 || l.Bounds.pre_hi.(r.Relu_id.index) <= 0.0

(* The subproblem's optimum: [None] when the region is empty, raising
   [Exit] when the solver gives up (the case is then skipped). *)
let triangle_value lp const =
  match Lp.solve lp with
  | Lp.Optimal { objective; _ } -> Some (objective +. const)
  | Lp.Infeasible -> None
  | Lp.Unbounded -> failwith "unbounded triangle LP over a bounded box"
  | exception (Lp.Iteration_limit | Lp.Numerical_failure _) -> raise Exit

let milp_value lp const ~integer =
  match Milp.solve ~max_nodes:500 lp ~integer with
  | Milp.Optimal { objective; _ } -> Some (objective +. const)
  | Milp.Infeasible _ -> None
  | Milp.Node_limit _ | Milp.Solver_failure _ -> raise Exit

(* Concrete points of the subproblem: [x0] and samples of the box whose
   split units sit clearly on their split's side. *)
let concrete_margins rng net prop box splits x0 =
  let inside x =
    let trace = Network.forward_trace net x in
    List.for_all
      (fun (r, phase) ->
        let p = pre_at trace r in
        match phase with Splits.Pos -> p > 1e-6 | Splits.Neg -> p < -1e-6)
      (Splits.bindings splits)
  in
  List.filter_map
    (fun x -> if inside x then Some (Prop.margin prop (Network.forward net x)) else None)
    (x0 :: List.init 30 (fun _ -> point_in rng box))

let failf fmt = Printf.ksprintf (fun m -> QCheck.Test.fail_report m) fmt

let show = function None -> "infeasible" | Some v -> Printf.sprintf "%.17g" v

(* One subproblem against both encodings. *)
let check_node rng net prop ~root ~tri ~milp =
  let box = sub_box rng prop.Prop.input in
  let x0 = point_in rng box in
  let splits = random_splits rng net x0 in
  match Deeppoly.analyze net ~box ~splits with
  | Deeppoly.Infeasible -> ()
  | Deeppoly.Feasible dp -> (
      let bounds = Deeppoly.bounds dp in
      try
        let ref_lp, ref_const = Reference.build_lp net ~prop ~box ~splits ~bounds in
        let expected = triangle_value ref_lp ref_const in
        Encoding.Triangle.specialize tri ~box ~splits ~bounds;
        let got = triangle_value (Encoding.Triangle.lp tri) (Encoding.Triangle.const tri) in
        tally.subproblems <- tally.subproblems + 1;
        let split_units = List.map fst (Splits.bindings splits) in
        if List.exists (stable root) split_units then
          tally.root_stable_splits <- tally.root_stable_splits + 1;
        if List.exists (fun r -> (not (stable root r)) && stable bounds r) split_units then
          tally.node_stable_splits <- tally.node_stable_splits + 1;
        (* (a) at least as tight as the per-node encoding. *)
        (match (got, expected) with
        | Some g, Some e ->
            if g < e -. (1e-7 *. (1.0 +. Float.abs e)) then
              failf "triangle optimum %s below the reference's %s" (show got) (show expected);
            if g > e +. (1e-7 *. (1.0 +. Float.abs e)) then tally.tighter <- tally.tighter + 1
        | Some _, None -> failf "triangle feasible where the reference is infeasible"
        | None, _ -> ());
        (* (b) below every concrete margin of the subproblem. *)
        List.iter
          (fun m ->
            match got with
            | Some g when g <= m +. (1e-6 *. (1.0 +. Float.abs m)) -> ()
            | _ -> failf "triangle optimum %s above the concrete margin %.17g" (show got) m)
          (concrete_margins rng net prop box splits x0);
        (* (c) two exact MILPs agree. *)
        Option.iter
          (fun milp ->
            let ref_lp, ref_const, integer = Reference.build_milp net ~prop ~box ~splits ~bounds in
            let expected = milp_value ref_lp ref_const ~integer in
            Encoding.Milp.specialize milp ~box ~splits ~bounds;
            let got =
              milp_value (Encoding.Milp.lp milp) (Encoding.Milp.const milp)
                ~integer:(Encoding.Milp.binaries milp)
            in
            tally.milp_compared <- tally.milp_compared + 1;
            let agree =
              match (got, expected) with
              | Some g, Some e -> Float.abs (g -. e) <= 1e-6 *. (1.0 +. Float.abs e)
              | None, None -> true
              | Some _, None | None, Some _ -> false
            in
            if not agree then failf "MILP optimum %s, reference %s" (show got) (show expected))
          milp
      with Exit -> ())

let case seed =
  let rng = Rng.create seed in
  let net = random_net rng in
  let prop = random_prop rng net in
  (rng, net, prop)

(* One case: a network, a property and a run of subproblems. *)
let check seed =
  let rng, net, prop = case seed in
  match
    ( Deeppoly.analyze net ~box:prop.Prop.input ~splits:Splits.empty,
      Encoding.Triangle.build net ~prop )
  with
  | Deeppoly.Feasible dp, Some tri ->
      let root = Deeppoly.bounds dp in
      let milp = if plain_relu net then Encoding.Milp.build net ~prop else None in
      for _ = 0 to Rng.int rng 4 do
        check_node rng net prop ~root ~tri ~milp
      done;
      true
  | _ -> failf "root of a random property is DeepPoly-infeasible"

let test ~count =
  QCheck.Test.make ~name:"persistent encodings are sound and at least as tight as per-node ones"
    ~count
    QCheck.(make ~print:(Printf.sprintf "case seed %d") Gen.(int_bound 1_000_000_000))
    check
