(* Differential oracle for the encodings.  On a random network and
   property, one persistent {!Encoding.Triangle} is built at the
   property root and specialized to a run of random subproblems
   (sub-box, splits), as the BaB engine does node after node.  The
   splits cover root-stable units, which make the encoding re-encode
   itself, and units that are ambiguous at the root but stable at the
   node.  Against the one-shot {!Reference} builders, fed each node's
   own DeepPoly bounds:

   (a) the triangle optimum is at least the reference's (an infeasible
       reference makes the encoding infeasible too);
   (b) the triangle optimum is at most the margin of every sampled
       concrete point of the subproblem (soundness);
   (c) on plain-ReLU nets, the one-shot {!Encoding.milp} of every node
       and the reference's MILP are both exact, so when both searches
       finish they agree;
   (g) a second triangle encoding, built from the root's DeepPoly
       bounds handed in as [~root] (as the analyzer's root call does)
       rather than from a DeepPoly run of its own, is specialized
       alongside: after every specialization, re-encodes included, the
       two problems are bit-identical.

   A second property ({!crash_test}) checks the crash start of
   {!Encoding.Triangle.crash} against the plain solve of the same node
   LP, which starts from the slack basis, on dense ReLU and leaky-ReLU
   nets:

   (d) a crash-started solve ends in the same status, with the optimum
       within 1e-6 relative;
   (e) at the root every corner's crash basis is feasible, so the crash
       basis answers, abandoning nothing;
   (f) a corner that violates a split row starts the solve from an
       infeasible basis, which the dual simplex repairs or, at an
       infeasible node, decides by its dual ray (or, when the crash
       attempt bails, the slack basis answers): the same status as the
       slack-basis solve, with the optimum within 1e-6 relative.

   A third property ({!transfer_test}) carries the multipliers of a
   node's triangle LP on a random net N onto the same node of a
   perturbed copy N^a by row key ({!Encoding.Triangle.transfer}), as a
   seed leaf of an incremental run does.  The two nets' root-stable
   sets may differ, and splits on root-stable units make either
   encoding re-encode itself, so the two LPs can differ in shape:

   (h) the exact weak-duality bound of the carried multipliers never
       exceeds N^a's LP optimum, a bound the certificate screen proves
       ({!Ivan_cert.Screen.proves}, which closes a node) never does
       either, and a carried Farkas witness proves only an infeasible
       N^a LP; under an identity update (N^a = N) the carried
       multipliers reproduce N's optimum within 1e-6 relative. *)

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
  mutable rooted_compared : int;  (* (g): specializations compared bit for bit *)
}

let tally =
  {
    subproblems = 0;
    root_stable_splits = 0;
    node_stable_splits = 0;
    tighter = 0;
    milp_compared = 0;
    rooted_compared = 0;
  }

(* Crash-started solves the crash property compared, and how many of
   them the crash basis answered. *)
type crash_tally = {
  mutable crash_compared : int;
  mutable crash_answered : int;
  mutable violating_dual : int;  (* corners outside a split row the crash basis answered *)
  mutable violating_slack : int;  (* ... that the slack basis answered *)
}

let crash_tally =
  {
    crash_compared = 0;
    crash_answered = 0;
    violating_dual = 0;
    violating_slack = 0;
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

(* (g): the triangle built with [~root] holds the same problem, bit for
   bit, as the one that ran the root's DeepPoly itself. *)
let same_problem lp rooted =
  let bytes lp = Marshal.to_string (Ivan_cert.Cert.Snapshot.of_problem lp) [] in
  tally.rooted_compared <- tally.rooted_compared + 1;
  if bytes lp <> bytes rooted then failf "triangle built with ~root differs from the one without"

(* One subproblem against the encodings; [tri'] is the triangle built
   with [~root]. *)
let check_node rng net prop ~root ~tri ~tri' =
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
        Encoding.Triangle.specialize tri' ~box ~splits ~bounds;
        same_problem (Encoding.Triangle.lp tri) (Encoding.Triangle.lp tri');
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
        if plain_relu net then begin
          let ref_lp, ref_const, integer = Reference.build_milp net ~prop ~box ~splits ~bounds in
          let expected = milp_value ref_lp ref_const ~integer in
          let lp, const, integer = Encoding.milp net ~prop ~box ~splits ~bounds in
          let got = milp_value lp const ~integer in
          tally.milp_compared <- tally.milp_compared + 1;
          let agree =
            match (got, expected) with
            | Some g, Some e -> Float.abs (g -. e) <= 1e-6 *. (1.0 +. Float.abs e)
            | None, None -> true
            | Some _, None | None, Some _ -> false
          in
          if not agree then failf "MILP optimum %s, reference %s" (show got) (show expected)
        end
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
      let tri' = Option.get (Encoding.Triangle.build ~root net ~prop) in
      for _ = 0 to Rng.int rng 4 do
        check_node rng net prop ~root ~tri ~tri'
      done;
      true
  | _ -> failf "root of a random property is DeepPoly-infeasible"

let test ~count =
  QCheck.Test.make ~name:"persistent encodings are sound and at least as tight as per-node ones"
    ~count
    QCheck.(make ~print:(Printf.sprintf "case seed %d") Gen.(int_bound 1_000_000_000))
    check

(* ---------------- crash starts ---------------- *)

(* Cases in the crash property's tier-1 slice; 20x under
   [dune build @encoding-oracle]. *)
let crash_tier1_count = 1000

(* A dense net whose hidden layers are all ReLU or all leaky ReLU. *)
let random_dense_net rng =
  let hidden = List.init (1 + Rng.int rng 3) (fun _ -> 1 + Rng.int rng 8) in
  let dims = (1 + Rng.int rng 4) :: (hidden @ [ 1 + Rng.int rng 3 ]) in
  let base = Builder.dense_net ~rng ~dims in
  if Rng.int rng 2 = 0 then base
  else
    let slope = 0.05 +. Rng.float rng 0.9 in
    let layers = Network.layers base in
    let last = Array.length layers - 1 in
    Network.make
      (List.mapi
         (fun i l -> if i = last then l else Layer.make (Layer.affine l) (Layer.Leaky_relu slope))
         (Array.to_list layers))

let corner_point box upper =
  Array.mapi (fun j up -> if up then Box.hi_at box j else Box.lo_at box j) upper

let outcome = function
  | Lp.Optimal { objective; _ } -> Some objective
  | Lp.Infeasible -> None
  | Lp.Unbounded -> failwith "unbounded triangle LP over a bounded box"

(* The node's LP solved from the slack basis and from the crash basis of
   the corner [upper]; [Exit] (the case is skipped) when either solve gives
   up or the encoding has no crash basis. *)
let solve_both tri ~upper =
  let lp = Encoding.Triangle.lp tri in
  let solve ?start () =
    match Lp.solve ?start lp with
    | r -> (r, Option.get (Lp.last_stats lp))
    | exception (Lp.Iteration_limit | Lp.Numerical_failure _) -> raise Exit
  in
  let plain = solve () in
  match Encoding.Triangle.crash tri ~upper with
  | None -> raise Exit
  | Some start -> (plain, solve ~start ())

(* (d): same status, optimum within 1e-6 relative. *)
let check_agree label ((r, _), (r', _)) =
  crash_tally.crash_compared <- crash_tally.crash_compared + 1;
  match (outcome r, outcome r') with
  | Some v, Some v' when Float.abs (v' -. v) <= 1e-6 *. (1.0 +. Float.abs v) -> ()
  | None, None -> ()
  | v, v' -> failf "%s: crash start %s, slack basis %s" label (show v') (show v)

let random_corner rng d = Array.init d (fun _ -> Rng.int rng 2 = 0)

(* A first-layer unit whose pre-activation at [x] is clear of zero,
   split to the side [x] is not on. *)
let violated_split rng net x =
  let trace = Network.forward_trace net x in
  let clear =
    List.filter
      (fun r -> r.Relu_id.layer = 0 && Float.abs (pre_at trace r) > 1e-3)
      (Array.to_list (Network.relu_ids net))
  in
  match clear with
  | [] -> None
  | _ ->
      let r = List.nth clear (Rng.int rng (List.length clear)) in
      Some (r, if pre_at trace r >= 0.0 then Splits.Neg else Splits.Pos)

let specialize_node net tri ~box ~splits =
  match Deeppoly.analyze net ~box ~splits with
  | Deeppoly.Infeasible -> false
  | Deeppoly.Feasible dp ->
      Encoding.Triangle.specialize tri ~box ~splits ~bounds:(Deeppoly.bounds dp);
      true

(* One case: the root, a run of random subproblems, and one corner
   outside a split row. *)
let check_crash seed =
  let rng = Rng.create seed in
  let net = random_dense_net rng in
  let prop = random_prop rng net in
  let d = Network.input_dim net in
  let attempt f = try f () with Exit -> () in
  match Encoding.Triangle.build net ~prop with
  | None -> failf "root of a random property is DeepPoly-infeasible"
  | Some tri ->
      let crash_solve ~box ~splits ~upper =
        if specialize_node net tri ~box ~splits then Some (solve_both tri ~upper) else None
      in
      (* The crash attempt answered: it abandoned nothing. *)
      let by_crash (_, (_, st')) = st'.Lp.miss_pivots = 0 in
      let covered both =
        if by_crash both then crash_tally.crash_answered <- crash_tally.crash_answered + 1
      in
      (* (e) *)
      attempt (fun () ->
          match
            crash_solve ~box:prop.Prop.input ~splits:Splits.empty ~upper:(random_corner rng d)
          with
          | None -> ()
          | Some both ->
              check_agree "root" both;
              covered both;
              if not (by_crash both) then failf "the crash start at the root did not answer");
      (* (d) *)
      for _ = 0 to Rng.int rng 4 do
        attempt (fun () ->
            let box = sub_box rng prop.Prop.input in
            let splits = random_splits rng net (point_in rng box) in
            match crash_solve ~box ~splits ~upper:(random_corner rng d) with
            | None -> ()
            | Some both ->
                check_agree "subproblem" both;
                covered both)
      done;
      (* (f) *)
      attempt (fun () ->
          let box = sub_box rng prop.Prop.input in
          let upper = random_corner rng d in
          match violated_split rng net (corner_point box upper) with
          | None -> ()
          | Some (r, phase) -> (
              match crash_solve ~box ~splits:(Splits.add r phase Splits.empty) ~upper with
              | None -> ()
              | Some both ->
                  check_agree "corner outside a split" both;
                  if by_crash both then
                    crash_tally.violating_dual <- crash_tally.violating_dual + 1
                  else crash_tally.violating_slack <- crash_tally.violating_slack + 1));
      true

let crash_test ~count =
  QCheck.Test.make ~name:"crash-started triangle solves agree with the slack-basis solve" ~count
    QCheck.(make ~print:(Printf.sprintf "case seed %d") Gen.(int_bound 1_000_000_000))
    check_crash

(* ---------------- multipliers carried to an updated net ---------------- *)

(* Cases in the transfer property's tier-1 slice; 20x under
   [dune build @encoding-oracle]. *)
let transfer_tier1_count = 500

type transfer_tally = {
  mutable carried : int;  (* node LPs the carried multipliers were evaluated on *)
  mutable identity : int;  (* ... under an identity update *)
  mutable reshaped : int;  (* ... where N^a's LP has other rows than N's *)
  mutable pinned : int;  (* ... whose node splits a unit stable at N's or N^a's root *)
  mutable closed : int;  (* ... that the screen's bound closes *)
}

let transfer_tally = { carried = 0; identity = 0; reshaped = 0; pinned = 0; closed = 0 }

(* N^a: N itself for an identity update, else N with every weight
   perturbed by up to 1%, 5% or 20% of itself. *)
let updated_net rng net =
  match Rng.int rng 4 with
  | 0 -> (true, net)
  | _ ->
      let fraction = pick rng [| 0.01; 0.05; 0.2 |] in
      (false, Ivan_nn.Perturb.random_relative ~rng:(Rng.create (Rng.int rng 1_000_000)) ~fraction net)

let root_bounds net prop =
  match Deeppoly.analyze net ~box:prop.Prop.input ~splits:Splits.empty with
  | Deeppoly.Infeasible -> raise Exit
  | Deeppoly.Feasible dp -> Deeppoly.bounds dp

(* The node's triangle LP, solved: the problem, its optimum plus the
   encoding's constant ([None] when infeasible) and the certificate. *)
let solved_node net tri ~box ~splits =
  match Deeppoly.analyze net ~box ~splits with
  | Deeppoly.Infeasible -> raise Exit
  | Deeppoly.Feasible dp -> (
      Encoding.Triangle.specialize tri ~box ~splits ~bounds:(Deeppoly.bounds dp);
      let lp = Encoding.Triangle.lp tri in
      match Lp.solve lp with
      | Lp.Optimal s -> (lp, Some (s.Lp.objective +. Encoding.Triangle.const tri), Lp.last_certificate lp)
      | Lp.Infeasible -> (lp, None, Lp.last_certificate lp)
      | Lp.Unbounded -> failwith "unbounded triangle LP over a bounded box"
      | exception (Lp.Iteration_limit | Lp.Numerical_failure _) -> raise Exit)

module Q = Ivan_cert.Q
module Cert = Ivan_cert.Cert

(* The exact weak-duality bound of [y] on the snapshot [s] plus
   [const], or with the objective zeroed for a Farkas witness. *)
let exact_bound s ~const ~farkas y =
  if farkas then
    Result.to_option (Cert.implied_bound { s with Cert.Snapshot.obj = Array.make s.Cert.Snapshot.nvars 0.0 } ~y)
  else Option.map (Q.add (Q.of_float const)) (Result.to_option (Cert.implied_bound s ~y))

(* One node: N's LP solved, its multipliers carried onto N^a's LP. *)
let check_transfer_node rng ~identity ~roots net updated prop tri tri' =
  let box = sub_box rng prop.Prop.input in
  let splits = random_splits rng net (point_in rng box) in
  let _, value, cert = solved_node net tri ~box ~splits in
  let farkas, y =
    match cert with
    | Some (Lp.Certificate.Dual y) -> (false, y)
    | Some (Lp.Certificate.Farkas y) -> (true, y)
    | None -> raise Exit
  in
  let keys = Encoding.Triangle.keys tri in
  let lp', optimum, _ = solved_node updated tri' ~box ~splits in
  let const' = Encoding.Triangle.const tri' in
  let y' =
    match Encoding.Triangle.transfer tri' ~keys ~y with
    | Some y' -> y'
    | None -> failf "keys and multipliers differ in length"
  in
  let carried = if farkas then Lp.Certificate.Farkas y' else Lp.Certificate.Dual y' in
  let s' = Cert.Snapshot.of_problem lp' in
  let proved = Ivan_cert.Screen.proves s' ~const:const' carried in
  let exact = exact_bound s' ~const:const' ~farkas y' in
  let t = transfer_tally in
  t.carried <- t.carried + 1;
  if Encoding.Triangle.keys tri' <> keys then t.reshaped <- t.reshaped + 1;
  if List.exists (fun (r, _) -> List.exists (fun b -> stable b r) roots) (Splits.bindings splits) then
    t.pinned <- t.pinned + 1;
  if proved <> None then t.closed <- t.closed + 1;
  let tol v = 1e-6 *. (1.0 +. Float.abs v) in
  (* (h) never above N^a's optimum; N^a infeasible allows any bound. *)
  (match optimum with
  | None -> ()
  | Some opt ->
      if farkas then begin
        if proved <> None then failf "a carried Farkas witness closed a feasible LP"
      end
      else begin
        (match proved with
        | Some lb when lb > opt +. tol opt ->
            failf "screened carried bound %.17g above N^a's optimum %.17g" lb opt
        | _ -> ());
        Option.iter
          (fun q ->
            if Q.compare q (Q.of_float (opt +. tol opt)) > 0 then
              failf "exact carried bound %s above N^a's optimum %.17g" (Q.to_string q) opt)
          exact
      end);
  (* (h) an identity update reproduces N's optimum. *)
  if identity then begin
    t.identity <- t.identity + 1;
    match (value, exact) with
    | Some v, Some q ->
        if Q.compare q (Q.of_float (v -. tol v)) < 0 then
          failf "identity transfer bounds N's optimum %.17g only by %s" v (Q.to_string q)
    | Some v, None -> failf "identity transfer of N's optimum %.17g has no exact bound" v
    | None, _ -> ()
  end

let check_transfer seed =
  let rng, net, prop = case seed in
  let identity, updated = updated_net rng net in
  (try
     let roots = [ root_bounds net prop; root_bounds updated prop ] in
     match (Encoding.Triangle.build net ~prop, Encoding.Triangle.build updated ~prop) with
     | Some tri, Some tri' ->
         for _ = 0 to Rng.int rng 4 do
           try check_transfer_node rng ~identity ~roots net updated prop tri tri' with Exit -> ()
         done
     | _ -> ()
   with Exit -> ());
  true

let transfer_test ~count =
  QCheck.Test.make ~name:"multipliers carried by row key to an updated net bound its LP soundly"
    ~count
    QCheck.(make ~print:(Printf.sprintf "case seed %d") Gen.(int_bound 1_000_000_000))
    check_transfer
