(* Smooth (sigmoid/tanh) activations: sound, incomplete verification
   with input splitting — paper §3.2 cases (2) and (3). *)

module Vec = Ivan_tensor.Vec
module Rng = Ivan_tensor.Rng
module Layer = Ivan_nn.Layer
module Network = Ivan_nn.Network
module Builder = Ivan_nn.Builder
module Quant = Ivan_nn.Quant
module Serialize = Ivan_nn.Serialize
module Sgd = Ivan_train.Sgd
module Box = Ivan_spec.Box
module Prop = Ivan_spec.Prop
module Itv = Ivan_domains.Itv
module Splits = Ivan_domains.Splits
module Interval_dom = Ivan_domains.Interval_dom
module Zonotope = Ivan_domains.Zonotope
module Deeppoly = Ivan_domains.Deeppoly
module Analyzer = Ivan_analyzer.Analyzer
module Heuristic = Ivan_bab.Heuristic
module Bab = Ivan_bab.Bab
module Ivan = Ivan_core.Ivan

let smooth_net ~activation ~seed ~dims =
  Builder.dense_net_act ~hidden_activation:activation ~rng:(Rng.create seed) ~dims

let unit_box d = Box.make ~lo:(Vec.zeros d) ~hi:(Vec.create d 1.0)

let test_forward_semantics () =
  let l act =
    Layer.make
      (Layer.Dense { weights = Ivan_tensor.Mat.of_arrays [| [| 1.0 |] |]; bias = [| 0.0 |] })
      act
  in
  Alcotest.(check (float 1e-12)) "sigmoid(0)" 0.5 (Layer.forward (l Layer.Sigmoid) [| 0.0 |]).(0);
  Alcotest.(check (float 1e-9)) "tanh(0)" 0.0 (Layer.forward (l Layer.Tanh) [| 0.0 |]).(0);
  Alcotest.(check bool) "sigmoid bounded" true
    ((Layer.forward (l Layer.Sigmoid) [| 100.0 |]).(0) <= 1.0);
  Alcotest.(check (float 1e-6)) "tanh(1)" (Float.tanh 1.0)
    (Layer.forward (l Layer.Tanh) [| 1.0 |]).(0)

let test_no_split_candidates () =
  let net = smooth_net ~activation:Layer.Tanh ~seed:1 ~dims:[ 2; 5; 3; 1 ] in
  Alcotest.(check int) "no splittable units" 0 (Network.num_relus net);
  Alcotest.(check int) "no relu ids" 0 (Array.length (Network.relu_ids net))

let test_serialize_roundtrip () =
  List.iter
    (fun activation ->
      let net = smooth_net ~activation ~seed:2 ~dims:[ 3; 4; 2 ] in
      let net' = Serialize.of_string (Serialize.to_string net) in
      let x = [| 0.3; -0.2; 0.9 |] in
      Alcotest.(check bool) "outputs equal" true
        (Vec.equal ~eps:0.0 (Network.forward net x) (Network.forward net' x)))
    [ Layer.Sigmoid; Layer.Tanh ]

let test_training_learns () =
  let rng = Rng.create 3 in
  let net = smooth_net ~activation:Layer.Tanh ~seed:3 ~dims:[ 2; 8; 2 ] in
  let count = 200 in
  let inputs = Array.make count [||] in
  let labels = Array.make count 0 in
  for i = 0 to count - 1 do
    let label = i mod 2 in
    let cx = if label = 0 then -1.0 else 1.0 in
    inputs.(i) <- [| cx +. (0.3 *. Rng.gaussian rng); 0.3 *. Rng.gaussian rng |];
    labels.(i) <- label
  done;
  let config = { Sgd.default_config with epochs = 30 } in
  let trained = Sgd.train_classifier ~rng ~config net ~inputs ~labels in
  Alcotest.(check bool) "tanh net learns" true (Sgd.accuracy trained ~inputs ~labels >= 0.95)

(* All three domains stay sound on smooth networks. *)
let test_domains_sound () =
  List.iter
    (fun activation ->
      for seed = 11 to 13 do
        let net = smooth_net ~activation ~seed ~dims:[ 3; 5; 4; 2 ] in
        let box = unit_box 3 in
        let rng = Rng.create seed in
        let check name (bounds : Ivan_domains.Bounds.t) =
          for _ = 1 to 300 do
            let x = Box.sample ~rng box in
            let tr = Network.forward_trace net x in
            Array.iteri
              (fun li layer ->
                Array.iteri
                  (fun idx v ->
                    Alcotest.(check bool) (name ^ " post sound") true
                      (v >= layer.Ivan_domains.Bounds.post_lo.(idx) -. 1e-6
                      && v <= layer.Ivan_domains.Bounds.post_hi.(idx) +. 1e-6))
                  tr.Network.post.(li))
              bounds.Ivan_domains.Bounds.layers
          done
        in
        (match Interval_dom.analyze net ~box ~splits:Splits.empty with
        | Interval_dom.Feasible b -> check "interval" b
        | Interval_dom.Infeasible -> Alcotest.fail "interval infeasible");
        (match Zonotope.analyze net ~box ~splits:Splits.empty with
        | Zonotope.Feasible a -> check "zonotope" a.Zonotope.bounds
        | Zonotope.Infeasible -> Alcotest.fail "zonotope infeasible");
        match Deeppoly.analyze net ~box ~splits:Splits.empty with
        | Deeppoly.Feasible a -> check "deeppoly" (Deeppoly.bounds a)
        | Deeppoly.Infeasible -> Alcotest.fail "deeppoly infeasible"
      done)
    [ Layer.Sigmoid; Layer.Tanh ]

(* Analyzer lower bounds are sound on smooth networks. *)
let test_analyzer_lb_sound () =
  for seed = 21 to 23 do
    let net = smooth_net ~activation:Layer.Tanh ~seed ~dims:[ 2; 5; 3; 1 ] in
    let box = unit_box 2 in
    let prop = Prop.make ~name:"s" ~input:box ~c:(Vec.of_list [ 1.0 ]) ~offset:0.0 in
    List.iter
      (fun (a : Analyzer.t) ->
        let o = a.Analyzer.run net ~prop ~box ~splits:Splits.empty in
        if o.Analyzer.lb < infinity then
          Alcotest.(check bool)
            (a.Analyzer.name ^ " lb sound on smooth")
            true
            (Fixtures.check_margin_lb ~seed net prop o.Analyzer.lb))
      [ Analyzer.interval (); Analyzer.zonotope (); Analyzer.lp_triangle () ]
  done

(* Input splitting refines smooth-network bounds: the paper's §3.2(3)
   claim that input splitting applies to any activation.  A property
   unprovable at the root becomes provable with splits. *)
let test_input_splitting_refines () =
  let rec find_case seed =
    if seed > 60 then Alcotest.fail "no suitable fixture found"
    else begin
      let net = smooth_net ~activation:Layer.Tanh ~seed ~dims:[ 2; 6; 4; 1 ] in
      let box = unit_box 2 in
      let base = Prop.make ~name:"r" ~input:box ~c:(Vec.of_list [ 1.0 ]) ~offset:0.0 in
      let sampled = Fixtures.approx_min_margin ~seed net base in
      let prop = { base with Prop.offset = -.sampled +. 0.05 } in
      let root =
        (Analyzer.zonotope ()).Analyzer.run net ~prop ~box ~splits:Splits.empty
      in
      match root.Analyzer.status with
      | Analyzer.Unknown -> (net, prop)
      | Analyzer.Verified | Analyzer.Counterexample _ -> find_case (seed + 1)
    end
  in
  let net, prop = find_case 31 in
  let run =
    Bab.verify ~analyzer:(Analyzer.zonotope ()) ~heuristic:Heuristic.input_smear
      ~budget:{ Bab.max_analyzer_calls = 2000; max_seconds = 30.0 }
      ~net ~prop ()
  in
  match run.Bab.verdict with
  | Bab.Proved -> Alcotest.(check bool) "needed branching" true (run.Bab.stats.Bab.branchings > 0)
  | Bab.Disproved x ->
      Alcotest.(check bool) "genuine CE" true (Analyzer.check_concrete net ~prop x)
  | Bab.Exhausted -> Alcotest.fail "input splitting failed to refine"

(* IVAN incremental verification with input splitting on a smooth
   network. *)
let test_incremental_smooth () =
  let net = smooth_net ~activation:Layer.Sigmoid ~seed:41 ~dims:[ 2; 6; 1 ] in
  let box = unit_box 2 in
  let base = Prop.make ~name:"i" ~input:box ~c:(Vec.of_list [ 1.0 ]) ~offset:0.0 in
  let sampled = Fixtures.approx_min_margin ~seed:41 net base in
  let prop = { base with Prop.offset = -.sampled +. 0.02 } in
  let updated = Quant.network Quant.Int16 net in
  let analyzer = Analyzer.zonotope () in
  let result =
    Ivan.verify_incremental ~analyzer ~heuristic:Heuristic.input_smear
      ~config:
        {
          Ivan.default_config with
          budget = { Bab.max_analyzer_calls = 2000; max_seconds = 30.0 };
        }
      ~net ~updated ~prop ()
  in
  match (result.Ivan.original.Bab.verdict, result.Ivan.updated.Bab.verdict) with
  | Bab.Exhausted, _ | _, Bab.Exhausted -> Alcotest.fail "smooth incremental exhausted"
  | _, _ -> ()

let suite =
  [
    ("forward semantics", `Quick, test_forward_semantics);
    ("no split candidates", `Quick, test_no_split_candidates);
    ("serialize roundtrip", `Quick, test_serialize_roundtrip);
    ("training learns", `Quick, test_training_learns);
    ("domains sound", `Quick, test_domains_sound);
    ("analyzer lb sound", `Quick, test_analyzer_lb_sound);
    ("input splitting refines", `Quick, test_input_splitting_refines);
    ("incremental smooth", `Quick, test_incremental_smooth);
  ]
