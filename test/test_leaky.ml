(* Leaky-ReLU support across the stack: forward semantics, training,
   domains soundness, LP exactness under full splitting, complete BaB,
   and incremental verification — the paper's §3.2 claim that activation
   splitting extends to any piecewise-linear activation. *)

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
module Splits = Ivan_domains.Splits
module Interval_dom = Ivan_domains.Interval_dom
module Zonotope = Ivan_domains.Zonotope
module Deeppoly = Ivan_domains.Deeppoly
module Analyzer = Ivan_analyzer.Analyzer
module Heuristic = Ivan_bab.Heuristic
module Bab = Ivan_bab.Bab
module Ivan = Ivan_core.Ivan

let slope = 0.1

let leaky_net ~seed ~dims =
  Builder.dense_net_act ~hidden_activation:(Layer.Leaky_relu slope) ~rng:(Rng.create seed) ~dims

let unit_box d = Box.make ~lo:(Vec.zeros d) ~hi:(Vec.create d 1.0)

let test_forward_semantics () =
  let l =
    Layer.make
      (Layer.Dense { weights = Ivan_tensor.Mat.of_arrays [| [| 1.0 |] |]; bias = [| 0.0 |] })
      (Layer.Leaky_relu slope)
  in
  Alcotest.(check (float 1e-12)) "positive passes" 2.0 (Layer.forward l [| 2.0 |]).(0);
  Alcotest.(check (float 1e-12)) "negative scaled" (-0.3) (Layer.forward l [| -3.0 |]).(0)

let test_invalid_slope () =
  let mk s =
    Layer.make
      (Layer.Dense { weights = Ivan_tensor.Mat.of_arrays [| [| 1.0 |] |]; bias = [| 0.0 |] })
      (Layer.Leaky_relu s)
  in
  Alcotest.check_raises "slope 0" (Invalid_argument "Layer.make: leaky relu slope must be in (0, 1)")
    (fun () -> ignore (mk 0.0));
  Alcotest.check_raises "slope 1" (Invalid_argument "Layer.make: leaky relu slope must be in (0, 1)")
    (fun () -> ignore (mk 1.0))

let test_relu_ids_include_leaky () =
  let net = leaky_net ~seed:1 ~dims:[ 2; 4; 3; 1 ] in
  Alcotest.(check int) "leaky units are splittable" 7 (Network.num_relus net);
  Alcotest.(check int) "ids length" 7 (Array.length (Network.relu_ids net))

let test_serialize_roundtrip () =
  let net = leaky_net ~seed:2 ~dims:[ 3; 5; 2 ] in
  let net' = Serialize.of_string (Serialize.to_string net) in
  let rng = Rng.create 3 in
  for _ = 1 to 10 do
    let x = Array.init 3 (fun _ -> Rng.gaussian rng) in
    Alcotest.(check bool) "outputs equal" true
      (Vec.equal ~eps:0.0 (Network.forward net x) (Network.forward net' x))
  done

let test_training_learns () =
  let rng = Rng.create 4 in
  let net = leaky_net ~seed:4 ~dims:[ 2; 8; 2 ] in
  let count = 200 in
  let inputs = Array.make count [||] in
  let labels = Array.make count 0 in
  for i = 0 to count - 1 do
    let label = i mod 2 in
    let cx = if label = 0 then -1.0 else 1.0 in
    inputs.(i) <- [| cx +. (0.3 *. Rng.gaussian rng); 0.3 *. Rng.gaussian rng |];
    labels.(i) <- label
  done;
  let config = { Sgd.default_config with epochs = 25 } in
  let trained = Sgd.train_classifier ~rng ~config net ~inputs ~labels in
  Alcotest.(check bool) "accuracy" true (Sgd.accuracy trained ~inputs ~labels >= 0.95)

(* Soundness of all three domains against sampled executions. *)
let test_domains_sound () =
  for seed = 11 to 14 do
    let net = leaky_net ~seed ~dims:[ 3; 6; 4; 2 ] in
    let box = unit_box 3 in
    let check_bounds (bounds : Ivan_domains.Bounds.t) name =
      let rng = Rng.create seed in
      for _ = 1 to 300 do
        let x = Box.sample ~rng box in
        let tr = Network.forward_trace net x in
        Array.iteri
          (fun li layer ->
            Array.iteri
              (fun idx v ->
                Alcotest.(check bool) (name ^ " pre sound") true
                  (v >= layer.Ivan_domains.Bounds.pre_lo.(idx) -. 1e-6
                  && v <= layer.Ivan_domains.Bounds.pre_hi.(idx) +. 1e-6))
              tr.Network.pre.(li);
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
    | Interval_dom.Feasible b -> check_bounds b "interval"
    | Interval_dom.Infeasible -> Alcotest.fail "interval infeasible");
    (match Zonotope.analyze net ~box ~splits:Splits.empty with
    | Zonotope.Feasible a -> check_bounds a.Zonotope.bounds "zonotope"
    | Zonotope.Infeasible -> Alcotest.fail "zonotope infeasible");
    match Deeppoly.analyze net ~box ~splits:Splits.empty with
    | Deeppoly.Feasible a -> check_bounds (Deeppoly.bounds a) "deeppoly"
    | Deeppoly.Infeasible -> Alcotest.fail "deeppoly infeasible"
  done

(* Splitting a leaky unit Neg forces the y = slope*x piece; points with
   negative pre-activation must still satisfy the refined bounds. *)
let test_split_semantics () =
  let net = leaky_net ~seed:21 ~dims:[ 2; 4; 1 ] in
  let box = unit_box 2 in
  match Deeppoly.analyze net ~box ~splits:Splits.empty with
  | Deeppoly.Infeasible -> Alcotest.fail "infeasible"
  | Deeppoly.Feasible a -> (
      match Ivan_domains.Bounds.ambiguous_relus (Deeppoly.bounds a) net ~splits:Splits.empty with
      | [] -> Alcotest.fail "no ambiguous unit in fixture"
      | r :: _ -> (
          let splits = Splits.add r Splits.Neg Splits.empty in
          match Deeppoly.analyze net ~box ~splits with
          | Deeppoly.Infeasible -> Alcotest.fail "neg side empty"
          | Deeppoly.Feasible refined ->
              let b = Deeppoly.bounds refined in
              let layer = b.Ivan_domains.Bounds.layers.(r.Ivan_nn.Relu_id.layer) in
              let idx = r.Ivan_nn.Relu_id.index in
              Alcotest.(check bool) "pre clipped to <= 0" true
                (layer.Ivan_domains.Bounds.pre_hi.(idx) <= 1e-12);
              (* post = slope * pre on this side: post bounds scale. *)
              Alcotest.(check (float 1e-9)) "post lo = slope*pre lo"
                (slope *. layer.Ivan_domains.Bounds.pre_lo.(idx))
                layer.Ivan_domains.Bounds.post_lo.(idx)))

(* Full splitting makes the LP exact: min over all phase patterns equals
   the sampled minimum (within sampling error, from above). *)
let test_fully_split_exact () =
  let net = leaky_net ~seed:31 ~dims:[ 2; 3; 1 ] in
  let box = unit_box 2 in
  let prop = Prop.make ~name:"leaky" ~input:box ~c:(Vec.of_list [ 1.0 ]) ~offset:0.0 in
  let relus = Network.relu_ids net in
  let lp = Fixtures.lp_every_node () in
  let count = Array.length relus in
  let best = ref infinity in
  for mask = 0 to (1 lsl count) - 1 do
    let splits = ref Splits.empty in
    Array.iteri
      (fun i r ->
        let phase = if (mask lsr i) land 1 = 1 then Splits.Pos else Splits.Neg in
        splits := Splits.add r phase !splits)
      relus;
    let o = lp.Analyzer.run net ~prop ~box ~splits:!splits in
    if o.Analyzer.lb < !best then best := o.Analyzer.lb
  done;
  let sampled = Fixtures.approx_min_margin ~seed:32 net prop in
  Alcotest.(check bool) "exact min <= sampled min" true (!best <= sampled +. 1e-9);
  Alcotest.(check bool) "close to sampled min" true (sampled -. !best < 0.05)

(* Complete BaB on leaky networks: verdicts match sampled reality. *)
let test_bab_complete () =
  let analyzer = Analyzer.lp_triangle () in
  for seed = 41 to 45 do
    let net = leaky_net ~seed ~dims:[ 2; 4; 3; 1 ] in
    let box = unit_box 2 in
    let base = Prop.make ~name:"b" ~input:box ~c:(Vec.of_list [ 1.0 ]) ~offset:0.0 in
    let sampled = Fixtures.approx_min_margin ~seed net base in
    (* Choose offsets straddling the sampled min. *)
    List.iter
      (fun delta ->
        let prop = { base with Prop.offset = -.sampled +. delta } in
        let run =
          Bab.verify ~analyzer ~heuristic:Heuristic.zono_coeff
            ~budget:{ Bab.max_analyzer_calls = 300; max_seconds = 20.0 }
            ~net ~prop ()
        in
        match run.Bab.verdict with
        | Bab.Proved ->
            Alcotest.(check bool) "proved implies above sampled min" true (delta >= -1e-9)
        | Bab.Disproved x ->
            Alcotest.(check bool) "genuine CE" true (Analyzer.check_concrete net ~prop x)
        | Bab.Exhausted -> ())
      [ -0.05; 0.05; 0.2 ]
  done

let test_incremental_on_leaky () =
  let net = leaky_net ~seed:51 ~dims:[ 2; 5; 3; 1 ] in
  let box = unit_box 2 in
  let base = Prop.make ~name:"inc" ~input:box ~c:(Vec.of_list [ 1.0 ]) ~offset:0.0 in
  let sampled = Fixtures.approx_min_margin ~seed:51 net base in
  let prop = { base with Prop.offset = -.sampled +. 0.1 } in
  let updated = Quant.network Quant.Int8 net in
  let analyzer = Analyzer.lp_triangle () in
  let result =
    Ivan.verify_incremental ~analyzer ~heuristic:Heuristic.zono_coeff ~net ~updated ~prop ()
  in
  (match (result.Ivan.original.Bab.verdict, result.Ivan.updated.Bab.verdict) with
  | Bab.Proved, Bab.Proved | Bab.Proved, Bab.Disproved _ -> ()
  | Bab.Disproved _, _ -> ()
  | v, _ ->
      ignore v;
      Alcotest.fail "unexpected exhaustion on tiny leaky instance");
  (* Quantization of a leaky network preserves the architecture. *)
  Alcotest.(check bool) "arch preserved" true (Network.same_architecture net updated)

let suite =
  [
    ("forward semantics", `Quick, test_forward_semantics);
    ("invalid slope", `Quick, test_invalid_slope);
    ("relu ids include leaky", `Quick, test_relu_ids_include_leaky);
    ("serialize roundtrip", `Quick, test_serialize_roundtrip);
    ("training learns", `Quick, test_training_learns);
    ("domains sound", `Quick, test_domains_sound);
    ("split semantics", `Quick, test_split_semantics);
    ("fully split exact", `Quick, test_fully_split_exact);
    ("bab complete", `Quick, test_bab_complete);
    ("incremental on leaky", `Quick, test_incremental_on_leaky);
  ]
