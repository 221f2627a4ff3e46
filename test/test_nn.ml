(* Tests for the network substrate: layers, conv lowering, quantization,
   perturbations, serialization. *)

module Vec = Ivan_tensor.Vec
module Mat = Ivan_tensor.Mat
module Rng = Ivan_tensor.Rng
module Layer = Ivan_nn.Layer
module Network = Ivan_nn.Network
module Builder = Ivan_nn.Builder
module Quant = Ivan_nn.Quant
module Perturb = Ivan_nn.Perturb
module Serialize = Ivan_nn.Serialize
module Relu_id = Ivan_nn.Relu_id

let dense_layer ?(activation = Layer.Relu) weights bias =
  Layer.make (Layer.Dense { weights = Mat.of_arrays weights; bias }) activation

(* The running-example network N from the paper's Fig. 2 is a handy
   ground truth: 2 inputs, two hidden ReLU layers of width 2, 1 output. *)
let paper_network () =
  Network.make
    [
      dense_layer [| [| 2.0; -1.0 |]; [| 1.0; 1.0 |] |] [| 0.0; 0.0 |];
      dense_layer [| [| 1.0; -2.0 |]; [| -1.0; 1.0 |] |] [| 0.0; 0.0 |];
      dense_layer ~activation:Layer.Identity [| [| 1.0; -1.0 |] |] [| 0.0 |];
    ]

let test_layer_forward () =
  let l = dense_layer [| [| 1.0; -1.0 |]; [| 2.0; 0.0 |] |] [| 0.5; -3.0 |] in
  let out = Layer.forward l (Vec.of_list [ 1.0; 2.0 ]) in
  Alcotest.(check bool) "relu clamps" true (Vec.equal out (Vec.of_list [ 0.0; 0.0 ]));
  let pre = Layer.pre_activation l (Vec.of_list [ 1.0; 2.0 ]) in
  Alcotest.(check bool) "pre-activation" true (Vec.equal pre (Vec.of_list [ -0.5; -1.0 ]))

let test_layer_bad_bias () =
  Alcotest.check_raises "bias mismatch"
    (Invalid_argument "Layer.make: dense bias length must equal weight rows") (fun () ->
      ignore (dense_layer [| [| 1.0 |] |] [| 1.0; 2.0 |]))

let test_network_dims () =
  let n = paper_network () in
  Alcotest.(check int) "input" 2 (Network.input_dim n);
  Alcotest.(check int) "output" 1 (Network.output_dim n);
  Alcotest.(check int) "layers" 3 (Network.num_layers n);
  Alcotest.(check int) "relus" 4 (Network.num_relus n);
  Alcotest.(check int) "neurons" 5 (Network.num_neurons n)

let test_network_mismatch () =
  let l1 = dense_layer [| [| 1.0; 1.0 |] |] [| 0.0 |] in
  let l2 = dense_layer [| [| 1.0; 1.0 |] |] [| 0.0 |] in
  Alcotest.check_raises "chain mismatch"
    (Invalid_argument "Network.make: layer 0 outputs 1 but layer 1 expects 2") (fun () ->
      ignore (Network.make [ l1; l2 ]))

let test_network_forward () =
  let n = paper_network () in
  (* x = (1, 0): layer1 pre (2, 1) -> post (2, 1); layer2 pre (0, -1) ->
     post (0, 0); output 0. *)
  let y = Network.forward n (Vec.of_list [ 1.0; 0.0 ]) in
  Alcotest.(check (float 1e-12)) "forward" 0.0 (Vec.get y 0)

let test_forward_trace () =
  let n = paper_network () in
  let tr = Network.forward_trace n (Vec.of_list [ 1.0; 0.0 ]) in
  Alcotest.(check bool) "pre layer0" true (Vec.equal tr.pre.(0) (Vec.of_list [ 2.0; 1.0 ]));
  Alcotest.(check bool) "post layer0" true (Vec.equal tr.post.(0) (Vec.of_list [ 2.0; 1.0 ]));
  Alcotest.(check bool) "pre layer1" true (Vec.equal tr.pre.(1) (Vec.of_list [ 0.0; -1.0 ]));
  Alcotest.(check bool) "post layer1" true (Vec.equal tr.post.(1) (Vec.of_list [ 0.0; 0.0 ]))

let test_relu_ids () =
  let n = paper_network () in
  let ids = Network.relu_ids n in
  Alcotest.(check int) "count" 4 (Array.length ids);
  Alcotest.(check bool) "first" true (Relu_id.equal ids.(0) (Relu_id.make ~layer:0 ~index:0));
  Alcotest.(check bool) "last" true (Relu_id.equal ids.(3) (Relu_id.make ~layer:1 ~index:1))

let test_same_architecture () =
  let n = paper_network () in
  let m = Network.map_weights (fun w -> w +. 0.25) n in
  Alcotest.(check bool) "same arch after update" true (Network.same_architecture n m);
  let other = Builder.dense_net ~rng:(Rng.create 1) ~dims:[ 2; 3; 1 ] in
  Alcotest.(check bool) "different arch" false (Network.same_architecture n other)

(* Conv layer vs direct dense lowering: forward must agree. *)
let conv_fixture rng =
  let spec =
    {
      Layer.in_channels = 2;
      in_height = 4;
      in_width = 4;
      out_channels = 3;
      kernel_h = 3;
      kernel_w = 3;
      stride = 1;
      padding = 1;
    }
  in
  let kernel = Array.init (3 * 2 * 3 * 3) (fun _ -> Rng.gaussian rng) in
  let bias = Array.init 3 (fun _ -> Rng.gaussian rng) in
  Layer.make (Layer.Conv2d { spec; kernel; bias }) Layer.Relu

let test_conv_dims () =
  let l = conv_fixture (Rng.create 5) in
  Alcotest.(check int) "in" 32 (Layer.input_dim l);
  Alcotest.(check int) "out" 48 (Layer.output_dim l)

let test_conv_dense_agree () =
  let rng = Rng.create 6 in
  let l = conv_fixture rng in
  let w, b = Layer.dense_affine l in
  for _ = 1 to 10 do
    let x = Array.init (Layer.input_dim l) (fun _ -> Rng.gaussian rng) in
    let direct = Layer.pre_activation l x in
    let lowered = Vec.add (Mat.matvec w x) b in
    Alcotest.(check bool) "conv = dense lowering" true (Vec.equal ~eps:1e-9 direct lowered)
  done

let test_conv_stride_padding () =
  let spec =
    {
      Layer.in_channels = 1;
      in_height = 5;
      in_width = 5;
      out_channels = 1;
      kernel_h = 3;
      kernel_w = 3;
      stride = 2;
      padding = 0;
    }
  in
  Alcotest.(check int) "out height" 2 (Layer.conv_out_height spec);
  Alcotest.(check int) "out width" 2 (Layer.conv_out_width spec);
  (* Sum kernel over an all-ones image gives 9 per window. *)
  let kernel = Array.make 9 1.0 in
  let l = Layer.make (Layer.Conv2d { spec; kernel; bias = [| 0.0 |] }) Layer.Identity in
  let out = Layer.forward l (Array.make 25 1.0) in
  Alcotest.(check bool) "windows sum to 9" true (Vec.equal out (Vec.of_list [ 9.0; 9.0; 9.0; 9.0 ]))

let test_builder_dense_shapes () =
  let n = Builder.dense_net ~rng:(Rng.create 7) ~dims:[ 4; 8; 8; 3 ] in
  Alcotest.(check int) "input" 4 (Network.input_dim n);
  Alcotest.(check int) "output" 3 (Network.output_dim n);
  Alcotest.(check int) "relus" 16 (Network.num_relus n);
  let last = (Network.layers n).(2) in
  Alcotest.(check bool) "last layer identity" true (Layer.activation last = Layer.Identity)

let test_builder_conv_shapes () =
  let n =
    Builder.conv_net ~rng:(Rng.create 8) ~in_channels:1 ~in_height:6 ~in_width:6
      ~convs:[ { Builder.out_channels = 2; kernel = 3; stride = 1; padding = 0 } ]
      ~dense:[ 10; 2 ]
  in
  Alcotest.(check int) "input" 36 (Network.input_dim n);
  Alcotest.(check int) "output" 2 (Network.output_dim n);
  (* conv out: 2 x 4 x 4 = 32 relus, plus 10 hidden = 42. *)
  Alcotest.(check int) "relus" 42 (Network.num_relus n)

let test_quant_idempotent_on_grid () =
  let scale = Quant.tensor_scale ~bits:8 [| 1.0; -0.5; 0.25 |] in
  let q = Quant.quantize_value ~scale 0.7 in
  Alcotest.(check (float 1e-12)) "re-quantizing is identity" q (Quant.quantize_value ~scale q)

let test_quant_error_bound () =
  let rng = Rng.create 9 in
  let values = Array.init 100 (fun _ -> Rng.uniform rng (-2.0) 2.0) in
  let scale = Quant.tensor_scale ~bits:8 values in
  Array.iter
    (fun v ->
      let q = Quant.quantize_value ~scale v in
      Alcotest.(check bool) "error <= scale/2" true (Float.abs (q -. v) <= (scale /. 2.0) +. 1e-12))
    values

let test_quant_int16_closer_than_int8 () =
  let rng = Rng.create 10 in
  let n = Builder.dense_net ~rng ~dims:[ 3; 8; 2 ] in
  let distance a b =
    let da = Network.layers a and db = Network.layers b in
    let acc = ref 0.0 in
    Array.iteri
      (fun i la ->
        let wa, ba = Layer.dense_affine la and wb, bb = Layer.dense_affine db.(i) in
        acc := !acc +. Mat.frobenius_norm (Mat.sub wa wb) +. Vec.norm2 (Vec.sub ba bb))
      da;
    !acc
  in
  let d16 = distance n (Quant.network Quant.Int16 n) in
  let d8 = distance n (Quant.network Quant.Int8 n) in
  Alcotest.(check bool) "int16 distance < int8 distance" true (d16 < d8);
  Alcotest.(check bool) "int16 perturbs at all" true (d16 > 0.0)

let test_quant_preserves_architecture () =
  let n = Builder.dense_net ~rng:(Rng.create 11) ~dims:[ 3; 5; 2 ] in
  Alcotest.(check bool) "same arch" true (Network.same_architecture n (Quant.network Quant.Int8 n))

let test_perturb_relative_bound () =
  let rng = Rng.create 12 in
  let n = Builder.dense_net ~rng ~dims:[ 3; 6; 2 ] in
  let p = Perturb.random_relative ~rng ~fraction:0.05 n in
  let wn, _ = Network.last_dense n and wp, _ = Network.last_dense p in
  for i = 0 to Mat.rows wn - 1 do
    for j = 0 to Mat.cols wn - 1 do
      let orig = Mat.get wn i j and pert = Mat.get wp i j in
      Alcotest.(check bool) "within 5%" true
        (Float.abs (pert -. orig) <= (Float.abs orig *. 0.05) +. 1e-12)
    done
  done

let test_perturb_last_layer_norm () =
  let rng = Rng.create 13 in
  let n = Builder.dense_net ~rng ~dims:[ 3; 6; 2 ] in
  let delta = 0.1 in
  let p = Perturb.last_layer ~rng ~delta n in
  let wn, _ = Network.last_dense n and wp, _ = Network.last_dense p in
  Alcotest.(check (float 1e-9)) "frobenius norm = delta" delta (Mat.frobenius_norm (Mat.sub wp wn));
  (* Earlier layers untouched. *)
  let l0n = (Network.layers n).(0) and l0p = (Network.layers p).(0) in
  let w0n, _ = Layer.dense_affine l0n and w0p, _ = Layer.dense_affine l0p in
  Alcotest.(check bool) "first layer unchanged" true (Mat.equal w0n w0p)

let test_serialize_roundtrip_dense () =
  let n = Builder.dense_net ~rng:(Rng.create 14) ~dims:[ 4; 7; 3 ] in
  let n' = Serialize.of_string (Serialize.to_string n) in
  Alcotest.(check bool) "same arch" true (Network.same_architecture n n');
  let rng = Rng.create 15 in
  for _ = 1 to 5 do
    let x = Array.init 4 (fun _ -> Rng.gaussian rng) in
    Alcotest.(check bool) "same outputs" true
      (Vec.equal ~eps:0.0 (Network.forward n x) (Network.forward n' x))
  done

let test_serialize_roundtrip_conv () =
  let n =
    Builder.conv_net ~rng:(Rng.create 16) ~in_channels:1 ~in_height:5 ~in_width:5
      ~convs:[ { Builder.out_channels = 2; kernel = 3; stride = 2; padding = 1 } ]
      ~dense:[ 6; 2 ]
  in
  let n' = Serialize.of_string (Serialize.to_string n) in
  let x = Array.init 25 (fun i -> float_of_int i /. 25.0) in
  Alcotest.(check bool) "conv roundtrip outputs" true
    (Vec.equal ~eps:0.0 (Network.forward n x) (Network.forward n' x))

let test_serialize_file_roundtrip () =
  let n = Builder.dense_net ~rng:(Rng.create 17) ~dims:[ 2; 3; 1 ] in
  let path = Filename.temp_file "ivan_net" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Serialize.to_file path n;
      let n' = Serialize.of_file path in
      Alcotest.(check bool) "file roundtrip" true (Network.same_architecture n n'))

let test_serialize_malformed () =
  (match Serialize.of_string "garbage" with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected Failure on garbage");
  match Serialize.of_string "network 1\nlayer dense 1 1 bogus\nbias: 0x0p+0\nrow: 0x0p+0" with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected Failure on bad activation"

let prop_quant_error_shrinks_with_bits =
  QCheck.Test.make ~name:"quantization error shrinks with more bits" ~count:100
    QCheck.(make QCheck.Gen.(array_size (return 12) (float_range (-3.0) 3.0)))
    (fun values ->
      QCheck.assume (Array.exists (fun v -> Float.abs v > 1e-6) values);
      let err bits =
        let scale = Quant.tensor_scale ~bits values in
        Array.fold_left
          (fun acc v -> acc +. Float.abs (Quant.quantize_value ~scale v -. v))
          0.0 values
      in
      err 16 <= err 8 +. 1e-12)

let prop_relu_id_ordering =
  QCheck.Test.make ~name:"relu ids sorted" ~count:50
    QCheck.(make QCheck.Gen.(pair (int_range 2 5) (int_range 1 6)))
    (fun (layers, width) ->
      let dims = List.init (layers + 1) (fun _ -> width) in
      let n = Builder.dense_net ~rng:(Rng.create 99) ~dims in
      let ids = Network.relu_ids n in
      let sorted = Array.copy ids in
      Array.sort Relu_id.compare sorted;
      Array.for_all2 Relu_id.equal ids sorted)



(* ---------------- Product networks ---------------- *)

module Product = Ivan_nn.Product

let test_product_forward () =
  let a = Builder.dense_net ~rng:(Rng.create 81) ~dims:[ 3; 5; 2 ] in
  let b = Builder.dense_net ~rng:(Rng.create 82) ~dims:[ 3; 5; 2 ] in
  let p = Product.product a b in
  Alcotest.(check int) "input" 3 (Network.input_dim p);
  Alcotest.(check int) "output" 4 (Network.output_dim p);
  let rng = Rng.create 83 in
  for _ = 1 to 20 do
    let x = Array.init 3 (fun _ -> Rng.gaussian rng) in
    let y = Network.forward p x in
    let ya = Network.forward a x and yb = Network.forward b x in
    Alcotest.(check bool) "first block" true (Vec.equal ~eps:1e-9 (Array.sub y 0 2) ya);
    Alcotest.(check bool) "second block" true (Vec.equal ~eps:1e-9 (Array.sub y 2 2) yb)
  done

let test_product_conv () =
  let mk seed =
    Builder.conv_net ~rng:(Rng.create seed) ~in_channels:1 ~in_height:4 ~in_width:4
      ~convs:[ { Builder.out_channels = 2; kernel = 3; stride = 1; padding = 1 } ]
      ~dense:[ 6; 2 ]
  in
  let a = mk 84 and b = mk 85 in
  let p = Product.product a b in
  let x = Array.init 16 (fun i -> float_of_int i /. 16.0) in
  let y = Network.forward p x in
  Alcotest.(check bool) "conv product forward" true
    (Vec.equal ~eps:1e-9 (Array.sub y 0 2) (Network.forward a x)
    && Vec.equal ~eps:1e-9 (Array.sub y 2 2) (Network.forward b x))

let test_product_shape_checks () =
  let a = Builder.dense_net ~rng:(Rng.create 86) ~dims:[ 2; 3; 1 ] in
  let b = Builder.dense_net ~rng:(Rng.create 87) ~dims:[ 3; 3; 1 ] in
  Alcotest.check_raises "input dims" (Invalid_argument "Product.product: input dimensions differ")
    (fun () -> ignore (Product.product a b));
  let c = Builder.dense_net ~rng:(Rng.create 88) ~dims:[ 2; 3; 3; 1 ] in
  Alcotest.check_raises "layer counts" (Invalid_argument "Product.product: layer counts differ")
    (fun () -> ignore (Product.product a c))

let test_product_same_architecture_of_updates () =
  (* Products with different updates of the same base share an
     architecture -- the precondition for incremental differential
     verification. *)
  let base = Builder.dense_net ~rng:(Rng.create 89) ~dims:[ 2; 4; 2 ] in
  let u1 = Quant.network Quant.Int16 base in
  let u2 = Quant.network Quant.Int8 base in
  Alcotest.(check bool) "products share architecture" true
    (Network.same_architecture (Product.product base u1) (Product.product base u2))



(* ---------------- Magnitude pruning ---------------- *)

let test_magnitude_prune_fraction () =
  let n = Builder.dense_net ~rng:(Rng.create 91) ~dims:[ 4; 10; 3 ] in
  let p = Perturb.magnitude_prune ~fraction:0.5 n in
  Alcotest.(check bool) "same arch" true (Network.same_architecture n p);
  (* Roughly half of each layer's weights become zero. *)
  Array.iteri
    (fun i layer ->
      let w, _ = Layer.dense_affine layer in
      let total = Mat.rows w * Mat.cols w in
      let zeros = ref 0 in
      for r = 0 to Mat.rows w - 1 do
        for c = 0 to Mat.cols w - 1 do
          if Mat.get w r c = 0.0 then incr zeros
        done
      done;
      Alcotest.(check bool)
        (Printf.sprintf "layer %d about half pruned (%d/%d)" i !zeros total)
        true
        (float_of_int !zeros >= 0.4 *. float_of_int total))
    (Network.layers p)

let test_magnitude_prune_extremes () =
  let n = Builder.dense_net ~rng:(Rng.create 92) ~dims:[ 3; 5; 2 ] in
  (* fraction 0: identity on the weights. *)
  let p0 = Perturb.magnitude_prune ~fraction:0.0 n in
  let w, _ = Network.last_dense n and w0, _ = Network.last_dense p0 in
  Alcotest.(check bool) "fraction 0 unchanged" true (Mat.equal w w0);
  (* fraction 1: everything zero. *)
  let p1 = Perturb.magnitude_prune ~fraction:1.0 n in
  let w1, _ = Network.last_dense p1 in
  Alcotest.(check (float 0.0)) "fraction 1 zero" 0.0 (Mat.max_abs w1);
  Alcotest.check_raises "bad fraction"
    (Invalid_argument "Perturb.magnitude_prune: fraction must be in [0, 1]") (fun () ->
      ignore (Perturb.magnitude_prune ~fraction:1.5 n))

let test_magnitude_prune_keeps_large_weights () =
  let n = Builder.dense_net ~rng:(Rng.create 93) ~dims:[ 3; 6; 2 ] in
  let p = Perturb.magnitude_prune ~fraction:0.3 n in
  let w, _ = Network.last_dense n and wp, _ = Network.last_dense p in
  (* The largest-magnitude weight always survives. *)
  let best = ref (0, 0) in
  for r = 0 to Mat.rows w - 1 do
    for c = 0 to Mat.cols w - 1 do
      let br, bc = !best in
      if Float.abs (Mat.get w r c) > Float.abs (Mat.get w br bc) then best := (r, c)
    done
  done;
  let br, bc = !best in
  Alcotest.(check (float 0.0)) "max weight survives" (Mat.get w br bc) (Mat.get wp br bc)

let suite =
  let q = QCheck_alcotest.to_alcotest in
  [
    ("layer forward", `Quick, test_layer_forward);
    ("layer bad bias", `Quick, test_layer_bad_bias);
    ("network dims", `Quick, test_network_dims);
    ("network mismatch", `Quick, test_network_mismatch);
    ("network forward", `Quick, test_network_forward);
    ("forward trace", `Quick, test_forward_trace);
    ("relu ids", `Quick, test_relu_ids);
    ("same architecture", `Quick, test_same_architecture);
    ("conv dims", `Quick, test_conv_dims);
    ("conv dense lowering agrees", `Quick, test_conv_dense_agree);
    ("conv stride/padding", `Quick, test_conv_stride_padding);
    ("builder dense shapes", `Quick, test_builder_dense_shapes);
    ("builder conv shapes", `Quick, test_builder_conv_shapes);
    ("quant idempotent on grid", `Quick, test_quant_idempotent_on_grid);
    ("quant error bound", `Quick, test_quant_error_bound);
    ("quant int16 closer than int8", `Quick, test_quant_int16_closer_than_int8);
    ("quant preserves architecture", `Quick, test_quant_preserves_architecture);
    ("perturb relative bound", `Quick, test_perturb_relative_bound);
    ("perturb last layer norm", `Quick, test_perturb_last_layer_norm);
    ("serialize dense roundtrip", `Quick, test_serialize_roundtrip_dense);
    ("serialize conv roundtrip", `Quick, test_serialize_roundtrip_conv);
    ("serialize file roundtrip", `Quick, test_serialize_file_roundtrip);
    ("serialize malformed", `Quick, test_serialize_malformed);
    q prop_quant_error_shrinks_with_bits;
    q prop_relu_id_ordering;
    ("product forward", `Quick, test_product_forward);
    ("product conv", `Quick, test_product_conv);
    ("product shape checks", `Quick, test_product_shape_checks);
    ("product arch of updates", `Quick, test_product_same_architecture_of_updates);
    ("magnitude prune fraction", `Quick, test_magnitude_prune_fraction);
    ("magnitude prune extremes", `Quick, test_magnitude_prune_extremes);
    ("magnitude prune keeps large", `Quick, test_magnitude_prune_keeps_large_weights);
  ]
