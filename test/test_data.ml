(* Tests for the data layer: synthetic datasets, the ACAS oracle and
   property suite, the model zoo. *)

module Vec = Ivan_tensor.Vec
module Rng = Ivan_tensor.Rng
module Network = Ivan_nn.Network
module Box = Ivan_spec.Box
module Prop = Ivan_spec.Prop
module Synth = Ivan_data.Synth
module Acas = Ivan_data.Acas
module Zoo = Ivan_data.Zoo

(* ---------------- Synth ---------------- *)

let test_synth_shapes () =
  let d = Synth.generate ~rng:(Rng.create 1) ~channels:3 ~side:5 ~num_classes:4 ~count:40 ~noise:0.1 in
  Alcotest.(check int) "count" 40 (Array.length d.Synth.inputs);
  Alcotest.(check int) "labels" 40 (Array.length d.Synth.labels);
  Array.iter (fun x -> Alcotest.(check int) "dim" 75 (Vec.dim x)) d.Synth.inputs

let test_synth_range () =
  let d = Synth.mnist_like ~rng:(Rng.create 2) ~count:50 in
  Array.iter
    (fun x -> Array.iter (fun v -> Alcotest.(check bool) "pixel in [0,1]" true (v >= 0.0 && v <= 1.0)) x)
    d.Synth.inputs

let test_synth_balanced () =
  let d = Synth.generate ~rng:(Rng.create 3) ~channels:1 ~side:4 ~num_classes:5 ~count:50 ~noise:0.05 in
  let counts = Array.make 5 0 in
  Array.iter (fun l -> counts.(l) <- counts.(l) + 1) d.Synth.labels;
  Array.iter (fun c -> Alcotest.(check int) "balanced" 10 c) counts

let test_synth_deterministic () =
  let a = Synth.mnist_like ~rng:(Rng.create 4) ~count:10 in
  let b = Synth.mnist_like ~rng:(Rng.create 4) ~count:10 in
  Alcotest.(check bool) "same inputs" true
    (Array.for_all2 (fun x y -> Vec.equal ~eps:0.0 x y) a.Synth.inputs b.Synth.inputs)

let test_synth_prefix_stable () =
  (* Same seed, larger count: the prefix must coincide (disjoint
     train/test splitting depends on this). *)
  let small = Synth.mnist_like ~rng:(Rng.create 5) ~count:20 in
  let large = Synth.mnist_like ~rng:(Rng.create 5) ~count:30 in
  for i = 0 to 19 do
    Alcotest.(check bool) "prefix equal" true
      (Vec.equal ~eps:0.0 small.Synth.inputs.(i) large.Synth.inputs.(i));
    Alcotest.(check int) "label equal" small.Synth.labels.(i) large.Synth.labels.(i)
  done

let test_synth_split () =
  let d = Synth.mnist_like ~rng:(Rng.create 6) ~count:40 in
  let train, test = Synth.split d ~train_fraction:0.75 in
  Alcotest.(check int) "train" 30 (Array.length train.Synth.inputs);
  Alcotest.(check int) "test" 10 (Array.length test.Synth.inputs)

let test_synth_invalid () =
  Alcotest.check_raises "bad sizes" (Invalid_argument "Synth.generate: sizes must be positive")
    (fun () ->
      ignore (Synth.generate ~rng:(Rng.create 1) ~channels:0 ~side:4 ~num_classes:2 ~count:4 ~noise:0.1))

(* ---------------- Acas ---------------- *)

let test_acas_oracle_distant () =
  (* Distant traffic is clear of conflict regardless of other state. *)
  let rng = Rng.create 7 in
  for _ = 1 to 100 do
    let x = [| Rng.uniform rng 0.7 1.0; Rng.float rng 1.0; Rng.float rng 1.0; Rng.float rng 1.0; Rng.float rng 1.0 |] in
    Alcotest.(check bool) "clear" true (Acas.oracle x = Acas.Clear_of_conflict)
  done

let test_acas_oracle_sides () =
  (* Close urgent traffic turns away from the intruder's side. *)
  let left_intruder = [| 0.1; 0.9; 0.5; 0.9; 0.9 |] in
  (match Acas.oracle left_intruder with
  | Acas.Weak_left | Acas.Strong_left -> ()
  | _ -> Alcotest.fail "expected a left advisory");
  let right_intruder = [| 0.1; 0.1; 0.5; 0.9; 0.9 |] in
  match Acas.oracle right_intruder with
  | Acas.Weak_right | Acas.Strong_right -> ()
  | _ -> Alcotest.fail "expected a right advisory"

let test_acas_oracle_dim () =
  Alcotest.check_raises "dim" (Invalid_argument "Acas.oracle: expected a 5-dimensional state")
    (fun () -> ignore (Acas.oracle [| 0.0 |]))

let test_acas_dataset () =
  let inputs, labels = Acas.dataset ~rng:(Rng.create 8) ~count:100 in
  Alcotest.(check int) "count" 100 (Array.length inputs);
  Array.iteri
    (fun i x -> Alcotest.(check int) "label = oracle" (Acas.advisory_index (Acas.oracle x)) labels.(i))
    inputs

let test_acas_architecture () =
  let net = Acas.architecture ~rng:(Rng.create 9) in
  Alcotest.(check int) "inputs" 5 (Network.input_dim net);
  Alcotest.(check int) "outputs" 5 (Network.output_dim net);
  Alcotest.(check int) "relus" 300 (Network.num_relus net);
  Alcotest.(check int) "layers" 7 (Network.num_layers net)

let test_acas_regions_within_unit_box () =
  List.iter
    (fun (_, region) ->
      Alcotest.(check int) "dim" 5 (Box.dim region);
      for j = 0 to 4 do
        Alcotest.(check bool) "within [0,1]" true
          (Box.lo_at region j >= 0.0 && Box.hi_at region j <= 1.0)
      done)
    Acas.property_regions

let test_acas_properties_shape () =
  (* Use a small untrained network: properties only need forward
     evaluation for calibration. *)
  let net = Ivan_nn.Builder.dense_net ~rng:(Rng.create 10) ~dims:[ 5; 8; 5 ] in
  let props = Acas.properties ~net ~margin:0.5 ~rng:(Rng.create 11) in
  Alcotest.(check int) "one per region" (List.length Acas.property_regions) (List.length props);
  List.iter
    (fun p ->
      (* The bound sits between the sampled max and the certified max,
         so the property holds at sampled points. *)
      let rng = Rng.create 12 in
      for _ = 1 to 200 do
        let x = Box.sample ~rng p.Prop.input in
        Alcotest.(check bool) "holds at samples" true (Prop.holds_at p (Network.forward net x))
      done)
    props

(* ---------------- Zoo ---------------- *)

let test_zoo_untrained_shapes () =
  List.iter
    (fun spec ->
      let net = Zoo.untrained spec in
      let expected_in = if spec.Zoo.kind = Zoo.Acas then 5 else Network.input_dim net in
      Alcotest.(check int) (spec.Zoo.name ^ " input dim") expected_in (Network.input_dim net);
      let expected_out = if spec.Zoo.kind = Zoo.Acas then 5 else 10 in
      Alcotest.(check int) (spec.Zoo.name ^ " output dim") expected_out (Network.output_dim net))
    Zoo.table1

let test_zoo_datasets_disjoint () =
  let spec = Zoo.fcn_mnist in
  let train_inputs, _ = Zoo.training_set spec in
  let test_inputs, _ = Zoo.test_set spec in
  (* No test input equals any train input (fresh noise). *)
  Array.iter
    (fun t ->
      Alcotest.(check bool) "disjoint" false
        (Array.exists (fun tr -> Vec.equal ~eps:0.0 tr t) train_inputs))
    (Array.sub test_inputs 0 10)

let test_zoo_train_deterministic_and_accurate () =
  let spec = Zoo.fcn_mnist in
  let a = Zoo.train spec in
  let b = Zoo.train spec in
  let x = (fst (Zoo.test_set spec)).(0) in
  Alcotest.(check bool) "deterministic" true
    (Vec.equal ~eps:0.0 (Network.forward a x) (Network.forward b x));
  Alcotest.(check bool) "accurate" true (Zoo.accuracy spec a >= 0.9)

let test_zoo_cache_roundtrip () =
  let spec = Zoo.fcn_mnist in
  let dir = Filename.temp_file "ivan_zoo" "" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () ->
      let first = Zoo.load_or_train ~cache_dir:dir spec in
      Alcotest.(check bool) "cache file created" true
        (Sys.file_exists (Filename.concat dir (spec.Zoo.name ^ ".net")));
      let second = Zoo.load_or_train ~cache_dir:dir spec in
      let x = (fst (Zoo.test_set spec)).(0) in
      Alcotest.(check bool) "cached equals trained" true
        (Vec.equal ~eps:0.0 (Network.forward first x) (Network.forward second x)))

let suite =
  [
    ("synth shapes", `Quick, test_synth_shapes);
    ("synth range", `Quick, test_synth_range);
    ("synth balanced", `Quick, test_synth_balanced);
    ("synth deterministic", `Quick, test_synth_deterministic);
    ("synth prefix stable", `Quick, test_synth_prefix_stable);
    ("synth split", `Quick, test_synth_split);
    ("synth invalid", `Quick, test_synth_invalid);
    ("acas oracle distant", `Quick, test_acas_oracle_distant);
    ("acas oracle sides", `Quick, test_acas_oracle_sides);
    ("acas oracle dim", `Quick, test_acas_oracle_dim);
    ("acas dataset", `Quick, test_acas_dataset);
    ("acas architecture", `Quick, test_acas_architecture);
    ("acas regions in unit box", `Quick, test_acas_regions_within_unit_box);
    ("acas properties shape", `Quick, test_acas_properties_shape);
    ("zoo untrained shapes", `Quick, test_zoo_untrained_shapes);
    ("zoo datasets disjoint", `Quick, test_zoo_datasets_disjoint);
    ("zoo train deterministic", `Quick, test_zoo_train_deterministic_and_accurate);
    ("zoo cache roundtrip", `Quick, test_zoo_cache_roundtrip);
  ]
