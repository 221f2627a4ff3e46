(* Model repair: fine-tuning an updated network and re-certifying it.

   The intro's motivating loop: a deployed classifier misbehaves on some
   inputs; a few SGD steps repair it; the repaired network must be
   re-verified.  Fine-tuning perturbs weights across every layer — the
   update class the paper targets — so IVAN re-proves the robustness
   properties by reusing the original proofs.

   Run with:  dune exec examples/model_repair.exe *)

module Vec = Ivan_tensor.Vec
module Rng = Ivan_tensor.Rng
module Network = Ivan_nn.Network
module Sgd = Ivan_train.Sgd
module Bab = Ivan_bab.Bab
module Ivan = Ivan_core.Ivan
module Zoo = Ivan_data.Zoo
module Runner = Ivan_harness.Runner
module Report = Ivan_harness.Report
module Workload = Ivan_harness.Workload

let () =
  let spec = Zoo.conv_mnist in
  Format.printf "training (or loading) %s...@." spec.Zoo.name;
  let net = Zoo.load_or_train spec in
  let test_inputs, test_labels = Zoo.test_set spec in
  Format.printf "accuracy before repair: %.3f@."
    (Sgd.accuracy net ~inputs:test_inputs ~labels:test_labels);

  (* "Buggy" inputs: corrupted test samples the model should also get
     right.  Repair = a couple of low-rate epochs on original + buggy
     data (so the fix does not forget the training set). *)
  let rng = Rng.create 777 in
  let corrupt x =
    Array.map (fun v -> Float.max 0.0 (Float.min 1.0 (v +. (0.15 *. Rng.gaussian rng)))) x
  in
  let buggy_inputs = Array.map corrupt (Array.sub test_inputs 0 40) in
  let buggy_labels = Array.sub test_labels 0 40 in
  let train_inputs, train_labels = Zoo.training_set spec in
  let inputs = Array.append train_inputs buggy_inputs in
  let labels = Array.append train_labels buggy_labels in
  let config = { Sgd.default_config with epochs = 2; learning_rate = 0.005 } in
  let repaired = Sgd.train_classifier ~rng ~config net ~inputs ~labels in
  Format.printf "accuracy after repair:  %.3f (buggy subset: %.3f -> %.3f)@.@."
    (Sgd.accuracy repaired ~inputs:test_inputs ~labels:test_labels)
    (Sgd.accuracy net ~inputs:buggy_inputs ~labels:buggy_labels)
    (Sgd.accuracy repaired ~inputs:buggy_inputs ~labels:buggy_labels);

  (* Quantify how far the repair moved the weights. *)
  let drift =
    let total = ref 0.0 in
    Array.iteri
      (fun i la ->
        let wa, _ = Ivan_nn.Layer.dense_affine la in
        let wb, _ = Ivan_nn.Layer.dense_affine (Network.layers repaired).(i) in
        total := !total +. Ivan_tensor.Mat.frobenius_norm (Ivan_tensor.Mat.sub wa wb))
      (Network.layers net);
    !total
  in
  Format.printf "total weight drift (Frobenius): %.4f@.@." drift;

  (* Re-certify the robustness properties on the repaired network. *)
  let setting = Runner.classifier_setting () in
  let instances = Workload.robustness_instances ~spec ~net ~count:10 in
  let comparisons =
    Runner.run_all setting ~net ~updated:repaired ~techniques:[ Ivan.Reuse; Ivan.Full ] instances
  in
  Format.printf "%-22s %14s %14s %14s@." "property" "baseline" "IVAN[reuse]" "IVAN";
  List.iter
    (fun (c : Runner.comparison) ->
      let cell (m : Runner.timed) =
        let v =
          match m.Runner.run.Bab.verdict with
          | Bab.Proved -> 'V'
          | Bab.Disproved _ -> 'C'
          | Bab.Exhausted -> 'U'
        in
        Printf.sprintf "%c %4d calls" v (Runner.calls m)
      in
      Format.printf "%-22s %14s %14s %14s@." c.Runner.instance.Workload.prop.Ivan_spec.Prop.name
        (cell c.Runner.baseline)
        (cell (Report.technique_measurement c Ivan.Reuse))
        (cell (Report.technique_measurement c Ivan.Full)))
    comparisons;
  let s = Report.summarize comparisons Ivan.Full in
  Format.printf "@.overall IVAN speedup on re-certification: %.2fx (calls %.2fx)@."
    s.Report.sp_time s.Report.sp_calls
