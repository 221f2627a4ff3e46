(* Quantization sweep: the deployment scenario from the paper's intro.

   A trained classifier is repeatedly approximated for deployment —
   int16, int8, int6 — and each variant must be re-certified.  The
   sweep verifies the same robustness properties on every variant,
   comparing the from-scratch baseline against IVAN, which carries the
   proof of the previous float model forward.

   Run with:  dune exec examples/quantization_sweep.exe *)

module Quant = Ivan_nn.Quant
module Bab = Ivan_bab.Bab
module Ivan = Ivan_core.Ivan
module Zoo = Ivan_data.Zoo
module Runner = Ivan_harness.Runner
module Report = Ivan_harness.Report
module Workload = Ivan_harness.Workload

let schemes = [ Quant.Int16; Quant.Int8; Quant.Bits 6 ]

let () =
  let spec = Zoo.fcn_mnist in
  Format.printf "training (or loading) %s...@." spec.Zoo.name;
  let net = Zoo.load_or_train spec in
  Format.printf "float model test accuracy: %.3f@." (Zoo.accuracy spec net);
  let setting = Runner.classifier_setting () in
  let instances = Workload.robustness_instances ~spec ~net ~count:12 in
  Format.printf "verifying %d robustness properties per variant (eps = %.3f)@.@."
    (List.length instances) spec.Zoo.eps;
  Format.printf "%-8s %8s | %10s %10s | %10s %10s | %7s@." "scheme" "acc" "base-calls"
    "base-time" "ivan-calls" "ivan-time" "speedup";
  List.iter
    (fun scheme ->
      let updated = Quant.network scheme net in
      let acc = Zoo.accuracy spec updated in
      let comparisons =
        Runner.run_all setting ~net ~updated ~techniques:[ Ivan.Full ]
          instances
      in
      let total f = List.fold_left (fun a c -> a +. f c) 0.0 comparisons in
      let base_calls = total (fun c -> float_of_int (Runner.calls c.Runner.baseline)) in
      let base_time = total (fun c -> c.Runner.baseline.Runner.seconds) in
      let ivan_of c = Report.technique_measurement c Ivan.Full in
      let ivan_calls = total (fun c -> float_of_int (Runner.calls (ivan_of c))) in
      let ivan_time = total (fun c -> (ivan_of c).Runner.seconds) in
      let s = Report.summarize comparisons Ivan.Full in
      Format.printf "%-8s %8.3f | %10.0f %9.2fs | %10.0f %9.2fs | %6.2fx@."
        (Quant.scheme_name scheme) acc base_calls base_time ivan_calls ivan_time s.Report.sp_time)
    schemes;
  Format.printf
    "@.The coarser the quantization, the further the proof tree drifts from the@.\
     original's — speedups shrink (and can dip below 1x) exactly as in the@.\
     paper's Table 3 stress test.@."
