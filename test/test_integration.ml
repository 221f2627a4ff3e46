(* End-to-end integration tests: trained models through the full
   verification and incremental-verification pipeline, and the
   experiment drivers producing their reports. *)

module Vec = Ivan_tensor.Vec
module Rng = Ivan_tensor.Rng
module Network = Ivan_nn.Network
module Quant = Ivan_nn.Quant
module Analyzer = Ivan_analyzer.Analyzer
module Heuristic = Ivan_bab.Heuristic
module Bab = Ivan_bab.Bab
module Ivan = Ivan_core.Ivan
module Zoo = Ivan_data.Zoo
module Acas = Ivan_data.Acas
module Workload = Ivan_harness.Workload
module Runner = Ivan_harness.Runner
module Report = Ivan_harness.Report
module Experiments = Ivan_harness.Experiments

let fcn = lazy (Zoo.train Zoo.fcn_mnist)

(* A trained classifier's robustness instances go through BaB with the
   LP analyzer; verdicts must be concretely sound. *)
let test_classifier_pipeline_sound () =
  let net = Lazy.force fcn in
  let instances = Workload.robustness_instances ~spec:Zoo.fcn_mnist ~net ~count:6 in
  let analyzer = Analyzer.lp_triangle () in
  let budget = { Bab.max_analyzer_calls = 200; max_seconds = 20.0 } in
  List.iter
    (fun (inst : Workload.instance) ->
      let prop = inst.Workload.prop in
      let run = Bab.verify ~analyzer ~heuristic:Heuristic.zono_coeff ~budget ~net ~prop () in
      match run.Bab.verdict with
      | Bab.Proved ->
          (* Adversarial probing must not find a violation. *)
          let rng = Rng.create (1000 + inst.Workload.id) in
          for _ = 1 to 300 do
            let x = Ivan_spec.Box.sample ~rng prop.Ivan_spec.Prop.input in
            Alcotest.(check bool) "no violation inside proved ball" true
              (Ivan_spec.Prop.holds_at prop (Network.forward net x))
          done
      | Bab.Disproved x ->
          Alcotest.(check bool) "genuine adversarial example" true
            (Analyzer.check_concrete net ~prop x)
      | Bab.Exhausted -> ())
    instances

(* Incremental verification after quantization agrees with the baseline
   verdict on every solved instance, for every technique. *)
let test_incremental_agrees_after_quantization () =
  let net = Lazy.force fcn in
  let updated = Quant.network Quant.Int8 net in
  let setting =
    Runner.classifier_setting
      ~config:
        { Ivan.default_config with budget = { Bab.max_analyzer_calls = 200; max_seconds = 20.0 } }
      ()
  in
  let instances = Workload.robustness_instances ~spec:Zoo.fcn_mnist ~net ~count:6 in
  let comparisons =
    Runner.run_all setting ~net ~updated
      ~techniques:[ Ivan.Reuse; Ivan.Reorder; Ivan.Full ] instances
  in
  List.iter
    (fun (c : Runner.comparison) ->
      List.iter
        (fun (technique, (m : Runner.timed)) ->
          match (c.Runner.baseline.Runner.run.Bab.verdict, m.Runner.run.Bab.verdict) with
          | Bab.Proved, Bab.Disproved _ | Bab.Disproved _, Bab.Proved ->
              Alcotest.failf "technique %s disagrees with the baseline verdict"
                (Ivan.technique_name technique)
          | _, _ -> ())
        c.Runner.techniques)
    comparisons

(* The reuse bound: re-verifying the *same* network touches exactly the
   leaves of the proof tree (Theorem 6's optimal case), on a real
   trained model. *)
let test_reuse_bound_on_trained_model () =
  let net = Lazy.force fcn in
  let setting =
    Runner.classifier_setting
      ~config:
        { Ivan.default_config with budget = { Bab.max_analyzer_calls = 200; max_seconds = 20.0 } }
      ()
  in
  let instances = Workload.robustness_instances ~spec:Zoo.fcn_mnist ~net ~count:4 in
  List.iter
    (fun (inst : Workload.instance) ->
      let prop = inst.Workload.prop in
      let original =
        Bab.verify ~analyzer:setting.Runner.analyzer ~heuristic:setting.Runner.heuristic
          ~budget:setting.Runner.config.Ivan.budget ~net ~prop ()
      in
      if original.Bab.verdict = Bab.Proved then begin
        let rerun =
          Ivan.verify_updated ~analyzer:setting.Runner.analyzer
            ~heuristic:setting.Runner.heuristic
            ~config:{ setting.Runner.config with technique = Ivan.Reuse }
            ~original_run:original ~updated:net ~prop
        in
        Alcotest.(check int) "calls = leaves" original.Bab.stats.Bab.tree_leaves
          rerun.Bab.stats.Bab.analyzer_calls
      end)
    instances

(* ACAS pipeline: a (quickly) trained surrogate with input splitting. *)
let test_acas_pipeline () =
  let rng = Rng.create 55 in
  let net = Acas.train ~rng ~epochs:8 ~samples:600 () in
  let props = Acas.properties ~net ~margin:0.4 ~rng:(Rng.create 66) in
  let analyzer = Analyzer.zonotope () in
  let budget = { Bab.max_analyzer_calls = 1000; max_seconds = 30.0 } in
  List.iter
    (fun prop ->
      let run = Bab.verify ~analyzer ~heuristic:Heuristic.input_smear ~budget ~net ~prop () in
      match run.Bab.verdict with
      | Bab.Proved ->
          let sample_rng = Rng.create 77 in
          for _ = 1 to 200 do
            let x = Ivan_spec.Box.sample ~rng:sample_rng prop.Ivan_spec.Prop.input in
            Alcotest.(check bool) "global property holds at samples" true
              (Ivan_spec.Prop.holds_at prop (Network.forward net x))
          done
      | Bab.Disproved x ->
          Alcotest.(check bool) "genuine violation" true (Analyzer.check_concrete net ~prop x)
      | Bab.Exhausted -> ())
    props

(* The experiment drivers run end to end at a micro scale and print
   non-empty reports. *)
let test_experiment_drivers () =
  let scale =
    {
      Experiments.quick with
      Experiments.classifier_instances = 2;
      sweep_instances = 2;
      perturb_instances = 1;
    }
  in
  let dir = Filename.temp_file "ivan_exp" "" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () ->
      let ctx = Experiments.create ~cache_dir:dir scale in
      let render f =
        let buf = Buffer.create 1024 in
        let fmt = Format.formatter_of_buffer buf in
        f ctx fmt;
        Format.pp_print_flush fmt ();
        Buffer.contents buf
      in
      let contains haystack needle =
        let n = String.length needle and h = String.length haystack in
        let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
        go 0
      in
      (* Only the fcn-mnist-backed drivers, to keep the test fast. *)
      let t1 = render Experiments.fig6 in
      Alcotest.(check bool) "fig6 mentions overall speedup" true (contains t1 "overall:");
      let t2 = render Experiments.fig8 in
      Alcotest.(check bool) "fig8 has grids" true (contains t2 "theta"))

let suite =
  [
    ("classifier pipeline sound", `Slow, test_classifier_pipeline_sound);
    ("incremental agrees after quantization", `Slow, test_incremental_agrees_after_quantization);
    ("reuse bound on trained model", `Slow, test_reuse_bound_on_trained_model);
    ("acas pipeline", `Slow, test_acas_pipeline);
    ("experiment drivers", `Slow, test_experiment_drivers);
  ]
