(* Benchmark harness.

   Two parts:
   1. The paper reproduction: every table and figure of the evaluation,
      regenerated by the experiment drivers (the bulk of the output).
   2. Bechamel micro-benchmarks: one [Test.make] per table/figure id,
      timing the representative kernel behind that experiment, plus the
      cold-vs-warm LP re-solve pair.

   Usage:  dune exec bench/main.exe -- [quick|full] [--no-micro] [-j N]
                                       [--strategy fifo|lifo|best]
   Default scale is [full], sequential, fifo frontier.  LP, certificate
   and journal costs per layer are measured by [perfbench/] (its
   [lp.*], [cert.*] and [journal.*] metrics). *)

module Vec = Ivan_tensor.Vec
module Rng = Ivan_tensor.Rng
module Quant = Ivan_nn.Quant
module Network = Ivan_nn.Network
module Splits = Ivan_domains.Splits
module Zonotope = Ivan_domains.Zonotope
module Deeppoly = Ivan_domains.Deeppoly
module Analyzer = Ivan_analyzer.Analyzer
module Heuristic = Ivan_bab.Heuristic
module Bab = Ivan_bab.Bab
module Ivan = Ivan_core.Ivan
module Zoo = Ivan_data.Zoo
module Acas = Ivan_data.Acas
module Experiments = Ivan_harness.Experiments
module Workload = Ivan_harness.Workload
module Report = Ivan_harness.Report
module Clock = Ivan_clock.Clock

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks *)

(* Shared fixture: the fcn-mnist model, its hardest sampled robustness
   property, and the proof tree from verifying it; and the ACAS model
   with one of its calibrated property regions. *)
type fixture = {
  net : Network.t;
  updated : Network.t;
  prop : Ivan_spec.Prop.t;
  original : Bab.run;
  analyzer : Analyzer.t;
  acas : Network.t;
  acas_prop : Ivan_spec.Prop.t;
}

let make_fixture () =
  let spec = Zoo.fcn_mnist in
  let net = Zoo.load_or_train spec in
  let updated = Quant.network Quant.Int16 net in
  let instances = Workload.robustness_instances ~spec ~net ~count:10 in
  let analyzer = Analyzer.lp_triangle () in
  let budget = { Bab.max_analyzer_calls = 400; max_seconds = 30.0 } in
  (* Pick the instance with the largest proof tree: the hard case the
     paper's speedups come from. *)
  let best = ref None in
  List.iter
    (fun (inst : Workload.instance) ->
      let run =
        Bab.verify ~analyzer ~heuristic:Heuristic.zono_coeff ~budget ~net
          ~prop:inst.Workload.prop ()
      in
      match !best with
      | Some (_, r) when r.Bab.stats.Bab.tree_size >= run.Bab.stats.Bab.tree_size -> ()
      | Some _ | None -> best := Some (inst.Workload.prop, run))
    instances;
  let acas = Zoo.load_or_train Zoo.acas in
  let acas_prop =
    match Acas.properties ~net:acas ~margin:0.2 ~rng:(Rng.create 1) with
    | p :: _ -> p
    | [] -> failwith "bench fixture: no ACAS properties"
  in
  match !best with
  | None -> failwith "bench fixture: no instances"
  | Some (prop, original) -> { net; updated; prop; original; analyzer; acas; acas_prop }

let micro_tests fx =
  let open Bechamel in
  let budget = { Bab.max_analyzer_calls = 400; max_seconds = 30.0 } in
  [
    (* T1: the model zoo's core primitive: a forward pass. *)
    Test.make ~name:"table1/forward-pass"
      (Staged.stage (fun () ->
           ignore
             (Network.forward fx.net (Ivan_spec.Box.center fx.prop.Ivan_spec.Prop.input))));
    (* F6: one non-incremental LP-BaB bounding call. *)
    Test.make ~name:"fig6/lp-analyzer-call"
      (Staged.stage (fun () ->
           ignore
             (fx.analyzer.Analyzer.run fx.net ~prop:fx.prop ~box:fx.prop.Ivan_spec.Prop.input
                ~splits:Splits.empty)));
    (* F7: DeepPoly bound pass. *)
    Test.make ~name:"fig7/deeppoly-pass"
      (Staged.stage (fun () ->
           ignore
             (Deeppoly.analyze fx.net ~box:fx.prop.Ivan_spec.Prop.input ~splits:Splits.empty)));
    (* T2: full incremental verification (reuse+reorder+prune). *)
    Test.make ~name:"table2/ivan-incremental"
      (Staged.stage (fun () ->
           ignore
             (Ivan.verify_updated ~analyzer:fx.analyzer ~heuristic:Heuristic.zono_coeff
                ~config:{ Ivan.default_config with budget }
                ~original_run:fx.original ~updated:fx.updated ~prop:fx.prop)));
    (* F8: H_delta construction from the observed tree. *)
    Test.make ~name:"fig8/hdelta-build"
      (Staged.stage (fun () ->
           let observed = Ivan_core.Effectiveness.observe fx.original.Bab.tree in
           ignore
             (Ivan_core.Hdelta.make ~base:Heuristic.zono_coeff ~observed ~alpha:0.25 ~theta:0.01)));
    (* F9: a zonotope pass over an ACAS property region (the bounding
       step of input-splitting BaB). *)
    Test.make ~name:"fig9/zonotope-call"
      (Staged.stage (fun () ->
           ignore
             (Zonotope.analyze fx.acas ~box:fx.acas_prop.Ivan_spec.Prop.input
                ~splits:Splits.empty)));
    (* T3: the random-perturbation update generator. *)
    Test.make ~name:"table3/perturb-network"
      (Staged.stage
         (let rng = Rng.create 1 in
          fun () -> ignore (Ivan_nn.Perturb.random_relative ~rng ~fraction:0.02 fx.net)));
    (* T4: specification-tree pruning (Algorithm 4). *)
    Test.make ~name:"table4/prune-tree"
      (Staged.stage (fun () -> ignore (Ivan_core.Prune.prune ~theta:0.01 fx.original.Bab.tree)));
    (* TH4: the Theorem-4 delta bound. *)
    Test.make ~name:"theorem4/delta-bound"
      (Staged.stage (fun () ->
           ignore
             (Ivan_core.Theory.delta_bound ~analyzer:fx.analyzer fx.net ~prop:fx.prop
                fx.original.Bab.tree)));
  ]

(* ------------------------------------------------------------------ *)
(* Incremental LP: cold vs. warm-started node solves *)

module Lp = Ivan_lp.Lp

(* Micro fixture: the analyzer's persistent triangle encoding of an
   untrained conv-cifar-deep (robustness in an eps-ball around a seeded
   centre, target against runner-up), solved at the root, then
   specialized to a child that splits the first root-ambiguous ReLU.
   The child LP is re-solved cold (full Phase-1 restart) vs. warm
   (re-priced from the root's optimal basis), the exact situation of a
   BaB child node; about half its rows are vacuous slots. *)
let lp_micro_tests () =
  let open Bechamel in
  let module Encoding = Ivan_analyzer.Encoding in
  let module Bounds = Ivan_domains.Bounds in
  let net = Zoo.untrained Zoo.conv_cifar_deep in
  let rng = Rng.create 113 in
  let center = Array.init (Network.input_dim net) (fun _ -> Rng.uniform rng 0.0 1.0) in
  let y = Network.forward net center in
  let target = Vec.argmax y in
  let adversary = ref (if target = 0 then 1 else 0) in
  Array.iteri (fun j v -> if j <> target && v > y.(!adversary) then adversary := j) y;
  let prop =
    Ivan_spec.Prop.robustness ~name:"lp-micro" ~center ~eps:0.01 ~target ~adversary:!adversary
      ~num_outputs:(Network.output_dim net) ~clip:(Some (0.0, 1.0))
  in
  let box = prop.Ivan_spec.Prop.input in
  let bounds_at splits =
    match Deeppoly.analyze net ~box ~splits with
    | Deeppoly.Feasible a -> Deeppoly.bounds a
    | Deeppoly.Infeasible -> failwith "lp micro fixture: empty region"
  in
  let enc =
    match Encoding.Triangle.build net ~prop with
    | Some e -> e
    | None -> failwith "lp micro fixture: empty root region"
  in
  let p = Encoding.Triangle.lp enc in
  let root = bounds_at Splits.empty in
  Encoding.Triangle.specialize enc ~box ~splits:Splits.empty ~bounds:root;
  (match Lp.solve p with
  | Lp.Optimal _ -> ()
  | Lp.Infeasible | Lp.Unbounded -> failwith "lp micro fixture: root LP not optimal");
  let basis =
    match Lp.basis p with Some b -> b | None -> failwith "lp micro fixture: no basis captured"
  in
  let splits =
    match Bounds.ambiguous_relus root net ~splits:Splits.empty with
    | r :: _ -> Splits.add r Splits.Pos Splits.empty
    | [] -> failwith "lp micro fixture: no ambiguous ReLU"
  in
  Encoding.Triangle.specialize enc ~box ~splits ~bounds:(bounds_at splits);
  [
    Test.make ~name:"lp/cold-resolve" (Staged.stage (fun () -> ignore (Lp.solve p)));
    Test.make ~name:"lp/warm-resolve" (Staged.stage (fun () -> ignore (Lp.solve_from p basis)));
  ]

(* Engine statistics of the fixture's from-scratch run and one
   incremental re-verification, including the resilience counters, as
   JSON — so degraded-mode overhead shows up in the perf trajectory. *)
let write_engine_stats fx ~dir =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let budget = { Bab.max_analyzer_calls = 400; max_seconds = 30.0 } in
  let incremental =
    Ivan.verify_updated ~analyzer:fx.analyzer ~heuristic:Heuristic.zono_coeff
      ~config:{ Ivan.default_config with budget }
      ~original_run:fx.original ~updated:fx.updated ~prop:fx.prop
  in
  let path = Filename.concat dir "engine_stats.json" in
  let oc = open_out path in
  Printf.fprintf oc "{\"original\":%s,\"incremental\":%s}\n"
    (Report.stats_to_json fx.original.Bab.stats)
    (Report.stats_to_json incremental.Bab.stats);
  close_out oc;
  Format.printf "engine stats written to %s@." path

let run_micro () =
  let open Bechamel in
  let fx = make_fixture () in
  write_engine_stats fx ~dir:"bench_results";
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:(Some 10) () in
  let tests = micro_tests fx @ lp_micro_tests () in
  Format.printf "@.%s@.Bechamel micro-benchmarks (one per table/figure id)@.%s@."
    (String.make 78 '=') (String.make 78 '=');
  List.iter
    (fun test ->
      let results =
        Benchmark.all cfg instances test
        |> Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |])
             Toolkit.Instance.monotonic_clock
      in
      Hashtbl.iter
        (fun name ols ->
          match Analyze.OLS.estimates ols with
          | Some [ est ] -> Format.printf "%-32s %14.1f ns/run@." name est
          | Some _ | None -> Format.printf "%-32s (no estimate)@." name)
        results)
    tests

(* ------------------------------------------------------------------ *)

let () =
  let args = Array.to_list Sys.argv in
  let scale = if List.mem "quick" args then Experiments.quick else Experiments.full in
  let micro = not (List.mem "--no-micro" args) in
  (* -j N: run instances on N domains. *)
  let rec jobs = function
    | "-j" :: n :: _ -> (try max 1 (int_of_string n) with Failure _ -> 1)
    | _ :: rest -> jobs rest
    | [] -> 1
  in
  let domains = jobs args in
  (* --strategy NAME: frontier exploration order for every BaB run. *)
  let rec strategy = function
    | "--strategy" :: name :: _ -> (
        match Ivan_bab.Frontier.strategy_of_string name with
        | Some s -> s
        | None -> failwith (Printf.sprintf "unknown strategy %S (fifo|lifo|best)" name))
    | _ :: rest -> strategy rest
    | [] -> Ivan_bab.Frontier.Fifo
  in
  let strategy = strategy args in
  Format.printf "IVAN reproduction benchmark (scale: %s, domains: %d, frontier: %s)@."
    scale.Experiments.label domains
    (Ivan_bab.Frontier.strategy_name strategy);
  let ctx = Experiments.create ~domains ~strategy scale in
  let (), elapsed = Clock.timed (fun () -> Experiments.run_all ctx Format.std_formatter) in
  Format.printf "@.experiments completed in %.1fs@." elapsed;
  (* Per-instance results for offline analysis. *)
  Experiments.export_csv ctx ~dir:"bench_results";
  Format.printf "per-instance CSVs written to bench_results/@.";
  if micro then run_micro ()
