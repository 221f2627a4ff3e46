module Analyzer = Ivan_analyzer.Analyzer
module Heuristic = Ivan_bab.Heuristic
module Bab = Ivan_bab.Bab
module Ivan = Ivan_core.Ivan
module Clock = Ivan_clock.Clock

type setting = { analyzer : Analyzer.t; heuristic : Heuristic.t; config : Ivan.config }

let classifier_setting
    ?(config =
      { Ivan.default_config with budget = { Bab.max_analyzer_calls = 400; max_seconds = 30.0 } })
    () =
  {
    analyzer = Analyzer.lp_triangle ~certify:config.Ivan.certify ();
    heuristic = Heuristic.zono_coeff;
    config;
  }

let acas_setting
    ?(config =
      { Ivan.default_config with budget = { Bab.max_analyzer_calls = 3000; max_seconds = 60.0 } })
    () =
  { analyzer = Analyzer.zonotope (); heuristic = Heuristic.input_smear; config }

type measurement = {
  verdict : Bab.verdict;
  calls : int;
  seconds : float;
  tree_size : int;
  tree_leaves : int;
  retries : int;
  fallback_bounds : int;
  faults_absorbed : int;
  certs_emitted : int;
  certs_unavailable : int;
  artifact : Ivan_cert.Cert.Artifact.t option;
}

let solved m = match m.verdict with Bab.Proved | Bab.Disproved _ -> true | Bab.Exhausted -> false

type comparison = {
  instance : Workload.instance;
  original : measurement;
  baseline : measurement;
  techniques : (Ivan.technique * measurement) list;
}

let measure_of_run (run : Bab.run) seconds =
  {
    verdict = run.Bab.verdict;
    calls = run.Bab.stats.Bab.analyzer_calls;
    seconds;
    tree_size = run.Bab.stats.Bab.tree_size;
    tree_leaves = run.Bab.stats.Bab.tree_leaves;
    retries = run.Bab.stats.Bab.retries;
    fallback_bounds = run.Bab.stats.Bab.fallback_bounds;
    faults_absorbed = run.Bab.stats.Bab.faults_absorbed;
    certs_emitted = run.Bab.stats.Bab.certs_emitted;
    certs_unavailable = run.Bab.stats.Bab.certs_unavailable;
    artifact = run.Bab.artifact;
  }

let run_instance setting ~net ~updated ~techniques (instance : Workload.instance) =
  let prop = instance.Workload.prop in
  let { analyzer; heuristic; config } = setting in
  let original_run, original_time =
    Clock.timed (fun () -> Ivan.verify_original ~analyzer ~heuristic ~config ~net ~prop)
  in
  let baseline_run, baseline_time =
    Clock.timed (fun () -> Ivan.verify_original ~analyzer ~heuristic ~config ~net:updated ~prop)
  in
  let technique_runs =
    List.map
      (fun technique ->
        let run, seconds =
          Clock.timed (fun () ->
              Ivan.verify_updated ~analyzer ~heuristic ~config:{ config with Ivan.technique }
                ~original_run ~updated ~prop)
        in
        (technique, measure_of_run run seconds))
      techniques
  in
  {
    instance;
    original = measure_of_run original_run original_time;
    baseline = measure_of_run baseline_run baseline_time;
    techniques = technique_runs;
  }

let run_all ?(domains = 1) setting ~net ~updated ~techniques instances =
  if domains > 1 && Option.is_some setting.config.Ivan.journal then
    invalid_arg "Runner.run_all: a journal cannot be shared by parallel runs";
  if domains <= 1 then
    List.map (run_instance setting ~net ~updated ~techniques) instances
  else begin
    (* Freeze the lazily-built dense lowerings before sharing the
       networks across domains. *)
    Ivan_nn.Network.precompute_dense net;
    Ivan_nn.Network.precompute_dense updated;
    let items = Array.of_list instances in
    let results = Array.make (Array.length items) None in
    let next = Atomic.make 0 in
    let worker () =
      let continue = ref true in
      while !continue do
        let i = Atomic.fetch_and_add next 1 in
        if i >= Array.length items then continue := false
        else results.(i) <- Some (run_instance setting ~net ~updated ~techniques items.(i))
      done
    in
    let spawned = List.init (domains - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    List.iter Domain.join spawned;
    Array.to_list results
    |> List.map (function Some c -> c | None -> assert false)
  end
