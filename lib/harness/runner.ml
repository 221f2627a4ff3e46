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

type timed = { run : Bab.run; seconds : float }

let solved t = match t.run.Bab.verdict with Bab.Proved | Bab.Disproved _ -> true | Bab.Exhausted -> false

let calls t = t.run.Bab.stats.Bab.analyzer_calls

type comparison = {
  instance : Workload.instance;
  original : timed;
  baseline : timed;
  techniques : (Ivan.technique * timed) list;
}

let timed f =
  let run, seconds = Clock.timed f in
  { run; seconds }

let run_instance setting ~net ~updated ~techniques (instance : Workload.instance) =
  let prop = instance.Workload.prop in
  let { analyzer; heuristic; config } = setting in
  let original = timed (fun () -> Ivan.verify_original ~analyzer ~heuristic ~config ~net ~prop) in
  let baseline =
    timed (fun () -> Ivan.verify_original ~analyzer ~heuristic ~config ~net:updated ~prop)
  in
  let techniques =
    List.map
      (fun technique ->
        ( technique,
          timed (fun () ->
              Ivan.verify_updated ~analyzer ~heuristic ~config:{ config with Ivan.technique }
                ~original_run:original.run ~updated ~prop) ))
      techniques
  in
  { instance; original; baseline; techniques }

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
