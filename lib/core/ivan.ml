module Network = Ivan_nn.Network
module Bab = Ivan_bab.Bab
module Engine = Ivan_bab.Engine

type technique = Baseline | Reuse | Reorder | Full

let technique_name = function
  | Baseline -> "baseline"
  | Reuse -> "reuse"
  | Reorder -> "reorder"
  | Full -> "ivan"

type config = {
  technique : technique;
  alpha : float;
  theta : float;
  budget : Bab.budget;
  strategy : Ivan_bab.Frontier.strategy;
  policy : Ivan_analyzer.Analyzer.policy;
  certify : bool;
  journal : Ivan_resilience.Journal.writer option;
}

let default_config =
  {
    technique = Full;
    alpha = 0.25;
    theta = 0.01;
    budget = Bab.default_budget;
    strategy = Ivan_bab.Frontier.Fifo;
    policy = Ivan_analyzer.Analyzer.default_policy;
    certify = false;
    journal = None;
  }

(* The one place the flat IVAN config becomes an engine config. *)
let engine_config c =
  {
    Engine.strategy = c.strategy;
    budget = c.budget;
    policy = Some c.policy;
    certify = c.certify;
  }

let bab ~analyzer ~heuristic ~config ?initial_tree ~net ~prop () =
  Engine.run
    (Engine.create ~analyzer ~heuristic ~config:(engine_config config) ?journal:config.journal
       ?initial_tree ~net ~prop ())

let verify_original ~analyzer ~heuristic ~config ~net ~prop =
  bab ~analyzer ~heuristic ~config ~net ~prop ()

let verify_updated ~analyzer ~heuristic ~config ~original_run ~updated ~prop =
  let original_tree = original_run.Bab.tree in
  let hdelta () =
    let observed = Effectiveness.observe original_tree in
    Hdelta.make ~base:heuristic ~observed ~alpha:config.alpha ~theta:config.theta
  in
  let run ?initial_tree heuristic =
    bab ~analyzer ~heuristic ~config ?initial_tree ~net:updated ~prop ()
  in
  match config.technique with
  | Baseline -> run heuristic
  | Reuse -> run ~initial_tree:original_tree heuristic
  | Reorder -> run (hdelta ())
  | Full ->
      let pruned = Prune.prune ~theta:config.theta original_tree in
      run ~initial_tree:pruned (hdelta ())

type result = { original : Bab.run; updated : Bab.run }

let verify_incremental ~analyzer ~heuristic ?(config = default_config) ~net ~updated ~prop () =
  if not (Network.same_architecture net updated) then
    invalid_arg "Ivan.verify_incremental: networks must share an architecture";
  let original = verify_original ~analyzer ~heuristic ~config ~net ~prop in
  let updated_run = verify_updated ~analyzer ~heuristic ~config ~original_run:original ~updated ~prop in
  { original; updated = updated_run }
