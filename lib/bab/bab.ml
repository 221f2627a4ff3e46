module Network = Ivan_nn.Network
module Box = Ivan_spec.Box
module Prop = Ivan_spec.Prop

type budget = Engine.budget = { max_analyzer_calls : int; max_seconds : float }

let default_budget = Engine.default_budget

type stats = Engine.stats = {
  analyzer_calls : int;
  branchings : int;
  tree_size : int;
  tree_leaves : int;
  elapsed_seconds : float;
  analyzer_seconds : float;
  max_frontier : int;
  max_depth : int;
  heuristic_failures : int;
  retries : int;
  fallback_bounds : int;
  faults_absorbed : int;
  lp_warm_hits : int;
  lp_warm_misses : int;
  lp_cold_solves : int;
  lp_pivots : int;
  certs_emitted : int;
  certs_unavailable : int;
}

type verdict = Engine.verdict = Proved | Disproved of Ivan_tensor.Vec.t | Exhausted

type run = Engine.run = {
  verdict : verdict;
  tree : Ivan_spectree.Tree.t;
  stats : stats;
  artifact : Ivan_cert.Cert.Artifact.t option;
}

let verify ~analyzer ~heuristic ?(strategy = Frontier.Fifo) ?trace ?(budget = default_budget)
    ?policy ?(certify = false) ?journal ?initial_tree ~net ~prop () =
  if Box.dim prop.Prop.input <> Network.input_dim net then
    invalid_arg "Bab.verify: property dimension does not match the network";
  Engine.run
    (Engine.create ~analyzer ~heuristic
       ~config:{ Engine.strategy; budget; policy; certify }
       ?trace ?journal ?initial_tree ~net ~prop ())
