(* Quickstart: the paper's running example, end to end.

   Builds the Figure-2 network N, verifies a property with BaB while
   recording the specification tree, perturbs the network to N^a, and
   re-verifies incrementally — printing the trees and cost savings.

   Run with:  dune exec examples/quickstart.exe *)

module Vec = Ivan_tensor.Vec
module Mat = Ivan_tensor.Mat
module Rng = Ivan_tensor.Rng
module Layer = Ivan_nn.Layer
module Network = Ivan_nn.Network
module Quant = Ivan_nn.Quant
module Box = Ivan_spec.Box
module Prop = Ivan_spec.Prop
module Analyzer = Ivan_analyzer.Analyzer
module Heuristic = Ivan_bab.Heuristic
module Bab = Ivan_bab.Bab
module Frontier = Ivan_bab.Frontier
module Trace = Ivan_bab.Trace
module Tree = Ivan_spectree.Tree
module Ivan = Ivan_core.Ivan

let dense ?(activation = Layer.Relu) weights bias =
  Layer.make (Layer.Dense { weights = Mat.of_arrays weights; bias }) activation

(* The paper's Figure-2 network: 2 inputs, two hidden ReLU layers of
   width 2, one output. *)
let network =
  Network.make
    [
      dense [| [| 2.0; -1.0 |]; [| 1.0; 1.0 |] |] [| 0.0; 0.0 |];
      dense [| [| 1.0; -2.0 |]; [| -1.0; 1.0 |] |] [| 0.0; 0.0 |];
      dense ~activation:Layer.Identity [| [| 1.0; -1.0 |] |] [| 0.0 |];
    ]

(* phi = [0,1]^2; psi = (o1 + 1.6 >= 0).  The true minimum of o1 on the
   box is -1.5, so the property holds but needs branching to prove —
   like the paper's (o1 + 14 >= 0), only tight enough to be
   interesting. *)
let prop =
  Prop.make ~name:"quickstart"
    ~input:(Box.make ~lo:(Vec.zeros 2) ~hi:(Vec.create 2 1.0))
    ~c:(Vec.of_list [ 1.0 ]) ~offset:1.6

let describe name (run : Bab.run) =
  let verdict =
    match run.Bab.verdict with
    | Bab.Proved -> "VERIFIED"
    | Bab.Disproved _ -> "COUNTEREXAMPLE"
    | Bab.Exhausted -> "UNKNOWN (budget)"
  in
  Format.printf "@.%s: %s after %d analyzer calls, %d branchings@." name verdict
    run.Bab.stats.Bab.analyzer_calls run.Bab.stats.Bab.branchings;
  Format.printf "specification tree (%d nodes, %d leaves):@.%a" run.Bab.stats.Bab.tree_size
    run.Bab.stats.Bab.tree_leaves Tree.pp run.Bab.tree

let () =
  Format.printf "network:@.%a@." Network.pp_summary network;
  Format.printf "property: %a@." Prop.pp prop;

  (* Step 1: verify N from scratch with the LP analyzer and the
     zonotope-coefficient branching heuristic.  A hook trace sink keeps
     the last engine events so we can show what the verifier did. *)
  let analyzer = Analyzer.lp_triangle () in
  let last = Queue.create () in
  let trace =
    Trace.hook (fun e ->
        Queue.add e last;
        if Queue.length last > 8 then ignore (Queue.pop last))
  in
  let original =
    Bab.verify ~analyzer ~heuristic:Heuristic.zono_coeff ~trace ~net:network ~prop ()
  in
  describe "original network" original;
  Format.printf "engine stats: analyzer %.1f%% of %.4fs, frontier peak %d, max depth %d@."
    (if original.Bab.stats.Bab.elapsed_seconds > 0.0 then
       100.0 *. original.Bab.stats.Bab.analyzer_seconds
       /. original.Bab.stats.Bab.elapsed_seconds
     else 0.0)
    original.Bab.stats.Bab.elapsed_seconds original.Bab.stats.Bab.max_frontier
    original.Bab.stats.Bab.max_depth;
  Format.printf "last engine events:@.";
  Queue.iter (fun e -> Format.printf "  %s@." (Trace.event_to_string e)) last;

  (* The frontier is pluggable: the same problem under each exploration
     order.  All three prove the property; the traversal differs. *)
  Format.printf "@.frontier strategies on the same problem:@.";
  List.iter
    (fun strategy ->
      let run = Bab.verify ~analyzer ~heuristic:Heuristic.zono_coeff ~strategy ~net:network ~prop () in
      Format.printf "  %-5s %d analyzer calls, frontier peak %d, max depth %d@."
        (Frontier.strategy_name strategy)
        run.Bab.stats.Bab.analyzer_calls run.Bab.stats.Bab.max_frontier
        run.Bab.stats.Bab.max_depth)
    Frontier.all_strategies;

  (* Step 2: update the network (int8 post-training quantization). *)
  let updated = Quant.network Quant.Int8 network in
  Format.printf "@.update: int8 quantization of every weight tensor@.";

  (* Step 3a: the baseline re-verifies from scratch... *)
  let baseline =
    Bab.verify ~analyzer ~heuristic:Heuristic.zono_coeff ~net:updated ~prop ()
  in
  describe "updated network, from scratch" baseline;

  (* Step 3b: ...IVAN reuses the pruned proof tree and the reordered
     heuristic. *)
  let incremental =
    Ivan.verify_updated ~analyzer ~heuristic:Heuristic.zono_coeff ~config:Ivan.default_config
      ~original_run:original ~updated ~prop
  in
  describe "updated network, incremental (IVAN)" incremental;

  let speedup =
    float_of_int baseline.Bab.stats.Bab.analyzer_calls
    /. float_of_int incremental.Bab.stats.Bab.analyzer_calls
  in
  Format.printf "@.analyzer-call speedup of IVAN over the baseline: %.2fx@." speedup
