(* Chaos matrix: kill/resume sweeps over journaled verification runs.

   For every workload the harness runs one uninterrupted golden run,
   then simulates kills after every journal append, torn writes at
   every byte offset of the final frame, a corrupted byte in every
   frame, and a double-kill chain — resuming each time from the
   surviving journal bytes and asserting the resumed run reproduces the
   golden verdict and stats exactly, re-analyzing no node whose Step
   frame landed: any rework fails the matrix.

   Run via the alias:  dune build @chaos-matrix *)

module Vec = Ivan_tensor.Vec
module Mat = Ivan_tensor.Mat
module Layer = Ivan_nn.Layer
module Network = Ivan_nn.Network
module Box = Ivan_spec.Box
module Prop = Ivan_spec.Prop
module Analyzer = Ivan_analyzer.Analyzer
module Heuristic = Ivan_bab.Heuristic
module Frontier = Ivan_bab.Frontier
module Engine = Ivan_bab.Engine
module Tree = Ivan_spectree.Tree

(* The paper's running example (Fig. 2), self-contained: this
   executable builds in its own directory and cannot see test/
   fixtures. *)
let net =
  let dense ?(activation = Layer.Relu) weights bias =
    Layer.make (Layer.Dense { weights = Mat.of_arrays weights; bias }) activation
  in
  Network.make
    [
      dense [| [| 2.0; -1.0 |]; [| 1.0; 1.0 |] |] [| 0.0; 0.0 |];
      dense [| [| 1.0; -2.0 |]; [| -1.0; 1.0 |] |] [| 0.0; 0.0 |];
      dense ~activation:Layer.Identity [| [| 1.0; -1.0 |] |] [| 0.0 |];
    ]

(* psi = (o1 + k >= 0) over [0,1]^2; the exact minimum of o1 is -1.5,
   so k = 1.3 is violated and k = 1.7 holds. *)
let prop offset =
  let input = Box.make ~lo:(Vec.of_list [ 0.0; 0.0 ]) ~hi:(Vec.of_list [ 1.0; 1.0 ]) in
  Prop.make
    ~name:(Printf.sprintf "paper+%g" offset)
    ~input ~c:(Vec.of_list [ 1.0 ]) ~offset

(* A random 2-8-8-1 net whose minimum over the box is about -0.37.
   The triangle LP does not decide it at the root, so the LP workloads
   below split ReLUs: with offset 0.5 a proof takes 9 calls, with 0.3 a
   counterexample takes 3 (the matrix prints each golden run's calls). *)
let deep = Ivan_nn.Builder.dense_net ~rng:(Ivan_tensor.Rng.create 3) ~dims:[ 2; 8; 8; 1 ]

(* Warm starts stay off in the LP workloads: parked hints (a parent's
   simplex basis and DeepPoly run) are a performance cache that is
   deliberately not journaled, so a resumed run's first nodes start
   cold — with [~warm:false] every LP stat is deterministic and must
   replay exactly.  DeepPoly resumes from the parent whatever [warm]
   says; its bounds are the same bit for bit either way, so every
   node's lb must replay exactly too. *)
let lp ?certify () = Analyzer.lp_triangle ~warm:false ?certify ()

(* The start an incremental run journals: N's bounded tree, pruned as
   IVAN prunes it, seeds a best-first run on N perturbed by 2%, so the
   frontier starts from the leaves' recorded lower bounds (N: [deep];
   21 calls on N, 11 seeded leaves, 13 calls on the update). *)
let seeded =
  let n = deep in
  let original =
    Engine.run
      (Engine.create ~analyzer:(Analyzer.zonotope ()) ~heuristic:Heuristic.input_smear ~net:n
         ~prop:(prop 0.42) ())
  in
  Chaos.workload ~name:"zono/seeded-bestfirst"
    ~net:(Ivan_nn.Perturb.random_relative ~rng:(Ivan_tensor.Rng.create 7) ~fraction:0.02 n)
    ~prop:(prop 0.42)
    ~analyzer:(fun () -> Analyzer.zonotope ())
    ~heuristic:Heuristic.input_smear
    ~config:{ Engine.default_config with strategy = Frontier.Best_first }
    ~initial_tree:(Ivan_core.Prune.prune ~theta:0.01 original.Engine.tree)
    ()

(* The same start on the LP: N's tree carries the multipliers that
   verified its leaves, which [Prune.prune] keeps on the seeded leaves.
   They are a cache like the warm-start hints and are not journaled, so
   under [~warm:false] the analyzer ignores them and the seeded run
   replays exactly. *)
let lp_seeded =
  let original =
    Engine.run (Engine.create ~analyzer:(lp ()) ~heuristic:Heuristic.zono_coeff ~net:deep ~prop:(prop 0.5) ())
  in
  Chaos.workload ~name:"lp/seeded-bestfirst"
    ~net:(Ivan_nn.Perturb.random_relative ~rng:(Ivan_tensor.Rng.create 7) ~fraction:0.02 deep)
    ~prop:(prop 0.5) ~analyzer:lp ~heuristic:Heuristic.zono_coeff
    ~config:{ Engine.default_config with strategy = Frontier.Best_first }
    ~initial_tree:(Ivan_core.Prune.prune ~theta:0.01 original.Engine.tree)
    ()

let workloads =
  [
    seeded;
    lp_seeded;
    Chaos.workload ~name:"lp/proved" ~net:deep ~prop:(prop 0.5) ~analyzer:lp
      ~heuristic:Heuristic.zono_coeff ();
    Chaos.workload ~name:"lp/disproved" ~net:deep ~prop:(prop 0.3) ~analyzer:lp
      ~heuristic:Heuristic.zono_coeff ();
    Chaos.workload ~name:"lp/exhausted" ~net:deep ~prop:(prop 0.5) ~analyzer:lp
      ~heuristic:Heuristic.zono_coeff
      ~config:
        {
          Engine.default_config with
          budget = { Engine.max_analyzer_calls = 3; max_seconds = infinity };
        }
      ();
    Chaos.workload ~name:"lp/certified" ~net:deep ~prop:(prop 0.5)
      ~analyzer:(lp ~certify:true)
      ~heuristic:Heuristic.zono_coeff ~config:{ Engine.default_config with certify = true } ();
    Chaos.workload ~name:"zono/proved-bestfirst" ~net ~prop:(prop 1.7)
      ~analyzer:(fun () -> Analyzer.zonotope ())
      ~heuristic:Heuristic.input_smear
      ~config:{ Engine.default_config with strategy = Frontier.Best_first } ();
    Chaos.workload ~name:"zono/disproved-lifo" ~net ~prop:(prop 1.3)
      ~analyzer:(fun () -> Analyzer.zonotope ())
      ~heuristic:Heuristic.input_smear
      ~config:{ Engine.default_config with strategy = Frontier.Lifo } ();
    Chaos.workload ~name:"zono/proved-fifo" ~net ~prop:(prop 1.7)
      ~analyzer:(fun () -> Analyzer.zonotope ())
      ~heuristic:Heuristic.input_smear ();
  ]

let () =
  List.iter
    (fun w ->
      let g = (Chaos.golden w).Chaos.run in
      Format.printf "%s: %s in %d calls, tree %d@." w.Chaos.name
        (Chaos.verdict_name g.Engine.verdict) g.Engine.stats.Engine.analyzer_calls
        g.Engine.stats.Engine.tree_size)
    workloads;
  let report = Chaos.run_matrix workloads in
  Format.printf "%a@." Chaos.pp_report report;
  if report.Chaos.failures <> [] then begin
    Format.printf "chaos matrix FAILED@.";
    exit 1
  end;
  if report.Chaos.schedules = 0 then begin
    Format.printf "chaos matrix ran no schedules@.";
    exit 1
  end
