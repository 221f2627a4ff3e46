(* Tests for the IVAN core: effectiveness scores (Eq. 5-6), H_Delta
   (Eq. 7), pruning (Alg. 4), Theorem 4 bounds, and the end-to-end
   incremental algorithm (Alg. 5). *)

module Vec = Ivan_tensor.Vec
module Mat = Ivan_tensor.Mat
module Rng = Ivan_tensor.Rng
module Relu_id = Ivan_nn.Relu_id
module Network = Ivan_nn.Network
module Quant = Ivan_nn.Quant
module Perturb = Ivan_nn.Perturb
module Box = Ivan_spec.Box
module Prop = Ivan_spec.Prop
module Analyzer = Ivan_analyzer.Analyzer
module Heuristic = Ivan_bab.Heuristic
module Bab = Ivan_bab.Bab
module Decision = Ivan_spectree.Decision
module Tree = Ivan_spectree.Tree
module Effectiveness = Ivan_core.Effectiveness
module Hdelta = Ivan_core.Hdelta
module Prune = Ivan_core.Prune
module Theory = Ivan_core.Theory
module Ivan = Ivan_core.Ivan
module Cert = Ivan_cert.Cert
module Journal = Ivan_resilience.Journal
module Lp = Ivan_lp.Lp
module Splits = Ivan_domains.Splits
module Bounds = Ivan_domains.Bounds
module Deeppoly = Ivan_domains.Deeppoly

let r l i = Decision.Relu_split (Relu_id.make ~layer:l ~index:i)

(* Hand-built tree shaped like the paper's running example (Fig. 3/5):
   n0 -r1-> (n1, n2); n1 -r4-> (n3, n4); n2 -r4-> (n5, n6);
   n6 -r3-> (n7, n8).  LB values chosen so that the r1 split at the root
   is ineffective and Eq. 8 keeps n2's subtree. *)
let example_tree () =
  let t = Tree.create () in
  let n0 = Tree.root t in
  let n1, n2 = Tree.split t n0 (r 0 0) in
  let n3, n4 = Tree.split t n1 (r 1 1) in
  let n5, n6 = Tree.split t n2 (r 1 1) in
  let n7, n8 = Tree.split t n6 (r 1 0) in
  Tree.set_lb n0 (-7.0);
  Tree.set_lb n1 (-1.0);
  (* I(n0, r1) = min(-1 - -7, -6.5 - -7) = 0.5: a bad split. *)
  Tree.set_lb n2 (-6.5);
  Tree.set_lb n3 1.0;
  Tree.set_lb n4 2.0;
  Tree.set_lb n5 1.5;
  Tree.set_lb n6 (-2.0);
  Tree.set_lb n7 2.5;
  Tree.set_lb n8 3.0;
  t

let test_improvement () =
  let t = example_tree () in
  let root = Tree.root t in
  Alcotest.(check (option (float 1e-9))) "I(n0, r1)" (Some 0.5) (Effectiveness.improvement root);
  (match Tree.children root with
  | Some (n1, n2) ->
      (* I(n1, r4) = min(1 - -1, 2 - -1) = 2;
         I(n2, r4) = min(1.5 - -6.5, -2 - -6.5) = 4.5. *)
      Alcotest.(check (option (float 1e-9))) "I(n1, r4)" (Some 2.0) (Effectiveness.improvement n1);
      Alcotest.(check (option (float 1e-9))) "I(n2, r4)" (Some 4.5) (Effectiveness.improvement n2)
  | None -> Alcotest.fail "root lost children");
  (* Leaves have no improvement. *)
  List.iter
    (fun leaf ->
      Alcotest.(check bool) "leaf none" true (Effectiveness.improvement leaf = None))
    (Tree.leaves t)

let test_h_obs () =
  let t = example_tree () in
  let table = Effectiveness.observe t in
  (* r4 = r[1,1] was split at n1 and n2: mean (2 + 4.5) / 2 = 3.25.
     r3 = r[1,0] at n6: min(2.5 - -2, 3 - -2) = 4.5.
     r1 = r[0,0] at n0: 0.5. *)
  Alcotest.(check (option (float 1e-9))) "H_obs r1" (Some 0.5) (Effectiveness.score table (r 0 0));
  Alcotest.(check (option (float 1e-9))) "H_obs r4" (Some 3.25) (Effectiveness.score table (r 1 1));
  Alcotest.(check (option (float 1e-9))) "H_obs r3" (Some 4.5) (Effectiveness.score table (r 1 0));
  Alcotest.(check (option (float 1e-9))) "unobserved" None (Effectiveness.score table (r 0 1));
  Alcotest.(check (float 1e-9)) "max abs" 4.5 (Effectiveness.max_abs_score table)

let test_improvement_clamps_infinite () =
  let t = Tree.create () in
  let n0 = Tree.root t in
  let n1, n2 = Tree.split t n0 (r 0 0) in
  Tree.set_lb n0 (-1.0);
  Tree.set_lb n1 infinity;
  Tree.set_lb n2 0.5;
  match Effectiveness.improvement n0 with
  | Some i -> Alcotest.(check bool) "finite" true (Float.is_finite i)
  | None -> Alcotest.fail "expected clamped improvement"

(* H_Delta: with alpha = 1 the base ranking is unchanged; with alpha = 0
   the observed ranking dominates. *)
let constant_base scores =
  {
    Heuristic.name = "const";
    scores = (fun _ -> List.map (fun (d, s) -> (d, s)) scores);
  }

let dummy_ctx () =
  let net = Fixtures.paper_net () in
  let prop = Fixtures.paper_prop () in
  {
    Heuristic.net;
    prop;
    box = prop.Prop.input;
    splits = Ivan_domains.Splits.empty;
    outcome = { Analyzer.status = Analyzer.Unknown; lb = -1.0; bounds = None; zono = None; cert = None; lp = None };
  }

let test_hdelta_alpha_extremes () =
  let t = example_tree () in
  let observed = Effectiveness.observe t in
  (* Base prefers r1; observations prefer r3. *)
  let base = constant_base [ (r 0 0, 10.0); (r 1 0, 1.0); (r 1 1, 2.0) ] in
  let ctx = dummy_ctx () in
  let top heuristic =
    match Heuristic.best (heuristic.Heuristic.scores ctx) with
    | Some d -> d
    | None -> Alcotest.fail "no decision"
  in
  let h1 = Hdelta.make ~base ~observed ~alpha:1.0 ~theta:0.01 in
  Alcotest.(check bool) "alpha=1 keeps base top" true (Decision.equal (top h1) (r 0 0));
  let h0 = Hdelta.make ~base ~observed ~alpha:0.0 ~theta:0.01 in
  Alcotest.(check bool) "alpha=0 follows observations" true (Decision.equal (top h0) (r 1 0))

let test_hdelta_theta_penalizes () =
  let t = example_tree () in
  let observed = Effectiveness.observe t in
  (* Two decisions with equal base scores; r1 has a small observed score
     (0.5 / 4.5 normalized ~ 0.11), below theta = 0.5, so it must rank
     below the unobserved decision. *)
  let base = constant_base [ (r 0 0, 1.0); (r 0 1, 1.0) ] in
  let h = Hdelta.make ~base ~observed ~alpha:0.5 ~theta:0.5 in
  let scores = h.Heuristic.scores (dummy_ctx ()) in
  let score d = List.assoc d scores in
  Alcotest.(check bool) "observed-bad below unobserved" true (score (r 0 0) < score (r 0 1))

let test_hdelta_invalid_alpha () =
  let observed = Effectiveness.observe (example_tree ()) in
  Alcotest.check_raises "alpha" (Invalid_argument "Hdelta.make: alpha must be in [0, 1]")
    (fun () -> ignore (Hdelta.make ~base:Heuristic.width ~observed ~alpha:1.5 ~theta:0.0))

(* Pruning the example tree with theta above 0.5/4.5 removes the root's
   r1 split and keeps n2's subtree (the child with the smaller LB
   increase), exactly the paper's Fig. 5. *)
let test_prune_removes_bad_root_split () =
  let t = example_tree () in
  let p = Prune.prune ~theta:0.2 t in
  Alcotest.(check bool) "well formed" true (Tree.well_formed p);
  (* New root splits on r4 (the decision of kept child n2). *)
  Alcotest.(check bool) "root decision is r4" true
    (match Tree.decision (Tree.root p) with Some d -> Decision.equal d (r 1 1) | None -> false);
  (* 9 nodes -> 5: exactly n2's subtree survives under the root
     (paper Fig. 5): root -r4-> (leaf n5, n6 -r3-> (n7, n8)). *)
  Alcotest.(check int) "pruned size" 5 (Tree.size p);
  Alcotest.(check int) "pruned leaves" 3 (Tree.num_leaves p);
  (match Tree.children (Tree.root p) with
  | Some (_, kept_n6) ->
      Alcotest.(check bool) "inner split is r3" true
        (match Tree.decision kept_n6 with Some d -> Decision.equal d (r 1 0) | None -> false)
  | None -> Alcotest.fail "pruned root is a leaf");
  (* Original untouched. *)
  Alcotest.(check int) "original intact" 9 (Tree.size t)

let test_prune_keeps_good_tree () =
  let t = example_tree () in
  (* theta = 0.05: normalized bad threshold below 0.5/4.5 = 0.111, so
     nothing is pruned. *)
  let p = Prune.prune ~theta:0.05 t in
  Alcotest.(check int) "size unchanged" (Tree.size t) (Tree.size p);
  Alcotest.(check int) "leaves unchanged" (Tree.num_leaves t) (Tree.num_leaves p)

let test_prune_single_node () =
  let t = Tree.create () in
  Tree.set_lb (Tree.root t) 1.0;
  let p = Prune.prune ~theta:0.5 t in
  Alcotest.(check int) "single node" 1 (Tree.size p);
  Alcotest.(check (float 0.0)) "lb copied" 1.0 (Tree.lb (Tree.root p))

let test_prune_bad_split_with_leaf_child () =
  (* Bad split whose kept child is a leaf: the subtree collapses. *)
  let t = Tree.create () in
  let n1, n2 = Tree.split t (Tree.root t) (r 0 0) in
  let _ = Tree.split t n2 (r 0 1) in
  Tree.set_lb (Tree.root t) (-1.0);
  Tree.set_lb n1 (-0.99);
  (* n1 closest to parent *)
  Tree.set_lb n2 5.0;
  (match Tree.children n2 with
  | Some (a, b) ->
      Tree.set_lb a 6.0;
      Tree.set_lb b 7.0
  | None -> assert false);
  let p = Prune.prune ~theta:0.9 t in
  (* I(root) = min(0.01, 6) = 0.01, normalized by max improvement 1.0
     -> 0.01 < 0.9: bad.  Kept child is n1 (leaf) -> pruned tree is a
     single node. *)
  Alcotest.(check int) "collapsed" 1 (Tree.size p)

let analyzer = Analyzer.lp_triangle ()

(* Theorem 4: after verifying a property, perturbing the last layer
   within the delta bound preserves provability with the same tree. *)
let theorem4_fixture () =
  let net = Fixtures.paper_net () in
  let prop = Fixtures.paper_prop_with_offset 1.6 in
  let run = Bab.verify ~analyzer ~heuristic:Heuristic.zono_coeff ~net ~prop () in
  Alcotest.(check bool) "fixture proved" true (run.Bab.verdict = Bab.Proved);
  (net, prop, run.Bab.tree)

let test_theorem4_quantities () =
  let net, prop, tree = theorem4_fixture () in
  let lb = Theory.leaf_objective_lb ~analyzer net ~prop tree in
  Alcotest.(check bool) "leaf lb >= 0 (verified)" true (lb >= 0.0);
  let eta = Theory.eta ~analyzer net ~prop tree in
  Alcotest.(check bool) "eta positive" true (eta > 0.0);
  let delta = Theory.delta_bound ~analyzer net ~prop tree in
  Alcotest.(check bool) "delta positive and finite" true (delta > 0.0 && Float.is_finite delta);
  Alcotest.(check bool) "tree proves the property" true
    (Theory.verified_with_tree ~analyzer net ~prop tree)

let test_theorem4_perturbation_preserved () =
  let net, prop, tree = theorem4_fixture () in
  let delta = Theory.delta_bound ~analyzer net ~prop tree in
  let rng = Rng.create 77 in
  for _ = 1 to 10 do
    let perturbed = Perturb.last_layer ~rng ~delta:(0.9 *. delta) net in
    Alcotest.(check bool) "still proved with the same tree" true
      (Theory.verified_with_tree ~analyzer perturbed ~prop tree)
  done

(* End-to-end Algorithm 5 across all four techniques on a quantized
   update. *)
let incremental_fixture () =
  let net = Fixtures.paper_net () in
  (* Perturb weights slightly to act as "trained" float weights, then
     quantize. *)
  let rng = Rng.create 5 in
  let float_net = Perturb.random_relative ~rng ~fraction:0.02 net in
  let updated = Quant.network Quant.Int8 float_net in
  let prop = Fixtures.paper_prop_with_offset 1.7 in
  (float_net, updated, prop)


let test_incremental_all_techniques () =
  let net, updated, prop = incremental_fixture () in
  List.iter
    (fun technique ->
      let config = { Ivan.default_config with technique } in
      let result =
        Ivan.verify_incremental ~analyzer ~heuristic:Heuristic.zono_coeff ~config ~net ~updated
          ~prop ()
      in
      Alcotest.(check bool)
        (Ivan.technique_name technique ^ " proves original")
        true
        (result.Ivan.original.Bab.verdict = Bab.Proved);
      Alcotest.(check bool)
        (Ivan.technique_name technique ^ " proves update")
        true
        (result.Ivan.updated.Bab.verdict = Bab.Proved))
    [ Ivan.Baseline; Ivan.Reuse; Ivan.Reorder; Ivan.Full ]

(* The original run on N obeys the whole config, as the updated run
   does: a certifying, journaled config yields a checkable artifact for
   both runs and one journal Header frame per run. *)
let test_incremental_certify_and_journal () =
  let net, updated, prop = incremental_fixture () in
  let buf = Buffer.create 4096 in
  let config =
    { Ivan.default_config with certify = true; journal = Some (Journal.to_buffer buf) }
  in
  let result =
    Ivan.verify_incremental
      ~analyzer:(Analyzer.lp_triangle ~certify:true ())
      ~heuristic:Heuristic.zono_coeff ~config ~net ~updated ~prop ()
  in
  List.iter
    (fun (label, run) ->
      match run.Bab.artifact with
      | None -> Alcotest.failf "%s run has no artifact" label
      | Some a -> (
          match Cert.check_artifact a with
          | Ok _ -> ()
          | Error msg -> Alcotest.failf "%s artifact rejected: %s" label msg))
    [ ("original", result.Ivan.original); ("updated", result.Ivan.updated) ];
  let headers =
    List.filter
      (fun r -> r.Journal.kind = Journal.Header)
      (Journal.scan (Buffer.contents buf)).Journal.records
  in
  Alcotest.(check int) "one Header frame per run" 2 (List.length headers)

(* A replayed tree that splits units stable at the updated network's
   root: the persistent LP encoding re-encodes itself with those units,
   and the subtrees grown under such splits keep warm-starting their LPs
   from their parents' bases. *)
let test_replay_splits_root_stable_units () =
  let net = Ivan_nn.Builder.dense_net ~rng:(Rng.create 33) ~dims:[ 3; 6; 6; 6; 2 ] in
  let updated = Perturb.random_relative ~rng:(Rng.create 1033) ~fraction:0.5 net in
  let input = Box.make ~lo:(Vec.zeros 3) ~hi:(Vec.create 3 1.0) in
  let prop = Prop.make ~name:"replay" ~input ~c:(Vec.of_list [ 1.0; -1.0 ]) ~offset:0.01 in
  let config = { Ivan.default_config with technique = Ivan.Reuse } in
  let heuristic = Heuristic.zono_coeff in
  let original = Ivan.verify_original ~analyzer ~heuristic ~config ~net ~prop in
  let root =
    match Deeppoly.analyze updated ~box:input ~splits:Splits.empty with
    | Deeppoly.Feasible a -> Deeppoly.bounds a
    | Deeppoly.Infeasible -> Alcotest.fail "updated root is DeepPoly-infeasible"
  in
  let stable_at_root (r : Relu_id.t) =
    let l = root.Bounds.layers.(r.Relu_id.layer) in
    l.Bounds.pre_lo.(r.Relu_id.index) >= 0.0 || l.Bounds.pre_hi.(r.Relu_id.index) <= 0.0
  in
  let replayed = ref 0 in
  Tree.iter_nodes original.Bab.tree (fun n ->
      match Tree.decision n with
      | Some (Decision.Relu_split r) when stable_at_root r -> incr replayed
      | _ -> ());
  Alcotest.(check bool) "N's tree splits units stable at N^a's root" true (!replayed > 0);
  (* The solve hook names each call's LP; its stats tell whether the
     solve started from the parent's basis. *)
  let solved = ref None and attempts = ref 0 and hits = ref 0 in
  let observed =
    {
      analyzer with
      Analyzer.run =
        (fun net ~prop ~box ~splits ->
          solved := None;
          let o = analyzer.Analyzer.run net ~prop ~box ~splits in
          (match !solved with
          | Some p when List.exists (fun (r, _) -> stable_at_root r) (Splits.bindings splits) -> (
              match Lp.last_stats p with
              | Some { Lp.warm = Lp.Warm_hit; _ } ->
                  incr attempts;
                  incr hits
              | Some { Lp.warm = Lp.Warm_miss; _ } -> incr attempts
              | Some { Lp.warm = Lp.Cold; _ } | None -> ())
          | _ -> ());
          o);
    }
  in
  let run =
    Fun.protect
      ~finally:(fun () -> Lp.set_solve_hook None)
      (fun () ->
        Lp.set_solve_hook (Some (fun p -> solved := Some p));
        Ivan.verify_updated ~analyzer:observed ~heuristic ~config ~original_run:original ~updated
          ~prop)
  in
  let scratch = Ivan.verify_original ~analyzer ~heuristic ~config ~net:updated ~prop in
  let kind (r : Bab.run) =
    match r.Bab.verdict with
    | Bab.Proved -> "proved"
    | Bab.Disproved _ -> "disproved"
    | Bab.Exhausted -> "exhausted"
  in
  Alcotest.(check string) "incremental verdict = from scratch" (kind scratch) (kind run);
  Alcotest.(check string) "proved" "proved" (kind run);
  Alcotest.(check bool) "well-formed tree" true (Tree.well_formed run.Bab.tree);
  Alcotest.(check int) "no fault absorbed" 0 run.Bab.stats.Bab.faults_absorbed;
  Alcotest.(check bool) "grown subtree attempts warm starts" true (!attempts > 0);
  Alcotest.(check bool) "and some hit" true (!hits > 0)

let test_reuse_identical_network_is_optimal () =
  (* Theorem 6 situation: N^a = N.  Reuse bounds exactly the leaves. *)
  let net = Fixtures.paper_net () in
  let prop = Fixtures.paper_prop_with_offset 1.6 in
  let original =
    Ivan.verify_original ~analyzer ~heuristic:Heuristic.zono_coeff ~config:Ivan.default_config
      ~net ~prop
  in
  let config = { Ivan.default_config with technique = Ivan.Reuse } in
  let rerun =
    Ivan.verify_updated ~analyzer ~heuristic:Heuristic.zono_coeff ~config ~original_run:original
      ~updated:net ~prop
  in
  Alcotest.(check bool) "proved" true (rerun.Bab.verdict = Bab.Proved);
  Alcotest.(check int) "calls = leaves"
    original.Bab.stats.Bab.tree_leaves rerun.Bab.stats.Bab.analyzer_calls;
  Alcotest.(check bool) "speedup vs baseline calls" true
    (rerun.Bab.stats.Bab.analyzer_calls <= original.Bab.stats.Bab.analyzer_calls)

let test_incremental_architecture_mismatch () =
  let net = Fixtures.paper_net () in
  let other = Fixtures.random_net ~seed:1 ~dims:[ 2; 3; 1 ] in
  let prop = Fixtures.paper_prop () in
  Alcotest.check_raises "arch"
    (Invalid_argument "Ivan.verify_incremental: networks must share an architecture") (fun () ->
      ignore
        (Ivan.verify_incremental ~analyzer ~heuristic:Heuristic.zono_coeff ~net ~updated:other
           ~prop ()))

let test_incremental_counterexample_case () =
  (* A property that is false on the update must yield a genuine CE. *)
  let net = Fixtures.paper_net () in
  let prop = Fixtures.paper_prop_with_offset 1.52 in
  (* Large perturbation can push the minimum below the offset. *)
  let rng = Rng.create 9 in
  let updated = Perturb.random_relative ~rng ~fraction:0.10 net in
  let result =
    Ivan.verify_incremental ~analyzer ~heuristic:Heuristic.zono_coeff ~net ~updated ~prop ()
  in
  match result.Ivan.updated.Bab.verdict with
  | Bab.Proved -> Alcotest.(check bool) "sound if proved" true (Fixtures.approx_min_margin ~seed:9 updated prop >= -1e-6)
  | Bab.Disproved x ->
      Alcotest.(check bool) "genuine CE" true (Analyzer.check_concrete updated ~prop x)
  | Bab.Exhausted -> Alcotest.fail "tiny instance exhausted"

let prop_incremental_matches_baseline_verdict =
  QCheck.Test.make ~name:"incremental verdict equals baseline verdict" ~count:10
    QCheck.(make QCheck.Gen.(pair (int_range 1 100_000) (float_range 1.4 1.9)))
    (fun (seed, offset) ->
      let net = Fixtures.paper_net () in
      let rng = Rng.create seed in
      let updated = Perturb.random_relative ~rng ~fraction:0.05 net in
      let prop = Fixtures.paper_prop_with_offset offset in
      let run technique =
        let config = { Ivan.default_config with technique } in
        let result =
          Ivan.verify_incremental ~analyzer ~heuristic:Heuristic.zono_coeff ~config ~net ~updated
            ~prop ()
        in
        result.Ivan.updated.Bab.verdict
      in
      let same a b =
        match (a, b) with
        | Bab.Proved, Bab.Proved -> true
        | Bab.Disproved _, Bab.Disproved _ -> true
        | Bab.Exhausted, _ | _, Bab.Exhausted -> true (* budget-dependent *)
        | _, _ -> false
      in
      let baseline = run Ivan.Baseline in
      same baseline (run Ivan.Reuse) && same baseline (run Ivan.Reorder) && same baseline (run Ivan.Full))



(* ---------------- The run journal as a persistent proof ---------------- *)

module Engine = Ivan_bab.Engine

(* A verify_original run on the paper net journaled in memory, as the
   CLI's prove journals into its -o file, with the journal's bytes. *)
let journaled_original () =
  let net = Fixtures.paper_net () in
  let prop = Fixtures.paper_prop_with_offset 1.6 in
  let buf = Buffer.create 4096 in
  let run =
    Ivan.verify_original ~analyzer ~heuristic:Heuristic.zono_coeff
      ~config:{ Ivan.default_config with journal = Some (Journal.to_buffer buf) }
      ~net ~prop
  in
  (net, prop, run, Buffer.contents buf)

let resume ~net ~prop data = Engine.resume ~analyzer ~heuristic:Heuristic.zono_coeff ~net ~prop data

let resumed_finished ~net ~prop data =
  match resume ~net ~prop data with
  | Error msg -> Alcotest.fail msg
  | Ok (engine, _) -> (
      match Engine.finished engine with
      | Some run -> run
      | None -> Alcotest.fail "a complete journal resumed unfinished")

let check_same_run label (a : Bab.run) (b : Bab.run) =
  Alcotest.(check bool) (label ^ ": verdict") true (a.Bab.verdict = b.Bab.verdict);
  Alcotest.(check int) (label ^ ": calls") a.Bab.stats.Bab.analyzer_calls
    b.Bab.stats.Bab.analyzer_calls;
  Alcotest.(check string) (label ^ ": tree") (Tree.to_string a.Bab.tree) (Tree.to_string b.Bab.tree)

let test_journal_proof_resumes_run () =
  let net, prop, run, data = journaled_original () in
  Alcotest.(check bool) "proved with splits" true
    (run.Bab.verdict = Bab.Proved && Tree.size run.Bab.tree > 1);
  check_same_run "resumed" run (resumed_finished ~net ~prop data)

let test_journal_proof_seeds_update () =
  let net, prop, run, data = journaled_original () in
  let updated = Quant.network Quant.Int8 net in
  let reverify original_run =
    Ivan.verify_updated ~analyzer ~heuristic:Heuristic.zono_coeff ~config:Ivan.default_config
      ~original_run ~updated ~prop
  in
  (* A journal keeps no multipliers ({!Tree.to_string} drops them), so
     it seeds exactly the run the live tree seeds without them; with
     them, the live run closes leaves without a solve, on the same
     search. *)
  let resumed = reverify (resumed_finished ~net ~prop data) in
  check_same_run "seeded from the journal"
    (reverify { run with Bab.tree = Tree.of_string (Tree.to_string run.Bab.tree) })
    resumed;
  let live = reverify run in
  Alcotest.(check bool) "seeded live: leaves closed" true (live.Bab.stats.Bab.dual_closures > 0);
  Fixtures.check_closed_run "seeded live" ~solved:resumed ~closed:live

let test_journal_proof_bound_to_property () =
  let net, _, _, data = journaled_original () in
  match resume ~net ~prop:(Fixtures.paper_prop_with_offset 1.4) data with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "a journal for another property was accepted"

let test_journal_proof_unfinished () =
  let net, prop, _, data = journaled_original () in
  (* Cut the terminal Step frame: a prove killed during its last
     step. *)
  let records = (Journal.scan data).Journal.records in
  (match List.map (fun r -> r.Journal.kind) records with
  | Journal.Header :: Journal.Checkpoint :: steps
    when steps <> [] && List.for_all (( = ) Journal.Step) steps ->
      ()
  | _ -> Alcotest.fail "journal is not a Header, a Checkpoint and Step frames");
  let cut =
    List.filteri (fun i _ -> i < List.length records - 1) records
    |> List.map (fun r -> Journal.encode_frame r.Journal.kind r.Journal.payload)
    |> String.concat ""
  in
  match resume ~net ~prop cut with
  | Error msg -> Alcotest.fail msg
  | Ok (engine, _) ->
      Alcotest.(check bool) "resumes unfinished" true (Engine.finished engine = None)

(* ---------------- Differential verification ---------------- *)

module Diffverify = Ivan_core.Diffverify

let diff_fixture () =
  let net = Fixtures.random_net ~seed:91 ~dims:[ 2; 5; 2 ] in
  let box = Box.make ~lo:(Vec.zeros 2) ~hi:(Vec.create 2 1.0) in
  (net, box)

let test_diffverify_identical () =
  let net, box = diff_fixture () in
  let proof =
    Diffverify.verify ~analyzer ~heuristic:Heuristic.zono_coeff net net ~box ~delta:1e-6
  in
  Alcotest.(check bool) "identical nets equivalent" true (proof.Diffverify.verdict = Diffverify.Equivalent);
  Alcotest.(check int) "2m properties" 4 (List.length proof.Diffverify.runs)

let test_diffverify_quantization_bounded () =
  let net, box = diff_fixture () in
  let updated = Quant.network Quant.Int16 net in
  let proof =
    Diffverify.verify ~analyzer ~heuristic:Heuristic.zono_coeff net updated ~box ~delta:0.5
  in
  Alcotest.(check bool) "int16 within 0.5" true (proof.Diffverify.verdict = Diffverify.Equivalent)

let test_diffverify_detects_deviation () =
  let net, box = diff_fixture () in
  let rng = Rng.create 92 in
  let changed = Perturb.random_additive ~rng ~magnitude:0.5 net in
  let proof =
    Diffverify.verify ~analyzer ~heuristic:Heuristic.zono_coeff net changed ~box ~delta:1e-4
  in
  match proof.Diffverify.verdict with
  | Diffverify.Deviation x ->
      let d =
        Vec.norm_inf (Vec.sub (Network.forward net x) (Network.forward changed x))
      in
      Alcotest.(check bool) "genuine deviation" true (d > 1e-4)
  | Diffverify.Equivalent -> Alcotest.fail "missed an obvious deviation"
  | Diffverify.Unknown -> Alcotest.fail "tiny instance exhausted"

let test_diffverify_verdict_matches_sampling () =
  (* The exact differential verdict must be consistent with sampling. *)
  let net, box = diff_fixture () in
  let updated = Quant.network Quant.Int8 net in
  let rng = Rng.create 93 in
  let sampled_max = ref 0.0 in
  for _ = 1 to 2000 do
    let x = Box.sample ~rng box in
    let d = Vec.norm_inf (Vec.sub (Network.forward net x) (Network.forward updated x)) in
    sampled_max := Float.max !sampled_max d
  done;
  (* delta above the sampled max with slack: must be Equivalent if the
     verifier is right (sampling cannot exceed the true max). *)
  let proof =
    Diffverify.verify ~analyzer ~heuristic:Heuristic.zono_coeff net updated ~box
      ~delta:(!sampled_max *. 3.0 +. 0.1)
  in
  Alcotest.(check bool) "equivalent above sampled max" true
    (proof.Diffverify.verdict = Diffverify.Equivalent);
  (* delta below the sampled max: must NOT be Equivalent. *)
  if !sampled_max > 1e-6 then begin
    let proof2 =
      Diffverify.verify ~analyzer ~heuristic:Heuristic.zono_coeff net updated ~box
        ~delta:(!sampled_max /. 2.0)
    in
    match proof2.Diffverify.verdict with
    | Diffverify.Equivalent -> Alcotest.fail "claimed equivalence below a witnessed deviation"
    | Diffverify.Deviation _ | Diffverify.Unknown -> ()
  end

let test_diffverify_incremental () =
  (* Verify (N, int16) from scratch, then (N, int8) incrementally. *)
  let net, box = diff_fixture () in
  let u16 = Quant.network Quant.Int16 net in
  let u8 = Quant.network Quant.Int8 net in
  let first =
    Diffverify.verify ~analyzer ~heuristic:Heuristic.zono_coeff net u16 ~box ~delta:0.5
  in
  let second =
    Diffverify.verify_incremental ~analyzer ~heuristic:Heuristic.zono_coeff ~previous:first net
      u8 ~box ~delta:0.5
  in
  Alcotest.(check bool) "incremental verdict" true
    (second.Diffverify.verdict = Diffverify.Equivalent);
  (* The from-scratch second proof costs at least as much. *)
  let scratch =
    Diffverify.verify ~analyzer ~heuristic:Heuristic.zono_coeff net u8 ~box ~delta:0.5
  in
  Alcotest.(check bool) "incremental no more calls" true
    (second.Diffverify.total_calls <= scratch.Diffverify.total_calls)



(* ---------------- Pruning invariants (property tests) ---------------- *)

(* Random LB-annotated trees for property testing. *)
let random_annotated_tree seed =
  let rng = Rng.create seed in
  let t = Tree.create () in
  Tree.set_lb (Tree.root t) (Rng.uniform rng (-10.0) 0.0);
  for _ = 1 to 1 + Rng.int rng 12 do
    let leaves = Array.of_list (Tree.leaves t) in
    let leaf = leaves.(Rng.int rng (Array.length leaves)) in
    let d = r (Rng.int rng 3) (Rng.int rng 5) in
    let on_path =
      List.exists (fun (pd, _) -> Decision.equal pd d) (Tree.path_decisions leaf)
    in
    if not on_path && Tree.is_leaf leaf then begin
      let l, rr = Tree.split t leaf d in
      (* Children improve on the parent most of the time, like real
         analyzer bounds. *)
      let base = Tree.lb leaf in
      Tree.set_lb l (base +. Rng.uniform rng (-0.5) 3.0);
      Tree.set_lb rr (base +. Rng.uniform rng (-0.5) 3.0)
    end
  done;
  t

let prop_prune_well_formed =
  QCheck.Test.make ~name:"pruned trees stay well-formed and smaller" ~count:100
    QCheck.(make QCheck.Gen.(pair (int_range 0 100_000) (float_range 0.0 0.5)))
    (fun (seed, theta) ->
      let t = random_annotated_tree seed in
      let p = Prune.prune ~theta t in
      Tree.well_formed p
      && Tree.size p <= Tree.size t
      && Tree.size p = (2 * Tree.num_leaves p) - 1)

let prop_prune_theta_zero_keeps_positive_trees =
  QCheck.Test.make ~name:"theta=0 prunes only negative-improvement splits" ~count:50
    QCheck.(make QCheck.Gen.(int_range 0 100_000))
    (fun seed ->
      let t = random_annotated_tree seed in
      let all_improvements_nonneg =
        let ok = ref true in
        Tree.iter_nodes t (fun n ->
            match Effectiveness.improvement n with
            | Some i when i < 0.0 -> ok := false
            | Some _ | None -> ());
        !ok
      in
      let p = Prune.prune ~theta:0.0 t in
      (not all_improvements_nonneg) || Tree.size p = Tree.size t)

let prop_prune_decisions_subset =
  QCheck.Test.make ~name:"pruned decisions come from the original tree" ~count:50
    QCheck.(make QCheck.Gen.(pair (int_range 0 100_000) (float_range 0.0 0.5)))
    (fun (seed, theta) ->
      let t = random_annotated_tree seed in
      let decisions tree =
        let acc = ref [] in
        Tree.iter_nodes tree (fun n ->
            match Tree.decision n with Some d -> acc := d :: !acc | None -> ());
        !acc
      in
      let original = decisions t in
      let p = Prune.prune ~theta t in
      List.for_all (fun d -> List.exists (Decision.equal d) original) (decisions p))



let suite =
  let q = QCheck_alcotest.to_alcotest in
  [
    ("improvement", `Quick, test_improvement);
    ("h_obs", `Quick, test_h_obs);
    ("improvement clamps infinities", `Quick, test_improvement_clamps_infinite);
    ("hdelta alpha extremes", `Quick, test_hdelta_alpha_extremes);
    ("hdelta theta penalizes", `Quick, test_hdelta_theta_penalizes);
    ("hdelta invalid alpha", `Quick, test_hdelta_invalid_alpha);
    ("prune removes bad root split", `Quick, test_prune_removes_bad_root_split);
    ("prune keeps good tree", `Quick, test_prune_keeps_good_tree);
    ("prune single node", `Quick, test_prune_single_node);
    ("prune bad split with leaf child", `Quick, test_prune_bad_split_with_leaf_child);
    ("theorem4 quantities", `Quick, test_theorem4_quantities);
    ("theorem4 perturbation preserved", `Quick, test_theorem4_perturbation_preserved);
    ("incremental all techniques", `Quick, test_incremental_all_techniques);
    ("incremental certify and journal", `Quick, test_incremental_certify_and_journal);
    ("replay splits root-stable units", `Quick, test_replay_splits_root_stable_units);
    ("reuse identical network optimal", `Quick, test_reuse_identical_network_is_optimal);
    ("incremental architecture mismatch", `Quick, test_incremental_architecture_mismatch);
    ("incremental counterexample case", `Quick, test_incremental_counterexample_case);
    q prop_incremental_matches_baseline_verdict;
    ("journal proof resumes run", `Quick, test_journal_proof_resumes_run);
    ("journal proof seeds update", `Quick, test_journal_proof_seeds_update);
    ("journal proof bound to property", `Quick, test_journal_proof_bound_to_property);
    ("journal proof unfinished", `Quick, test_journal_proof_unfinished);
    ("diffverify identical", `Quick, test_diffverify_identical);
    ("diffverify quantization bounded", `Quick, test_diffverify_quantization_bounded);
    ("diffverify detects deviation", `Quick, test_diffverify_detects_deviation);
    ("diffverify matches sampling", `Quick, test_diffverify_verdict_matches_sampling);
    ("diffverify incremental", `Quick, test_diffverify_incremental);
    q prop_prune_well_formed;
    q prop_prune_theta_zero_keeps_positive_trees;
    q prop_prune_decisions_subset;
  ]
