(* Tests for the BaB verifier: completeness on small instances,
   counterexample validity, budgets, tree/stat accounting, reuse of an
   initial tree. *)

module Vec = Ivan_tensor.Vec
module Box = Ivan_spec.Box
module Prop = Ivan_spec.Prop
module Analyzer = Ivan_analyzer.Analyzer
module Heuristic = Ivan_bab.Heuristic
module Bab = Ivan_bab.Bab
module Tree = Ivan_spectree.Tree

let lp = Analyzer.lp_triangle ()

let verify ?budget ?initial_tree ?(heuristic = Heuristic.zono_coeff) ?(analyzer = lp) net prop =
  Bab.verify ~analyzer ~heuristic ?budget ?initial_tree ~net ~prop ()

let test_easy_proved () =
  let run = verify (Fixtures.paper_net ()) (Fixtures.paper_prop ()) in
  Alcotest.(check bool) "proved" true (run.Bab.verdict = Bab.Proved);
  Alcotest.(check int) "single analyzer call" 1 run.Bab.stats.Bab.analyzer_calls;
  Alcotest.(check int) "tree stays trivial" 1 run.Bab.stats.Bab.tree_size

let test_hard_proved_with_branching () =
  (* offset 1.6 > 1.5: true but tight, forcing branching. *)
  let net = Fixtures.paper_net () in
  let prop = Fixtures.paper_prop_with_offset 1.6 in
  let run = verify net prop in
  Alcotest.(check bool) "proved" true (run.Bab.verdict = Bab.Proved);
  Alcotest.(check bool) "needed branching" true (run.Bab.stats.Bab.branchings >= 1);
  (* Theorem 1 accounting for a from-scratch proof: every node of the
     final tree was bounded exactly once. *)
  Alcotest.(check int) "calls = nodes" run.Bab.stats.Bab.tree_size run.Bab.stats.Bab.analyzer_calls;
  Alcotest.(check int) "size = 2*branchings + 1"
    ((2 * run.Bab.stats.Bab.branchings) + 1)
    run.Bab.stats.Bab.tree_size

let test_false_disproved () =
  let net = Fixtures.paper_net () in
  let prop = Fixtures.paper_prop_with_offset 1.4 in
  let run = verify net prop in
  match run.Bab.verdict with
  | Bab.Disproved x ->
      Alcotest.(check bool) "genuine CE" true (Analyzer.check_concrete net ~prop x)
  | Bab.Proved -> Alcotest.fail "disproved property reported Proved"
  | Bab.Exhausted -> Alcotest.fail "budget exhausted on tiny instance"

let test_budget_exhaustion () =
  let net = Fixtures.paper_net () in
  let prop = Fixtures.paper_prop_with_offset 1.6 in
  let budget = { Bab.max_analyzer_calls = 1; max_seconds = infinity } in
  let run = verify ~budget net prop in
  Alcotest.(check bool) "exhausted" true (run.Bab.verdict = Bab.Exhausted)

let test_lbs_recorded () =
  let net = Fixtures.paper_net () in
  let prop = Fixtures.paper_prop_with_offset 1.6 in
  let run = verify net prop in
  Tree.iter_nodes run.Bab.tree (fun n ->
      Alcotest.(check bool) "lb recorded" true (not (Float.is_nan (Tree.lb n))))

let test_initial_tree_reuse () =
  let net = Fixtures.paper_net () in
  let prop = Fixtures.paper_prop_with_offset 1.6 in
  let first = verify net prop in
  Alcotest.(check bool) "first proved" true (first.Bab.verdict = Bab.Proved);
  (* Re-verify the same network starting from the final tree: only the
     leaves get analyzer calls (Theorem 5 / 6 situation). *)
  let second = verify ~initial_tree:first.Bab.tree net prop in
  Alcotest.(check bool) "second proved" true (second.Bab.verdict = Bab.Proved);
  Alcotest.(check int) "calls = leaves of reused tree"
    first.Bab.stats.Bab.tree_leaves second.Bab.stats.Bab.analyzer_calls;
  Alcotest.(check int) "no new branching" 0 second.Bab.stats.Bab.branchings;
  (* The original tree was not mutated. *)
  Alcotest.(check int) "original intact" first.Bab.stats.Bab.tree_size (Tree.size first.Bab.tree)

let test_input_splitting_mode () =
  let net = Fixtures.paper_net () in
  let prop = Fixtures.paper_prop_with_offset 1.6 in
  let run = verify ~analyzer:(Analyzer.zonotope ()) ~heuristic:Heuristic.input_smear net prop in
  Alcotest.(check bool) "proved with input splitting" true (run.Bab.verdict = Bab.Proved);
  (* All decisions in the tree are input splits. *)
  Tree.iter_nodes run.Bab.tree (fun n ->
      match Tree.decision n with
      | Some (Ivan_spectree.Decision.Input_split _) | None -> ()
      | Some (Ivan_spectree.Decision.Relu_split _) -> Alcotest.fail "unexpected relu split")

let test_heuristics_all_complete () =
  let net = Fixtures.paper_net () in
  let prop = Fixtures.paper_prop_with_offset 1.6 in
  List.iter
    (fun h ->
      let run = verify ~heuristic:h net prop in
      Alcotest.(check bool) (h.Heuristic.name ^ " proves") true (run.Bab.verdict = Bab.Proved))
    [ Heuristic.zono_coeff; Heuristic.width; Heuristic.random ~seed:3 ]

let test_dimension_mismatch () =
  let net = Fixtures.paper_net () in
  let input = Box.make ~lo:(Vec.zeros 3) ~hi:(Vec.create 3 1.0) in
  let prop = Prop.make ~name:"bad" ~input ~c:(Vec.of_list [ 1.0 ]) ~offset:0.0 in
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Engine.create: property dimension does not match the network") (fun () ->
      ignore (verify net prop))

(* Completeness sweep: for offsets straddling the exact minimum (-1.5),
   BaB must prove exactly those with offset > 1.5 and disprove those
   with offset < 1.5. *)
let test_decision_boundary () =
  let net = Fixtures.paper_net () in
  List.iter
    (fun offset ->
      let prop = Fixtures.paper_prop_with_offset offset in
      let run = verify net prop in
      if offset > 1.5 then
        Alcotest.(check bool) (Printf.sprintf "offset %g proved" offset) true (run.Bab.verdict = Bab.Proved)
      else
        match run.Bab.verdict with
        | Bab.Disproved _ -> ()
        | Bab.Proved -> Alcotest.failf "offset %g wrongly proved" offset
        | Bab.Exhausted -> Alcotest.failf "offset %g exhausted" offset)
    [ 1.3; 1.45; 1.55; 1.7; 2.0 ]

let prop_bab_sound_random =
  QCheck.Test.make ~name:"bab verdicts sound on random nets" ~count:10
    QCheck.(make QCheck.Gen.(pair (int_range 1 100_000) (float_range (-1.0) 1.0)))
    (fun (seed, offset) ->
      let net = Fixtures.random_net ~seed ~dims:[ 2; 4; 3; 1 ] in
      let input = Box.make ~lo:(Vec.zeros 2) ~hi:(Vec.create 2 1.0) in
      let prop = Prop.make ~name:"q" ~input ~c:(Vec.of_list [ 1.0 ]) ~offset in
      let budget = { Bab.max_analyzer_calls = 300; max_seconds = infinity } in
      let run =
        Bab.verify ~analyzer:lp ~heuristic:Heuristic.zono_coeff ~budget ~net ~prop ()
      in
      match run.Bab.verdict with
      | Bab.Proved -> Fixtures.approx_min_margin ~seed net prop >= -1e-6
      | Bab.Disproved x -> Analyzer.check_concrete net ~prop x
      | Bab.Exhausted -> true)



(* Golden warm-vs-cold run: LP warm starting is a pure solver-level
   optimization, so a branching verification must produce the identical
   verdict, tree, node count and per-node lower bounds either way — only
   the warm-start counters may differ. *)
let test_warm_cold_identical () =
  let net = Fixtures.paper_net () in
  let prop = Fixtures.paper_prop_with_offset 1.6 in
  let cold = verify ~analyzer:(Analyzer.lp_triangle ~warm:false ()) net prop in
  let warm = verify ~analyzer:(Analyzer.lp_triangle ~warm:true ()) net prop in
  Alcotest.(check bool) "branching exercised" true (cold.Bab.stats.Bab.branchings >= 1);
  Alcotest.(check bool) "same verdict" true (cold.Bab.verdict = warm.Bab.verdict);
  Alcotest.(check int) "same tree size" cold.Bab.stats.Bab.tree_size warm.Bab.stats.Bab.tree_size;
  Alcotest.(check int) "same analyzer calls" cold.Bab.stats.Bab.analyzer_calls
    warm.Bab.stats.Bab.analyzer_calls;
  let lbs run =
    let acc = ref [] in
    Tree.iter_nodes run.Bab.tree (fun n -> acc := Tree.lb n :: !acc);
    List.rev !acc
  in
  List.iter2
    (fun a b -> Alcotest.(check (float 1e-6)) "node lb identical" a b)
    (lbs cold) (lbs warm);
  Alcotest.(check int) "cold run never warm-starts" 0
    (cold.Bab.stats.Bab.lp_warm_hits + cold.Bab.stats.Bab.lp_warm_misses);
  Alcotest.(check bool) "warm run attempts warm starts" true
    (warm.Bab.stats.Bab.lp_warm_hits + warm.Bab.stats.Bab.lp_warm_misses >= 1);
  Alcotest.(check bool) "warm run achieves warm hits" true
    (warm.Bab.stats.Bab.lp_warm_hits >= 1)

let test_time_budget_exhaustion () =
  let net = Fixtures.paper_net () in
  let prop = Fixtures.paper_prop_with_offset 1.6 in
  (* A zero wall-clock budget: the first budget check fires before any
     analyzer call completes a proof. *)
  let budget = { Bab.max_analyzer_calls = 1000; max_seconds = 0.0 } in
  let run = verify ~budget net prop in
  Alcotest.(check bool) "exhausted by time" true (run.Bab.verdict = Bab.Exhausted)

let test_heuristic_best_deterministic () =
  let d1 = Ivan_spectree.Decision.Relu_split (Ivan_nn.Relu_id.make ~layer:0 ~index:0) in
  let d2 = Ivan_spectree.Decision.Relu_split (Ivan_nn.Relu_id.make ~layer:0 ~index:1) in
  (* Ties break toward the smaller decision, independent of list order. *)
  Alcotest.(check bool) "tie order 1" true
    (Heuristic.best [ (d1, 1.0); (d2, 1.0) ] = Some d1);
  Alcotest.(check bool) "tie order 2" true
    (Heuristic.best [ (d2, 1.0); (d1, 1.0) ] = Some d1);
  Alcotest.(check bool) "empty" true (Heuristic.best [] = None);
  Alcotest.(check bool) "max wins" true (Heuristic.best [ (d1, 0.5); (d2, 2.0) ] = Some d2)

let suite =
  let q = QCheck_alcotest.to_alcotest in
  [
    ("easy proved", `Quick, test_easy_proved);
    ("hard proved with branching", `Quick, test_hard_proved_with_branching);
    ("false disproved", `Quick, test_false_disproved);
    ("budget exhaustion", `Quick, test_budget_exhaustion);
    ("lbs recorded", `Quick, test_lbs_recorded);
    ("initial tree reuse", `Quick, test_initial_tree_reuse);
    ("input splitting mode", `Quick, test_input_splitting_mode);
    ("heuristics all complete", `Quick, test_heuristics_all_complete);
    ("dimension mismatch", `Quick, test_dimension_mismatch);
    ("decision boundary", `Quick, test_decision_boundary);
    q prop_bab_sound_random;
    ("warm and cold runs identical", `Quick, test_warm_cold_identical);
    ("time budget exhaustion", `Quick, test_time_budget_exhaustion);
    ("heuristic best deterministic", `Quick, test_heuristic_best_deterministic);
  ]
