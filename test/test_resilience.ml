(* Tests for the fault-tolerance layer: LP input validation and
   numerical guards, MILP failure surfacing, deterministic fault
   injection, the retry/fallback analyzer combinator, engine-level fault
   absorption, seeded fault campaigns, and checkpoint/resume. *)

module Vec = Ivan_tensor.Vec
module Box = Ivan_spec.Box
module Prop = Ivan_spec.Prop
module Network = Ivan_nn.Network
module Quant = Ivan_nn.Quant
module Splits = Ivan_domains.Splits
module Lp = Ivan_lp.Lp
module Milp = Ivan_lp.Milp
module Analyzer = Ivan_analyzer.Analyzer
module Heuristic = Ivan_bab.Heuristic
module Bab = Ivan_bab.Bab
module Engine = Ivan_bab.Engine
module Frontier = Ivan_bab.Frontier
module Trace = Ivan_bab.Trace
module Tree = Ivan_spectree.Tree
module Journal = Ivan_resilience.Journal
module Ivan = Ivan_core.Ivan
module Diffverify = Ivan_core.Diffverify

let lp = Analyzer.lp_triangle ()

(* ------------------------------------------------------------------ *)
(* Satellite: NaN/inf guards in the simplex *)

let test_lp_rejects_nan_input () =
  let p = Lp.create 2 in
  Lp.set_objective p [| 1.0; 1.0 |];
  Lp.set_bounds p 0 nan 1.0;
  Lp.set_bounds p 1 0.0 1.0;
  (match Lp.solve p with
  | exception Lp.Numerical_failure _ -> ()
  | exception Lp.Iteration_limit -> Alcotest.fail "NaN bound misreported as iteration limit"
  | _ -> Alcotest.fail "NaN bound accepted");
  let q = Lp.create 1 in
  Lp.set_objective q [| nan |];
  (match Lp.solve q with
  | exception Lp.Numerical_failure _ -> ()
  | _ -> Alcotest.fail "NaN objective accepted");
  let r = Lp.create 1 in
  Lp.set_objective r [| 1.0 |];
  Lp.set_bounds r 0 0.0 2.0;
  Lp.add_constraint r [ (0, infinity) ] Lp.Le 1.0;
  match Lp.solve r with
  | exception Lp.Numerical_failure _ -> ()
  | _ -> Alcotest.fail "infinite coefficient accepted"

(* Unbounded variable ranges are legal input; only NaN and non-finite
   matrix/objective entries are malformed. *)
let test_lp_accepts_infinite_bounds () =
  let p = Lp.create 2 in
  Lp.set_objective p [| 1.0; 1.0 |];
  Lp.set_bounds p 0 neg_infinity infinity;
  Lp.set_bounds p 1 neg_infinity infinity;
  Lp.add_constraint p [ (0, 1.0) ] Lp.Ge 2.0;
  Lp.add_constraint p [ (1, 1.0) ] Lp.Ge 3.0;
  match Lp.solve p with
  | Lp.Optimal { objective; _ } -> Alcotest.(check (float 1e-9)) "objective" 5.0 objective
  | _ -> Alcotest.fail "free-variable LP should be optimal"

let test_lp_solve_hook_fires () =
  let p = Lp.create 1 in
  Lp.set_objective p [| 1.0 |];
  Lp.set_bounds p 0 0.0 1.0;
  let hits = ref 0 in
  Lp.set_solve_hook (Some (fun _ -> incr hits));
  Fun.protect
    ~finally:(fun () -> Lp.set_solve_hook None)
    (fun () ->
      ignore (Lp.solve p);
      ignore (Lp.solve p));
  Alcotest.(check int) "hook saw both solves" 2 !hits

(* Satellite: MILP surfaces inner-LP failures as a result constructor
   instead of an exception. *)
let test_milp_solver_failure () =
  let make () =
    let p = Lp.create 2 in
    Lp.set_objective p [| 1.0; 1.0 |];
    Lp.set_bounds p 0 0.0 1.0;
    Lp.set_bounds p 1 0.0 1.0;
    Lp.add_constraint p [ (0, 1.0); (1, 1.0) ] Lp.Ge 1.0;
    p
  in
  (match Milp.solve (make ()) ~integer:[ 0; 1 ] with
  | Milp.Optimal { objective; _ } -> Alcotest.(check (float 1e-9)) "clean optimum" 1.0 objective
  | _ -> Alcotest.fail "clean MILP should be optimal");
  let plan = Fault.plan ~lp_rate:1.0 ~kinds:[ Fault.Lp_numerical ] ~seed:7 () in
  match Fault.with_lp_faults plan (fun () -> Milp.solve (make ()) ~integer:[ 0; 1 ]) with
  | Milp.Solver_failure stats ->
      Alcotest.(check bool) "at least one LP attempted" true (stats.Milp.lp_solves >= 1)
  | _ -> Alcotest.fail "injected LP failure should surface as Solver_failure"

(* ------------------------------------------------------------------ *)
(* Fault plans *)

let decisions plan site n = List.init n (fun _ -> Fault.decide plan site)

let test_plan_deterministic () =
  let make () = Fault.plan ~lp_rate:0.5 ~analyzer_rate:0.5 ~seed:42 () in
  let a = make () and b = make () in
  Alcotest.(check bool) "same seed, same LP schedule" true
    (decisions a Fault.Lp_solve 200 = decisions b Fault.Lp_solve 200);
  Alcotest.(check bool) "same seed, same analyzer schedule" true
    (decisions a Fault.Analyzer_run 200 = decisions b Fault.Analyzer_run 200);
  Alcotest.(check bool) "faults actually fired" true (Fault.injected a > 0);
  Alcotest.(check int) "calls counted" 200 (Fault.calls a Fault.Lp_solve);
  let c = Fault.plan ~lp_rate:0.5 ~analyzer_rate:0.5 ~seed:43 () in
  Alcotest.(check bool) "different seed, different schedule" false
    (decisions a Fault.Lp_solve 200 = decisions c Fault.Lp_solve 200)

let test_plan_rates () =
  let quiet = Fault.plan ~seed:1 () in
  Alcotest.(check bool) "zero rate never fires" true
    (List.for_all (( = ) None) (decisions quiet Fault.Lp_solve 100));
  let loud = Fault.plan ~lp_rate:1.0 ~seed:1 () in
  Alcotest.(check bool) "unit rate always fires" true
    (List.for_all (( <> ) None) (decisions loud Fault.Lp_solve 100));
  Alcotest.(check int) "injections counted" 100 (Fault.injected loud)

let test_plan_validation () =
  (match Fault.plan ~lp_rate:1.5 ~seed:0 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "rate > 1 accepted");
  (match Fault.plan ~analyzer_rate:nan ~seed:0 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "NaN rate accepted");
  match Fault.plan ~kinds:[] ~seed:0 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty kind list accepted"

(* ------------------------------------------------------------------ *)
(* The retry / fallback combinator *)

let constant name outcome =
  { Analyzer.name; run = (fun _net ~prop:_ ~box:_ ~splits:_ -> outcome) }

let crashing name = { Analyzer.name; run = (fun _ ~prop:_ ~box:_ ~splits:_ -> raise (Fault.Injected "boom")) }

let run_on_paper a =
  let net = Fixtures.paper_net () in
  let prop = Fixtures.paper_prop () in
  a.Analyzer.run net ~prop ~box:prop.Prop.input ~splits:Splits.empty

let collect () =
  let events = ref [] in
  let notify e = events := e :: !events in
  let count p = List.length (List.filter p !events) in
  let retried = function Analyzer.Retried _ -> true | _ -> false in
  let fell_back = function Analyzer.Fell_back _ -> true | _ -> false in
  let absorbed = function Analyzer.Absorbed _ -> true | _ -> false in
  (notify, fun () -> (count retried, count fell_back, count absorbed))

let test_fallback_retry_recovers () =
  let verified = { Analyzer.status = Analyzer.Verified; lb = 0.5; bounds = None; zono = None; cert = None; lp = None } in
  let attempts = ref 0 in
  let flaky =
    {
      Analyzer.name = "flaky";
      run =
        (fun _ ~prop:_ ~box:_ ~splits:_ ->
          incr attempts;
          if !attempts <= 2 then raise (Fault.Injected "transient") else verified);
    }
  in
  let notify, counts = collect () in
  let policy = { Analyzer.max_retries = 3; node_timeout = infinity; fallback = true } in
  let hardened = Analyzer.with_fallback ~notify ~policy flaky in
  Alcotest.(check string) "keeps the primary's name" "flaky" hardened.Analyzer.name;
  let o = run_on_paper hardened in
  Alcotest.(check bool) "recovered outcome" true (o.Analyzer.status = Analyzer.Verified);
  let retried, fell_back, absorbed = counts () in
  Alcotest.(check int) "two retries" 2 retried;
  Alcotest.(check int) "no fallback needed" 0 fell_back;
  Alcotest.(check int) "both failures reported" 2 absorbed

let test_fallback_degrades_to_chain () =
  let notify, counts = collect () in
  let hardened =
    Analyzer.with_fallback ~notify ~policy:Analyzer.default_policy (crashing "lp-triangle")
  in
  let o = run_on_paper hardened in
  (* The accepted outcome is the first chain analyzer's own answer. *)
  let reference = run_on_paper (Analyzer.deeppoly ()) in
  Alcotest.(check bool) "chain outcome adopted" true
    (o.Analyzer.status = reference.Analyzer.status && o.Analyzer.lb = reference.Analyzer.lb);
  let _, fell_back, _ = counts () in
  Alcotest.(check int) "exactly one fallback event" 1 fell_back

let test_fallback_off_degrades_unknown () =
  let notify, counts = collect () in
  let policy = { Analyzer.max_retries = 0; node_timeout = infinity; fallback = false } in
  let o = run_on_paper (Analyzer.with_fallback ~notify ~policy (crashing "lp-triangle")) in
  Alcotest.(check bool) "degraded to unknown" true
    (o.Analyzer.status = Analyzer.Unknown && o.Analyzer.lb = neg_infinity);
  let retried, fell_back, absorbed = counts () in
  Alcotest.(check int) "no retries allowed" 0 retried;
  Alcotest.(check int) "no fallback allowed" 0 fell_back;
  Alcotest.(check int) "failure still reported" 1 absorbed

(* Outcome sanitation: corrupt claims are rejected even though the
   analyzer returned normally. *)
let test_fallback_sanitizes_outcomes () =
  let policy = { Analyzer.max_retries = 0; node_timeout = infinity; fallback = false } in
  let degraded o =
    o.Analyzer.status = Analyzer.Unknown && o.Analyzer.lb = neg_infinity
  in
  (* NaN lower bound. *)
  let nan_lb = { Analyzer.status = Analyzer.Unknown; lb = nan; bounds = None; zono = None; cert = None; lp = None } in
  Alcotest.(check bool) "NaN bound rejected" true
    (degraded (run_on_paper (Analyzer.with_fallback ~policy (constant "a" nan_lb))));
  (* Verified with a negative bound contradicts itself. *)
  let lying =
    { Analyzer.status = Analyzer.Verified; lb = -1.0; bounds = None; zono = None; cert = None; lp = None }
  in
  Alcotest.(check bool) "inconsistent Verified rejected" true
    (degraded (run_on_paper (Analyzer.with_fallback ~policy (constant "b" lying))));
  (* A claimed counterexample that the network refutes concretely: the
     paper property holds everywhere, so any witness is bogus. *)
  let bogus_ce =
    {
      Analyzer.status = Analyzer.Counterexample (Vec.of_list [ 0.5; 0.5 ]);
      lb = -1.0;
      bounds = None;
      zono = None;
      cert = None;
      lp = None;
    }
  in
  Alcotest.(check bool) "bogus counterexample rejected" true
    (degraded (run_on_paper (Analyzer.with_fallback ~policy (constant "c" bogus_ce))))

let test_fallback_node_timeout () =
  let notify, counts = collect () in
  let policy = { Analyzer.max_retries = 1000; node_timeout = 1e-6; fallback = true } in
  let slow_crash =
    {
      Analyzer.name = "slow";
      run =
        (fun _ ~prop:_ ~box:_ ~splits:_ ->
          Unix.sleepf 0.002;
          raise (Fault.Injected "boom"));
    }
  in
  let o = run_on_paper (Analyzer.with_fallback ~notify ~policy slow_crash) in
  Alcotest.(check bool) "timed-out node degrades" true (o.Analyzer.status = Analyzer.Unknown);
  let retried, _, _ = counts () in
  Alcotest.(check bool) "timeout cuts the retry budget short" true (retried < 1000)

let test_fallback_rejects_bad_policy () =
  (match
     Analyzer.with_fallback
       ~policy:{ Analyzer.max_retries = -1; node_timeout = infinity; fallback = true }
       lp
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative max_retries accepted");
  match
    Analyzer.with_fallback
      ~policy:{ Analyzer.max_retries = 0; node_timeout = 0.0; fallback = true }
      lp
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "zero node_timeout accepted"

(* Fatal conditions must pass straight through the combinator. *)
let test_fallback_fatal_passthrough () =
  let fatal = { Analyzer.name = "oom"; run = (fun _ ~prop:_ ~box:_ ~splits:_ -> raise Out_of_memory) } in
  match run_on_paper (Analyzer.with_fallback ~policy:Analyzer.default_policy fatal) with
  | exception Out_of_memory -> ()
  | _ -> Alcotest.fail "Out_of_memory swallowed by the resilience layer"

(* ------------------------------------------------------------------ *)
(* Engine-level degradation *)

let test_engine_absorbs_crashing_analyzer () =
  let net = Fixtures.paper_net () in
  let prop = Fixtures.paper_prop_with_offset 1.6 in
  let ring = Trace.ring ~capacity:64 in
  let run =
    Bab.verify ~analyzer:(crashing "lp-triangle") ~heuristic:Heuristic.zono_coeff ~trace:ring ~net
      ~prop ()
  in
  Alcotest.(check bool) "crash becomes Exhausted, not an exception" true
    (run.Bab.verdict = Bab.Exhausted);
  Alcotest.(check bool) "absorption counted" true (run.Bab.stats.Bab.faults_absorbed >= 1);
  let absorbed =
    List.filter (function Trace.Absorbed _ -> true | _ -> false) (Trace.ring_contents ring)
  in
  Alcotest.(check bool) "Absorbed event emitted" true (absorbed <> []);
  Alcotest.(check bool) "tree still well-formed" true (Tree.well_formed run.Bab.tree)

(* A deterministic once-per-node flake: with one retry allowed the run
   must be indistinguishable from the fault-free one, except for the
   retry counters. *)
let test_engine_policy_retries_preserve_run () =
  let net = Fixtures.paper_net () in
  let prop = Fixtures.paper_prop_with_offset 1.6 in
  let reference = Bab.verify ~analyzer:lp ~heuristic:Heuristic.zono_coeff ~net ~prop () in
  let attempts = ref 0 in
  let flaky =
    {
      Analyzer.name = "lp-triangle";
      run =
        (fun n ~prop ~box ~splits ->
          incr attempts;
          if !attempts mod 2 = 1 then raise (Fault.Injected "first attempt always fails")
          else lp.Analyzer.run n ~prop ~box ~splits);
    }
  in
  let ring = Trace.ring ~capacity:4096 in
  let run =
    Bab.verify ~analyzer:flaky ~heuristic:Heuristic.zono_coeff ~trace:ring
      ~policy:Analyzer.default_policy ~net ~prop ()
  in
  Alcotest.(check bool) "verdict preserved" true (run.Bab.verdict = reference.Bab.verdict);
  Alcotest.(check string) "tree preserved" (Tree.to_string reference.Bab.tree)
    (Tree.to_string run.Bab.tree);
  Alcotest.(check int) "analyzer calls preserved" reference.Bab.stats.Bab.analyzer_calls
    run.Bab.stats.Bab.analyzer_calls;
  Alcotest.(check int) "every node retried once" run.Bab.stats.Bab.analyzer_calls
    run.Bab.stats.Bab.retries;
  Alcotest.(check int) "no fallback bounds" 0 run.Bab.stats.Bab.fallback_bounds;
  let retried =
    List.filter (function Trace.Retried _ -> true | _ -> false) (Trace.ring_contents ring)
  in
  Alcotest.(check int) "Retried events match the counter" run.Bab.stats.Bab.retries
    (List.length retried)

(* ------------------------------------------------------------------ *)
(* Seeded fault campaign: across many schedules, a faulted run never
   crashes, never flips a decisive verdict, and any counterexample it
   reports is concretely genuine. *)

let campaign_stacks =
  [
    ("classifier", Analyzer.lp_triangle (), Heuristic.zono_coeff);
    ("acas", Analyzer.zonotope (), Heuristic.input_smear);
  ]

let test_fault_campaign () =
  let net = Fixtures.paper_net () in
  let budget = { Bab.max_analyzer_calls = 300; max_seconds = 20.0 } in
  let total_injected = ref 0 in
  List.iter
    (fun (stack, analyzer, heuristic) ->
      List.iter
        (fun offset ->
          let prop = Fixtures.paper_prop_with_offset offset in
          let reference = Bab.verify ~analyzer ~heuristic ~budget ~net ~prop () in
          for seed = 1 to 6 do
            let label = Printf.sprintf "%s offset %g seed %d" stack offset seed in
            let plan = Fault.plan ~lp_rate:0.15 ~analyzer_rate:0.15 ~seed () in
            let faulted =
              Fault.with_lp_faults plan (fun () ->
                  Bab.verify
                    ~analyzer:(Fault.wrap_analyzer plan analyzer)
                    ~heuristic ~budget ~policy:Analyzer.default_policy ~net ~prop ())
            in
            total_injected := !total_injected + Fault.injected plan;
            (match (reference.Bab.verdict, faulted.Bab.verdict) with
            | Bab.Proved, (Bab.Proved | Bab.Exhausted)
            | Bab.Disproved _, (Bab.Disproved _ | Bab.Exhausted)
            | Bab.Exhausted, _ ->
                ()
            | _ -> Alcotest.failf "%s: faulted run flipped the verdict" label);
            (match faulted.Bab.verdict with
            | Bab.Disproved x ->
                Alcotest.(check bool) (label ^ ": genuine CE") true
                  (Analyzer.check_concrete net ~prop x)
            | _ -> ());
            Alcotest.(check bool) (label ^ ": tree well-formed") true
              (Tree.well_formed faulted.Bab.tree)
          done)
        [ 1.3; 1.7 ])
    campaign_stacks;
  Alcotest.(check bool) "campaign exercised real faults" true (!total_injected > 0)

(* ------------------------------------------------------------------ *)
(* Satellite: explicit fault schedules — edge cases a seeded rate
   cannot pin to an exact call. *)

(* The very first LP solve fails.  lp_triangle absorbs solver failures
   below the resilience layer — it falls back on its sound cheap bound —
   so the retry machinery must stay untouched and the verdict must
   survive on a (possibly) weaker root bound. *)
let test_fault_at_first_lp_solve () =
  let net = Fixtures.paper_net () in
  let prop = Fixtures.paper_prop_with_offset 1.6 in
  let reference =
    Bab.verify ~analyzer:(Analyzer.lp_triangle ()) ~heuristic:Heuristic.zono_coeff ~net ~prop ()
  in
  let plan = Fault.plan ~at:[ (Fault.Lp_solve, 0, Fault.Lp_numerical) ] ~seed:0 () in
  let run =
    Fault.with_lp_faults plan (fun () ->
        Bab.verify
          ~analyzer:(Analyzer.lp_triangle ())
          ~heuristic:Heuristic.zono_coeff ~policy:Analyzer.default_policy ~net ~prop ())
  in
  Alcotest.(check int) "exactly the scheduled fault fired" 1 (Fault.injected plan);
  Alcotest.(check bool) "verdict preserved" true (run.Bab.verdict = reference.Bab.verdict);
  Alcotest.(check int) "absorbed below the resilience layer" 0
    run.Bab.stats.Bab.faults_absorbed;
  Alcotest.(check int) "no retries" 0 run.Bab.stats.Bab.retries;
  Alcotest.(check int) "no fallback bounds" 0 run.Bab.stats.Bab.fallback_bounds;
  Alcotest.(check bool) "tree well-formed" true (Tree.well_formed run.Bab.tree)

(* The fault lands on the last frontier node of the run: the reference
   run's final analyzer call.  One retry must recover it and leave the
   run otherwise indistinguishable. *)
let test_fault_at_final_frontier_node () =
  let net = Fixtures.paper_net () in
  let prop = Fixtures.paper_prop_with_offset 1.6 in
  let analyzer = Analyzer.lp_triangle () in
  let reference = Bab.verify ~analyzer ~heuristic:Heuristic.zono_coeff ~net ~prop () in
  let last = reference.Bab.stats.Bab.analyzer_calls - 1 in
  Alcotest.(check bool) "reference run does analyze nodes" true (last >= 0);
  let plan =
    Fault.plan
      ~at:[ (Fault.Analyzer_run, last, Fault.Transient "final node dies") ]
      ~seed:0 ()
  in
  let run =
    Bab.verify
      ~analyzer:(Fault.wrap_analyzer plan analyzer)
      ~heuristic:Heuristic.zono_coeff ~policy:Analyzer.default_policy ~net ~prop ()
  in
  Alcotest.(check int) "exactly the scheduled fault fired" 1 (Fault.injected plan);
  Alcotest.(check bool) "verdict preserved" true (run.Bab.verdict = reference.Bab.verdict);
  Alcotest.(check string) "tree preserved" (Tree.to_string reference.Bab.tree)
    (Tree.to_string run.Bab.tree);
  Alcotest.(check int) "analyzer calls preserved" reference.Bab.stats.Bab.analyzer_calls
    run.Bab.stats.Bab.analyzer_calls;
  Alcotest.(check int) "one absorbed failure" 1 run.Bab.stats.Bab.faults_absorbed;
  Alcotest.(check int) "one retry" 1 run.Bab.stats.Bab.retries;
  Alcotest.(check int) "no fallback bounds" 0 run.Bab.stats.Bab.fallback_bounds

(* Two faults race the fallback chain on one node: the first attempt
   and its single retry (default policy) both die, so the chain must
   degrade that node to the next analyzer — exactly one fallback bound,
   exactly two absorbed failures, exactly one retry. *)
let test_two_faults_race_fallback_chain () =
  let net = Fixtures.paper_net () in
  let prop = Fixtures.paper_prop_with_offset 1.6 in
  let analyzer = Analyzer.lp_triangle () in
  let reference = Bab.verify ~analyzer ~heuristic:Heuristic.zono_coeff ~net ~prop () in
  let plan =
    Fault.plan
      ~at:
        [
          (Fault.Analyzer_run, 0, Fault.Transient "first attempt dies");
          (Fault.Analyzer_run, 1, Fault.Transient "retry dies too");
        ]
      ~seed:0 ()
  in
  let run =
    Bab.verify
      ~analyzer:(Fault.wrap_analyzer plan analyzer)
      ~heuristic:Heuristic.zono_coeff ~policy:Analyzer.default_policy ~net ~prop ()
  in
  Alcotest.(check int) "both scheduled faults fired" 2 (Fault.injected plan);
  Alcotest.(check bool) "verdict preserved" true (run.Bab.verdict = reference.Bab.verdict);
  Alcotest.(check int) "two absorbed failures" 2 run.Bab.stats.Bab.faults_absorbed;
  Alcotest.(check int) "one retry" 1 run.Bab.stats.Bab.retries;
  Alcotest.(check int) "exactly one fallback bound" 1 run.Bab.stats.Bab.fallback_bounds;
  Alcotest.(check bool) "tree well-formed" true (Tree.well_formed run.Bab.tree)

(* An LP outcome the resilience layer rejects leaves no trace of its LP
   report: the node's accepted bound is the fallback's, so no Lp_solved
   event carries the node and its children are not offered the rejected
   solve's basis — they solve cold.  The faulted node is the first whose
   LP verifies it from an optimal basis where DeepPoly alone cannot, so
   the fallback leaves it unknown and it splits. *)
let test_rejected_lp_outcome_reports_nothing () =
  let net = Fixtures.random_net ~seed:3 ~dims:[ 2; 8; 8; 1 ] in
  let prop = Fixtures.paper_prop_with_offset 0.5 in
  let analyzer = Fixtures.lp_every_node () in
  let policy = { Analyzer.max_retries = 0; node_timeout = infinity; fallback = true } in
  let verify ?(trace = Trace.null) a =
    Bab.verify ~analyzer:a ~heuristic:Heuristic.zono_coeff ~policy ~trace ~net ~prop ()
  in
  let reference_trace = Trace.ring ~capacity:10_000 in
  let reference = verify ~trace:reference_trace analyzer in
  let nodes = Hashtbl.create 64 in
  Tree.iter_nodes reference.Bab.tree (fun n -> Hashtbl.replace nodes (Tree.node_id n) n);
  let deeppoly_unknown id =
    let box, splits = Tree.subproblem ~root_box:prop.Prop.input (Hashtbl.find nodes id) in
    ((Analyzer.deeppoly ()).Analyzer.run net ~prop ~box ~splits).Analyzer.status = Analyzer.Unknown
  in
  let analyzed =
    List.filter_map
      (function Trace.Analyzed { node; status; lb; _ } -> Some (node, status, lb) | _ -> None)
      (Trace.ring_contents reference_trace)
  in
  let call, node =
    match
      List.find_opt
        (fun (_, (node, status, lb)) ->
          status = "verified" && lb < infinity && deeppoly_unknown node)
        (List.mapi (fun i a -> (i, a)) analyzed)
    with
    | Some (call, (node, _, _)) -> (call, node)
    | None -> Alcotest.fail "no node that only the LP verifies"
  in
  let plan = Fault.plan ~at:[ (Fault.Analyzer_run, call, Fault.Inf_bounds) ] ~seed:0 () in
  let trace = Trace.ring ~capacity:10_000 in
  let run = verify ~trace (Fault.wrap_analyzer plan analyzer) in
  let events = Trace.ring_contents trace in
  Alcotest.(check int) "exactly the scheduled fault fired" 1 (Fault.injected plan);
  Alcotest.(check bool) "the fallback's bound was accepted" true
    (List.exists (function Trace.Fallback f -> f.node = node | _ -> false) events);
  Alcotest.(check bool) "no Lp_solved event for the rejected outcome" false
    (List.exists (function Trace.Lp_solved l -> l.node = node | _ -> false) events);
  let children =
    List.concat_map
      (function Trace.Split s when s.node = node -> [ s.left; s.right ] | _ -> [])
      events
  in
  Alcotest.(check int) "the node split" 2 (List.length children);
  let child_solves =
    List.filter_map
      (function
        | Trace.Lp_solved l when List.mem l.node children -> Some (l.node, l.warm_hits + l.warm_misses)
        | _ -> None)
      events
  in
  Alcotest.(check bool) "a child solved an LP" true (child_solves <> []);
  List.iter
    (fun (child, warm) ->
      Alcotest.(check int) (Printf.sprintf "child %d offered no basis" child) 0 warm)
    child_solves;
  Alcotest.(check bool) "verdict preserved" true (run.Bab.verdict = reference.Bab.verdict)

(* ------------------------------------------------------------------ *)
(* Checkpoint / resume *)

(* A journaled run on the paper net, and its journal as a process killed
   at that moment would leave it. *)
let paper_engine ?config () =
  let net = Fixtures.paper_net () in
  let prop = Fixtures.paper_prop_with_offset 1.6 in
  let buf = Buffer.create 4096 in
  ( Engine.create ~analyzer:lp ~heuristic:Heuristic.zono_coeff ?config
      ~journal:(Journal.to_buffer buf) ~net ~prop (),
    (fun () -> Buffer.contents buf),
    net,
    prop )

let finish engine =
  let rec go () = match Engine.step engine with Engine.Running -> go () | Engine.Finished r -> r in
  go ()

let resume_ok ?config ~net ~prop bytes =
  match Engine.resume ~analyzer:lp ~heuristic:Heuristic.zono_coeff ?config ~net ~prop bytes with
  | Ok (engine, _) -> engine
  | Error msg -> Alcotest.failf "resume failed: %s" msg

let test_checkpoint_midrun_roundtrip () =
  let engine, snapshot, net, prop = paper_engine () in
  for _ = 1 to 3 do
    match Engine.step engine with
    | Engine.Running -> ()
    | Engine.Finished _ -> Alcotest.fail "instance finished before the checkpoint"
  done;
  let state = snapshot () in
  let original = finish engine in
  let resumed = finish (resume_ok ~net ~prop state) in
  Alcotest.(check bool) "same verdict" true (original.Bab.verdict = resumed.Bab.verdict);
  Alcotest.(check int) "same analyzer calls" original.Bab.stats.Bab.analyzer_calls
    resumed.Bab.stats.Bab.analyzer_calls;
  Alcotest.(check int) "same branchings" original.Bab.stats.Bab.branchings
    resumed.Bab.stats.Bab.branchings;
  Alcotest.(check string) "same final tree" (Tree.to_string original.Bab.tree)
    (Tree.to_string resumed.Bab.tree)

let test_checkpoint_terminal_roundtrip () =
  let engine, snapshot, net, prop = paper_engine () in
  let run = finish engine in
  let restored = resume_ok ~net ~prop (snapshot ()) in
  (match Engine.finished restored with
  | Some r ->
      Alcotest.(check bool) "terminal verdict survives" true (r.Bab.verdict = run.Bab.verdict);
      Alcotest.(check int) "terminal calls survive" run.Bab.stats.Bab.analyzer_calls
        r.Bab.stats.Bab.analyzer_calls
  | None -> Alcotest.fail "terminal checkpoint resumed as running");
  match Engine.step restored with
  | Engine.Finished r ->
      Alcotest.(check bool) "stepping stays terminal" true (r.Bab.verdict = run.Bab.verdict)
  | Engine.Running -> Alcotest.fail "terminal engine resumed"

(* The budget-exhausted continuation: a run that ran out of calls is
   checkpointed terminal, but resuming with a fresh budget continues the
   search and reaches the unrestricted run's verdict and tree. *)
let test_checkpoint_exhausted_then_more_budget () =
  let tight = { Bab.max_analyzer_calls = 2; max_seconds = infinity } in
  let engine, snapshot, net, prop =
    paper_engine ~config:{ Engine.default_config with budget = tight } ()
  in
  let cut = finish engine in
  Alcotest.(check bool) "tight run exhausted" true (cut.Bab.verdict = Bab.Exhausted);
  let state = snapshot () in
  (* Without a budget override the recorded Exhausted verdict stands. *)
  (match Engine.finished (resume_ok ~net ~prop state) with
  | Some r -> Alcotest.(check bool) "resumed as exhausted" true (r.Bab.verdict = Bab.Exhausted)
  | None -> Alcotest.fail "no-override resume should stay terminal");
  (* With one, the search continues to the true verdict. *)
  let resumed =
    finish
      (resume_ok
         ~config:
           {
             Engine.default_config with
             budget = { Bab.max_analyzer_calls = 10_000; max_seconds = infinity };
           }
         ~net ~prop state)
  in
  let reference = Bab.verify ~analyzer:lp ~heuristic:Heuristic.zono_coeff ~net ~prop () in
  Alcotest.(check bool) "resumed run proves the property" true
    (resumed.Bab.verdict = reference.Bab.verdict);
  Alcotest.(check int) "no analyzer call repeated" reference.Bab.stats.Bab.analyzer_calls
    resumed.Bab.stats.Bab.analyzer_calls;
  Alcotest.(check string) "same tree as the uninterrupted run"
    (Tree.to_string reference.Bab.tree) (Tree.to_string resumed.Bab.tree)

let test_checkpoint_rejects_garbage () =
  let net = Fixtures.paper_net () in
  let prop = Fixtures.paper_prop_with_offset 1.6 in
  let header = Journal.encode_frame Journal.Header (Engine.fingerprint ~net ~prop) in
  let start = "strategy: fifo\nmax_calls: 10\nmax_seconds: inf\n" in
  let tree = "tree:\n" ^ Tree.to_string (Tree.create ()) in
  (match
     Engine.resume ~analyzer:lp ~heuristic:Heuristic.zono_coeff ~net ~prop
       (header ^ Journal.encode_frame Journal.Checkpoint (start ^ tree))
   with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "a start checkpoint does not resume: %s" msg);
  List.iter
    (fun bytes ->
      match Engine.resume ~analyzer:lp ~heuristic:Heuristic.zono_coeff ~net ~prop bytes with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "malformed checkpoint %S accepted" bytes
      | exception e ->
          Alcotest.failf "malformed checkpoint %S raised %s instead of returning Error" bytes
            (Printexc.to_string e))
    [
      "";
      "nonsense";
      Journal.encode_frame Journal.Checkpoint "tree:\n";
      header ^ Journal.encode_frame Journal.Checkpoint "nonsense";
      header ^ Journal.encode_frame Journal.Checkpoint "strategy: fifo\ntree:\n";
      (* A mid-run state as earlier builds wrote it: refused, not misread. *)
      header
      ^ Journal.encode_frame Journal.Checkpoint
          (start ^ "elapsed: 0\nfinished: running\nfrontier: 0 -inf\n" ^ tree);
      header ^ Journal.encode_frame Journal.Checkpoint ("max_calls: 10\n" ^ start ^ tree);
    ]

(* ------------------------------------------------------------------ *)
(* Interrupted trees stay usable downstream *)

let test_cancelled_tree_reusable () =
  let plan = Fault.plan ~analyzer_rate:0.3 ~seed:11 () in
  let net = Fixtures.paper_net () in
  let prop = Fixtures.paper_prop_with_offset 1.6 in
  let engine =
    Engine.create
      ~analyzer:(Fault.wrap_analyzer plan lp)
      ~heuristic:Heuristic.zono_coeff
      ~config:{ Engine.default_config with policy = Some Analyzer.default_policy }
      ~net ~prop ()
  in
  for _ = 1 to 2 do
    ignore (Engine.step engine)
  done;
  let cancelled = Engine.cancel engine in
  Alcotest.(check bool) "cancelled mid-campaign is Exhausted" true
    (cancelled.Bab.verdict = Bab.Exhausted);
  Alcotest.(check bool) "cancelled tree well-formed" true (Tree.well_formed cancelled.Bab.tree);
  (* The partial tree seeds incremental re-verification of an update. *)
  let updated = Quant.network Quant.Int16 net in
  let rerun =
    Ivan.verify_updated ~analyzer:lp ~heuristic:Heuristic.zono_coeff ~config:Ivan.default_config
      ~original_run:cancelled ~updated ~prop
  in
  Alcotest.(check bool) "incremental run completes from the partial tree" true
    (rerun.Bab.verdict <> Bab.Exhausted)

let test_diffverify_reuses_exhausted_trees () =
  let net = Fixtures.paper_net () in
  let updated = Quant.network Quant.Int16 net in
  let box = Box.make ~lo:(Vec.of_list [ 0.0; 0.0 ]) ~hi:(Vec.of_list [ 1.0; 1.0 ]) in
  let config =
    { Ivan.default_config with budget = { Bab.max_analyzer_calls = 1; max_seconds = infinity } }
  in
  let partial =
    Diffverify.verify ~analyzer:lp ~heuristic:Heuristic.zono_coeff ~config net updated ~box
      ~delta:0.5
  in
  List.iter
    (fun (r : Bab.run) ->
      Alcotest.(check bool) "partial proof trees well-formed" true (Tree.well_formed r.Bab.tree))
    partial.Diffverify.runs;
  let complete =
    Diffverify.verify_incremental ~analyzer:lp ~heuristic:Heuristic.zono_coeff ~previous:partial
      net updated ~box ~delta:0.5
  in
  Alcotest.(check bool) "incremental pass completes from partial trees" true
    (complete.Diffverify.verdict = Diffverify.Equivalent)

(* The from-scratch differential run uses the engine configuration of
   the incremental one, hardened by its resilience policy: an analyzer
   that raises on its first call is retried. *)
let test_diffverify_retries_like_incremental () =
  let net = Fixtures.paper_net () in
  let updated = Quant.network Quant.Int16 net in
  let box = Box.make ~lo:(Vec.of_list [ 0.0; 0.0 ]) ~hi:(Vec.of_list [ 1.0; 1.0 ]) in
  let failed = ref false in
  let flaky =
    {
      lp with
      Analyzer.run =
        (fun net ~prop ~box ~splits ->
          if !failed then lp.Analyzer.run net ~prop ~box ~splits
          else begin
            failed := true;
            failwith "injected"
          end);
    }
  in
  let proof =
    Diffverify.verify ~analyzer:flaky ~heuristic:Heuristic.zono_coeff net updated ~box ~delta:0.5
  in
  let retries =
    List.fold_left (fun acc (r : Bab.run) -> acc + r.Bab.stats.Bab.retries) 0 proof.Diffverify.runs
  in
  Alcotest.(check bool) "the first call failed" true !failed;
  Alcotest.(check bool) "the failed call was retried" true (retries >= 1);
  Alcotest.(check bool) "equivalent" true (proof.Diffverify.verdict = Diffverify.Equivalent)

let suite =
  [
    ("lp rejects NaN/inf input", `Quick, test_lp_rejects_nan_input);
    ("lp accepts infinite bounds", `Quick, test_lp_accepts_infinite_bounds);
    ("lp solve hook fires", `Quick, test_lp_solve_hook_fires);
    ("milp surfaces solver failure", `Quick, test_milp_solver_failure);
    ("fault plan deterministic", `Quick, test_plan_deterministic);
    ("fault plan rates", `Quick, test_plan_rates);
    ("fault plan validation", `Quick, test_plan_validation);
    ("fallback: retry recovers", `Quick, test_fallback_retry_recovers);
    ("fallback: degrades to chain", `Quick, test_fallback_degrades_to_chain);
    ("fallback: off degrades to unknown", `Quick, test_fallback_off_degrades_unknown);
    ("fallback: sanitizes outcomes", `Quick, test_fallback_sanitizes_outcomes);
    ("fallback: node timeout", `Quick, test_fallback_node_timeout);
    ("fallback: rejects bad policy", `Quick, test_fallback_rejects_bad_policy);
    ("fallback: fatal exceptions pass through", `Quick, test_fallback_fatal_passthrough);
    ("engine absorbs crashing analyzer", `Quick, test_engine_absorbs_crashing_analyzer);
    ("engine retries preserve the run", `Quick, test_engine_policy_retries_preserve_run);
    ("seeded fault campaign", `Slow, test_fault_campaign);
    ("fault at the first LP solve", `Quick, test_fault_at_first_lp_solve);
    ("fault at the final frontier node", `Quick, test_fault_at_final_frontier_node);
    ("two faults race the fallback chain", `Quick, test_two_faults_race_fallback_chain);
    ("rejected LP outcome reports nothing", `Quick, test_rejected_lp_outcome_reports_nothing);
    ("checkpoint mid-run roundtrip", `Quick, test_checkpoint_midrun_roundtrip);
    ("checkpoint terminal roundtrip", `Quick, test_checkpoint_terminal_roundtrip);
    ("checkpoint exhausted + more budget", `Quick, test_checkpoint_exhausted_then_more_budget);
    ("checkpoint rejects garbage", `Quick, test_checkpoint_rejects_garbage);
    ("cancelled tree reusable", `Quick, test_cancelled_tree_reusable);
    ("diffverify reuses exhausted trees", `Quick, test_diffverify_reuses_exhausted_trees);
    ("diffverify retries like incremental", `Quick, test_diffverify_retries_like_incremental);
  ]
