(* Tests for the pluggable verification engine: a golden regression
   against the original (pre-Engine) BaB loop, frontier ordering,
   explicit stepping/cancellation, trace event round-tripping through
   the journal, and the stuck-heuristic accounting. *)

module Vec = Ivan_tensor.Vec
module Box = Ivan_spec.Box
module Prop = Ivan_spec.Prop
module Network = Ivan_nn.Network
module Analyzer = Ivan_analyzer.Analyzer
module Heuristic = Ivan_bab.Heuristic
module Bab = Ivan_bab.Bab
module Engine = Ivan_bab.Engine
module Frontier = Ivan_bab.Frontier
module Trace = Ivan_bab.Trace
module Tree = Ivan_spectree.Tree
module Decision = Ivan_spectree.Decision

let lp = Analyzer.lp_triangle ()

(* Run statistics compared whole, floats bit for bit. *)
let stats = Alcotest.testable Trace.pp_aggregate ( = )

(* ------------------------------------------------------------------ *)
(* Golden regression: a verbatim copy of the seed implementation's BaB
   loop (the recursive Queue-based [Bab.verify] this engine replaced).
   The refactored verifier under the default Fifo strategy must produce
   the identical verdict, analyzer-call count, branching count, and tree
   shape on every instance. *)

type seed_verdict = Seed_proved | Seed_disproved of Vec.t | Seed_exhausted

let seed_verify ~analyzer ~heuristic ?(budget = Bab.default_budget) ?initial_tree ~net ~prop () =
  let tree = match initial_tree with None -> Tree.create () | Some t -> Tree.copy t in
  let calls = ref 0 in
  let branchings = ref 0 in
  let active = Queue.create () in
  List.iter (fun n -> Queue.add n active) (Tree.leaves tree);
  let out_of_budget () = !calls >= budget.Bab.max_analyzer_calls in
  let rec loop () =
    if Queue.is_empty active then Seed_proved
    else if out_of_budget () then Seed_exhausted
    else begin
      let node = Queue.pop active in
      let box, splits = Tree.subproblem ~root_box:prop.Prop.input node in
      incr calls;
      let outcome = analyzer.Analyzer.run net ~prop ~box ~splits in
      Tree.set_lb node outcome.Analyzer.lb;
      match outcome.Analyzer.status with
      | Analyzer.Verified -> loop ()
      | Analyzer.Counterexample x -> Seed_disproved x
      | Analyzer.Unknown -> (
          let ctx = { Heuristic.net; prop; box; splits; outcome } in
          match Heuristic.best (heuristic.Heuristic.scores ctx) with
          | None -> Seed_exhausted
          | Some d ->
              let left, right = Tree.split tree node d in
              incr branchings;
              Queue.add left active;
              Queue.add right active;
              loop ())
    end
  in
  let verdict = loop () in
  (verdict, tree, !calls, !branchings)

let check_matches_seed ?budget ?initial_tree ~analyzer ~heuristic ~net ~prop label =
  let seed_verdict, seed_tree, seed_calls, seed_branchings =
    seed_verify ~analyzer ~heuristic ?budget ?initial_tree ~net ~prop ()
  in
  let run = Bab.verify ~analyzer ~heuristic ?budget ?initial_tree ~net ~prop () in
  (match (seed_verdict, run.Bab.verdict) with
  | Seed_proved, Bab.Proved | Seed_exhausted, Bab.Exhausted -> ()
  | Seed_disproved x, Bab.Disproved y ->
      Alcotest.(check bool) (label ^ ": same counterexample") true (x = y)
  | _ -> Alcotest.failf "%s: verdict differs from the seed implementation" label);
  Alcotest.(check int) (label ^ ": analyzer calls") seed_calls run.Bab.stats.Bab.analyzer_calls;
  Alcotest.(check int) (label ^ ": branchings") seed_branchings run.Bab.stats.Bab.branchings;
  Alcotest.(check string) (label ^ ": tree shape") (Tree.to_string seed_tree)
    (Tree.to_string run.Bab.tree)

let test_golden_fifo_matches_seed () =
  let net = Fixtures.paper_net () in
  List.iter
    (fun offset ->
      let prop = Fixtures.paper_prop_with_offset offset in
      check_matches_seed ~analyzer:lp ~heuristic:Heuristic.zono_coeff ~net ~prop
        (Printf.sprintf "offset %g" offset))
    [ 1.3; 1.45; 1.55; 1.6; 1.7; 2.0 ]

let test_golden_call_budget () =
  let net = Fixtures.paper_net () in
  let prop = Fixtures.paper_prop_with_offset 1.6 in
  List.iter
    (fun max_analyzer_calls ->
      let budget = { Bab.max_analyzer_calls; max_seconds = infinity } in
      check_matches_seed ~budget ~analyzer:lp ~heuristic:Heuristic.zono_coeff ~net ~prop
        (Printf.sprintf "budget %d" max_analyzer_calls))
    [ 1; 2; 3; 5 ]

(* The seed loop offers the analyzer no hints, so the tree it reuses is
   the first run's as its text form carries it: without the multipliers
   that verified its leaves.  With them, the engine closes those leaves
   without a solve, on the same search: the same verdict, calls, ids,
   decisions and shape, each closed leaf's bound at most its LP
   optimum. *)
let test_golden_initial_tree_reuse () =
  let net = Fixtures.paper_net () in
  let prop = Fixtures.paper_prop_with_offset 1.6 in
  let first = Bab.verify ~analyzer:lp ~heuristic:Heuristic.zono_coeff ~net ~prop () in
  let plain = Tree.of_string (Tree.to_string first.Bab.tree) in
  check_matches_seed ~initial_tree:plain ~analyzer:lp ~heuristic:Heuristic.zono_coeff ~net ~prop
    "reused tree";
  let solved = Bab.verify ~analyzer:lp ~heuristic:Heuristic.zono_coeff ~initial_tree:plain ~net ~prop () in
  let closed =
    Bab.verify ~analyzer:lp ~heuristic:Heuristic.zono_coeff ~initial_tree:first.Bab.tree ~net ~prop ()
  in
  Alcotest.(check bool) "leaves closed" true (closed.Bab.stats.Bab.dual_closures > 0);
  Fixtures.check_closed_run "closed" ~solved ~closed

let test_golden_input_splitting () =
  let net = Fixtures.paper_net () in
  let prop = Fixtures.paper_prop_with_offset 1.6 in
  check_matches_seed ~analyzer:(Analyzer.zonotope ()) ~heuristic:Heuristic.input_smear ~net ~prop
    "input splitting"

(* Parked hints (a parent's basis and DeepPoly run) are a cache: with
   warm starts off, a ReLU-splitting run that parks them builds the same
   tree, with the same per-node lbs and pivots, as a run whose analyzer
   clears them before every call, so that every node's DeepPoly runs
   from scratch. *)
let test_parked_hints_change_nothing () =
  let subjects =
    [
      ( "dense-2x8x8x1",
        Fixtures.random_net ~seed:3 ~dims:[ 2; 8; 8; 1 ],
        Fixtures.paper_prop_with_offset 0.5 );
      ( "dense-2x12x12x12x1",
        Fixtures.random_net ~seed:3 ~dims:[ 2; 12; 12; 12; 1 ],
        Fixtures.paper_prop_with_offset 0.5 );
    ]
  in
  List.iter
    (fun (name, net, prop) ->
      let a = Analyzer.lp_triangle ~warm:false () in
      let cleared =
        {
          a with
          Analyzer.run =
            (fun net ~prop ~box ~splits ->
              Analyzer.Warm.clear ();
              a.Analyzer.run net ~prop ~box ~splits);
        }
      in
      let budget = { Bab.max_analyzer_calls = 40; max_seconds = infinity } in
      let run analyzer =
        Bab.verify ~analyzer ~heuristic:Heuristic.zono_coeff ~budget ~net ~prop ()
      in
      let parked = run a and plain = run cleared in
      let lbs (r : Bab.run) =
        let acc = ref [] in
        Tree.iter_nodes r.Bab.tree (fun n ->
            acc := (Tree.node_id n, Int64.bits_of_float (Tree.lb n)) :: !acc);
        List.sort compare !acc
      in
      Alcotest.(check bool) (name ^ ": splits") true (parked.Bab.stats.Bab.branchings > 0);
      Alcotest.(check string) (name ^ ": tree") (Tree.to_string plain.Bab.tree)
        (Tree.to_string parked.Bab.tree);
      Alcotest.(check bool) (name ^ ": node lbs") true (lbs plain = lbs parked);
      Alcotest.(check int) (name ^ ": pivots") plain.Bab.stats.Bab.lp_pivots
        parked.Bab.stats.Bab.lp_pivots;
      Alcotest.(check int) (name ^ ": cold solves") plain.Bab.stats.Bab.lp_cold_solves
        parked.Bab.stats.Bab.lp_cold_solves)
    subjects

(* ------------------------------------------------------------------ *)
(* Frontier ordering *)

let drain f =
  let rec go acc = match Frontier.pop f with None -> List.rev acc | Some x -> go (x :: acc) in
  go []

let test_frontier_fifo_order () =
  let f = Frontier.create Frontier.Fifo in
  List.iter (fun i -> Frontier.push f ~priority:(float_of_int (-i)) i) [ 1; 2; 3; 4 ];
  Alcotest.(check (list int)) "fifo ignores priority" [ 1; 2; 3; 4 ] (drain f)

let test_frontier_lifo_order () =
  let f = Frontier.create Frontier.Lifo in
  List.iter (fun i -> Frontier.push f ~priority:0.0 i) [ 1; 2; 3; 4 ];
  Alcotest.(check (list int)) "lifo reverses" [ 4; 3; 2; 1 ] (drain f)

let test_frontier_best_order () =
  let f = Frontier.create Frontier.Best_first in
  List.iter
    (fun (p, x) -> Frontier.push f ~priority:p x)
    [ (3.0, 30); (1.0, 10); (2.0, 20); (0.5, 5) ];
  Alcotest.(check (list int)) "lowest bound first" [ 5; 10; 20; 30 ] (drain f)

let test_frontier_best_ties_and_nan () =
  let f = Frontier.create Frontier.Best_first in
  List.iter
    (fun (p, x) -> Frontier.push f ~priority:p x)
    [ (1.0, 1); (1.0, 2); (nan, 99); (1.0, 3) ];
  (* NaN normalizes to -inf (most urgent); ties pop in insertion order. *)
  Alcotest.(check (list int)) "nan first, then insertion order" [ 99; 1; 2; 3 ] (drain f);
  Alcotest.(check bool) "empty after drain" true (Frontier.is_empty f)

let test_frontier_length () =
  let f = Frontier.create Frontier.Best_first in
  Alcotest.(check int) "empty" 0 (Frontier.length f);
  Frontier.push f ~priority:1.0 1;
  Frontier.push f ~priority:2.0 2;
  Alcotest.(check int) "two" 2 (Frontier.length f);
  ignore (Frontier.pop f);
  Alcotest.(check int) "one" 1 (Frontier.length f)

let test_strategy_of_string () =
  List.iter
    (fun (s, expected) ->
      Alcotest.(check bool) s true (Frontier.strategy_of_string s = expected))
    [
      ("fifo", Some Frontier.Fifo);
      ("lifo", Some Frontier.Lifo);
      ("best", Some Frontier.Best_first);
      ("BFS", None);
    ]

(* All strategies remain complete verifiers: same verdict, possibly
   different traversal. *)
let test_all_strategies_complete () =
  let net = Fixtures.paper_net () in
  List.iter
    (fun offset ->
      let prop = Fixtures.paper_prop_with_offset offset in
      List.iter
        (fun strategy ->
          let run =
            Bab.verify ~analyzer:lp ~heuristic:Heuristic.zono_coeff ~strategy ~net ~prop ()
          in
          match run.Bab.verdict with
          | Bab.Proved ->
              Alcotest.(check bool)
                (Printf.sprintf "%s offset %g proved" (Frontier.strategy_name strategy) offset)
                true (offset > 1.5)
          | Bab.Disproved x ->
              Alcotest.(check bool) "genuine CE" true (Analyzer.check_concrete net ~prop x);
              Alcotest.(check bool)
                (Printf.sprintf "%s offset %g disproved" (Frontier.strategy_name strategy) offset)
                true (offset < 1.5)
          | Bab.Exhausted -> Alcotest.failf "offset %g exhausted" offset)
        Frontier.all_strategies)
    [ 1.3; 1.6 ]

(* ------------------------------------------------------------------ *)
(* Explicit stepping *)

let test_step_loop_equals_run () =
  let net = Fixtures.paper_net () in
  let prop = Fixtures.paper_prop_with_offset 1.6 in
  let reference = Bab.verify ~analyzer:lp ~heuristic:Heuristic.zono_coeff ~net ~prop () in
  let engine = Engine.create ~analyzer:lp ~heuristic:Heuristic.zono_coeff ~net ~prop () in
  let steps = ref 0 in
  let rec go () =
    match Engine.step engine with
    | Engine.Running ->
        incr steps;
        go ()
    | Engine.Finished run -> run
  in
  let run = go () in
  Alcotest.(check bool) "proved" true (run.Bab.verdict = Bab.Proved);
  (* Every analyzer call is one Running step; the final step only
     observes the empty frontier. *)
  Alcotest.(check int) "one step per analyzer call" run.Bab.stats.Bab.analyzer_calls !steps;
  Alcotest.(check int) "same calls as Bab.verify" reference.Bab.stats.Bab.analyzer_calls
    run.Bab.stats.Bab.analyzer_calls;
  Alcotest.(check string) "same tree" (Tree.to_string reference.Bab.tree)
    (Tree.to_string run.Bab.tree);
  (* Idempotent after completion. *)
  (match Engine.step engine with
  | Engine.Finished again ->
      Alcotest.(check int) "stable calls" run.Bab.stats.Bab.analyzer_calls
        again.Bab.stats.Bab.analyzer_calls
  | Engine.Running -> Alcotest.fail "engine resumed after finishing");
  match Engine.finished engine with
  | Some _ -> ()
  | None -> Alcotest.fail "finished engine reports None"

let test_cancel_mid_run () =
  let net = Fixtures.paper_net () in
  let prop = Fixtures.paper_prop_with_offset 1.6 in
  let engine = Engine.create ~analyzer:lp ~heuristic:Heuristic.zono_coeff ~net ~prop () in
  (match Engine.step engine with
  | Engine.Running -> ()
  | Engine.Finished _ -> Alcotest.fail "tight instance finished in one step");
  let run = Engine.cancel engine in
  Alcotest.(check bool) "cancelled run is Exhausted" true (run.Bab.verdict = Bab.Exhausted);
  Alcotest.(check int) "one analyzer call happened" 1 run.Bab.stats.Bab.analyzer_calls;
  (* Cancellation is terminal and stable. *)
  match Engine.step engine with
  | Engine.Finished again ->
      Alcotest.(check bool) "still exhausted" true (again.Bab.verdict = Bab.Exhausted)
  | Engine.Running -> Alcotest.fail "engine resumed after cancel"

(* A sound-but-useless analyzer plus a bone-dry heuristic: the engine
   must report the distinct heuristic-failure accounting, not plain
   budget exhaustion. *)
let test_stuck_heuristic_accounted () =
  let stuck_analyzer =
    {
      Analyzer.name = "always-unknown";
      run = (fun _net ~prop:_ ~box:_ ~splits:_ ->
          { Analyzer.status = Analyzer.Unknown; lb = -1.0; bounds = None; zono = None; cert = None; lp = None });
    }
  in
  let no_decisions = { Heuristic.name = "none"; scores = (fun _ -> []) } in
  let net = Fixtures.paper_net () in
  let prop = Fixtures.paper_prop_with_offset 1.6 in
  let trace, events = Fixtures.collect_events () in
  let run =
    Bab.verify ~analyzer:stuck_analyzer ~heuristic:no_decisions ~trace ~net ~prop ()
  in
  Alcotest.(check bool) "verdict stays Exhausted" true (run.Bab.verdict = Bab.Exhausted);
  Alcotest.(check int) "one analyzer call" 1 run.Bab.stats.Bab.analyzer_calls;
  Alcotest.(check int) "heuristic failure counted" 1 run.Bab.stats.Bab.heuristic_failures;
  let stuck_events =
    List.filter (function Trace.Stuck _ -> true | _ -> false) (events ())
  in
  Alcotest.(check int) "Stuck event emitted" 1 (List.length stuck_events)

(* A call that raises still took its time: the node's [Analyzed] event
   and the run's analyzer seconds carry the 20 ms this analyzer spins
   before it fails, with no resilience policy absorbing the exception. *)
let test_raising_call_timed () =
  let spin_then_raise =
    {
      Analyzer.name = "spin-then-raise";
      run =
        (fun _net ~prop:_ ~box:_ ~splits:_ ->
          let t0 = Ivan_clock.Clock.monotonic () in
          while Ivan_clock.Clock.monotonic () -. t0 < 0.02 do
            ()
          done;
          failwith "analyzer failed");
    }
  in
  let no_decisions = { Heuristic.name = "none"; scores = (fun _ -> []) } in
  let trace, events = Fixtures.collect_events () in
  let run =
    Bab.verify ~analyzer:spin_then_raise ~heuristic:no_decisions ~trace
      ~net:(Fixtures.paper_net ()) ~prop:(Fixtures.paper_prop_with_offset 1.6) ()
  in
  Alcotest.(check int) "the fault was absorbed" 1 run.Bab.stats.Bab.faults_absorbed;
  let seconds =
    List.filter_map
      (function Trace.Analyzed { seconds; _ } -> Some seconds | _ -> None)
      (events ())
  in
  match seconds with
  | [ s ] ->
      if s < 0.02 then Alcotest.failf "the raising call recorded %.4fs" s;
      if run.Bab.stats.Bab.analyzer_seconds < 0.02 then
        Alcotest.failf "the run recorded %.4fs in the analyzer" run.Bab.stats.Bab.analyzer_seconds
  | l -> Alcotest.failf "%d Analyzed events" (List.length l)

(* ------------------------------------------------------------------ *)
(* Trace serialization *)

let sample_events =
  [
    Trace.Dequeued { node = 0; depth = 0; frontier = 1 };
    Trace.Analyzed { node = 0; status = "unknown"; lb = -0.12345678901234567; seconds = 0.0625 };
    Trace.Split
      {
        node = 0;
        decision = Decision.Relu_split (Ivan_nn.Relu_id.make ~layer:1 ~index:3);
        left = 1;
        right = 2;
      };
    Trace.Split { node = 1; decision = Decision.Input_split 0; left = 3; right = 4 };
    Trace.Pruned { node = 2 };
    Trace.Stuck { node = 3 };
    Trace.Retried { node = 4; analyzer = "lp-triangle"; attempt = 2; reason = "Lp.Iteration_limit" };
    Trace.Fallback { node = 4; analyzer = "interval"; reason = "degraded after retries" };
    Trace.Absorbed { node = 5; analyzer = "lp-triangle"; reason = "injected \"fault\"" };
    Trace.Absorbed { node = 5; analyzer = "lp triangle"; reason = "two\nlines =\\ \t" };
    Trace.Lp_solved
      {
        node = 5;
        warm_hits = 1;
        warm_misses = 1;
        cold_solves = 0;
        pivots = 12;
        factor_pivots = 7;
      };
    Trace.Certified { node = 5; kind = "dual"; exact = false };
    Trace.Certified { node = 6; kind = "unavailable"; exact = true };
    Trace.Dual_closed { node = 7 };
    Trace.Analyzed { node = 1; status = "verified"; lb = neg_infinity; seconds = nan };
    Trace.Analyzed { node = 2; status = "verified"; lb = infinity; seconds = infinity };
    Trace.Analyzed { node = 3; status = ""; lb = nan; seconds = -0.0 };
    Trace.Analyzed { node = 4; status = "unknown"; lb = -0.0; seconds = 5e-324 };
    Trace.Verdict
      { verdict = "proved"; calls = 7; seconds = 1.5; nodes = 13; leaves = 7; counterexample = None };
    Trace.Verdict
      {
        verdict = "disproved";
        calls = 3;
        seconds = 0.25;
        nodes = 5;
        leaves = 3;
        counterexample = Some [| 0.1; -0.0; 5e-324; 1.0 /. 3.0; infinity |];
      };
  ]

(* Every float compares by its bits, -0 and subnormals included; NaN by
   being NaN, since its payload is not kept. *)
let test_event_line_roundtrip () =
  let floats = function
    | Trace.Analyzed { lb; seconds; _ } -> [ lb; seconds ]
    | Trace.Verdict { seconds; counterexample; _ } ->
        seconds :: Option.fold ~none:[] ~some:Array.to_list counterexample
    | _ -> []
  in
  let bits v = if Float.is_nan v then None else Some (Int64.bits_of_float v) in
  List.iter
    (fun e ->
      let line = Trace.event_to_string e in
      let back = Trace.event_of_string line in
      Alcotest.(check bool) line true
        (compare e back = 0 && List.map bits (floats e) = List.map bits (floats back)))
    sample_events

(* Seconds print as one fixed-width token, so an event's length does not
   vary with timing, and still round-trip exactly. *)
let test_seconds_fixed_width () =
  let line seconds =
    Trace.event_to_string (Trace.Analyzed { node = 1; status = "unknown"; lb = 0.5; seconds })
  in
  let durations = [ 0.0; 1.5; 1.0 /. 3.0; 2e-7; 123.456789; 7e-12 ] in
  let width = String.length (line 1.0) in
  List.iter
    (fun seconds ->
      Alcotest.(check int) (line seconds) width (String.length (line seconds));
      match Trace.event_of_string (line seconds) with
      | Trace.Analyzed a ->
          Alcotest.(check int64) (line seconds) (Int64.bits_of_float seconds)
            (Int64.bits_of_float a.seconds)
      | _ -> Alcotest.fail "not an analyzed event")
    durations

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_aggregate_lp_and_cert_counters () =
  (* Refactorization pivots and exact certificate
     fallbacks are summed apart from simplex pivots, solves and emitted
     certificates, and closures by carried multipliers apart from
     both. *)
  let agg = Trace.aggregate sample_events in
  Alcotest.(check int) "simplex pivots" 12 agg.Trace.lp_pivots;
  Alcotest.(check int) "refactor pivots" 7 agg.Trace.lp_factor_pivots;
  Alcotest.(check int) "certified" 1 agg.Trace.certs_emitted;
  Alcotest.(check int) "unavailable" 1 agg.Trace.certs_unavailable;
  Alcotest.(check int) "exact fallbacks" 1 agg.Trace.cert_exact_checks;
  Alcotest.(check int) "closures" 1 agg.Trace.dual_closures;
  let line = Format.asprintf "%a" Trace.pp_aggregate agg in
  Alcotest.(check bool) line true
    (contains line "1 closed by carried multipliers")

(* Pivots per warm hit come only from events whose solves were all warm
   hits; everything else, a mixed event's hit included, counts per other
   solve. *)
let test_aggregate_hit_pivots () =
  let lp node ~hits ~misses ~colds pivots factor_pivots =
    Trace.Lp_solved
      {
        node;
        warm_hits = hits;
        warm_misses = misses;
        cold_solves = colds;
        pivots;
        factor_pivots;
      }
  in
  let events =
    [
      lp 1 ~hits:1 ~misses:0 ~colds:0 5 3;
      lp 2 ~hits:1 ~misses:1 ~colds:0 12 7;
      lp 3 ~hits:0 ~misses:0 ~colds:1 20 0;
    ]
  in
  let a = Trace.aggregate events in
  Alcotest.(check int) "hit pivots" 8 a.Trace.lp_hit_pivots;
  Alcotest.(check int) "hit solves" 1 a.Trace.lp_hit_solves;
  Alcotest.(check int) "simplex pivots unchanged" 37 a.Trace.lp_pivots;
  let line = Format.asprintf "%a" Trace.pp_aggregate a in
  Alcotest.(check bool) line true (contains line "8.0 per warm hit, 13.0 per other solve")

(* The journal is the run's record: read back through the engine's one
   reader, a journaled run is one run whose events are exactly the ones
   the trace sink saw and fold to the run's statistics, floats
   included. *)
let test_journal_roundtrip_and_aggregate () =
  let net = Fixtures.paper_net () in
  let prop = Fixtures.paper_prop_with_offset 1.6 in
  let buf = Buffer.create 4096 in
  let journal = Ivan_resilience.Journal.to_buffer buf in
  let trace, events = Fixtures.collect_events () in
  let run = Bab.verify ~analyzer:lp ~heuristic:Heuristic.zono_coeff ~trace ~journal ~net ~prop () in
  match Engine.journal_runs (Buffer.contents buf) with
  | Error msg -> Alcotest.fail msg
  | Ok [ journaled ] ->
      let agg = Trace.aggregate journaled in
      Alcotest.check stats "stats are the journal's fold" run.Bab.stats agg;
      Alcotest.(check bool) "the journal holds the traced events" true (journaled = events ());
      Alcotest.(check int) "no pruning in a plain run" 0 agg.Trace.pruned;
      Alcotest.(check (option string)) "verdict recorded" (Some "proved") agg.Trace.verdict
  | Ok runs -> Alcotest.failf "%d runs in a one-run journal" (List.length runs)

let test_hook () =
  let seen = ref [] in
  let sink = Trace.hook (fun e -> seen := e :: !seen) in
  Trace.emit sink (Trace.Pruned { node = 7 });
  Alcotest.(check int) "hook fired" 1 (List.length !seen)

(* Engine stats vs trace aggregate under the non-default strategy too:
   the equality is by construction, not an accident of Fifo.  A Full
   incremental run counts the nodes of its pruned seed tree, which no
   Split event of its own created, in its tree size. *)
let test_best_first_trace_consistent () =
  let net = Fixtures.paper_net () in
  let prop = Fixtures.paper_prop_with_offset 1.6 in
  let trace, events = Fixtures.collect_events () in
  let run =
    Bab.verify ~analyzer:lp ~heuristic:Heuristic.zono_coeff ~strategy:Frontier.Best_first
      ~trace ~net ~prop ()
  in
  Alcotest.(check bool) "proved" true (run.Bab.verdict = Bab.Proved);
  Alcotest.check stats "stats are the trace's fold" (Trace.aggregate (events ()))
    run.Bab.stats;
  let module Ivan = Ivan_core.Ivan in
  let updated = Ivan_nn.Quant.network Ivan_nn.Quant.Int8 net in
  let ivan =
    Ivan.verify_updated ~analyzer:lp ~heuristic:Heuristic.zono_coeff
      ~config:{ Ivan.default_config with technique = Ivan.Full } ~original_run:run ~updated ~prop
  in
  let s = ivan.Bab.stats in
  Alcotest.(check bool) "seeded with more than a root" true
    (Tree.size ivan.Bab.tree - (2 * s.Bab.branchings) > 1);
  Alcotest.(check int) "tree size counts the seed" (Tree.size ivan.Bab.tree) s.Bab.tree_size;
  Alcotest.(check int) "tree leaves" (Tree.num_leaves ivan.Bab.tree) s.Bab.tree_leaves

let suite =
  [
    ("golden: fifo matches seed loop", `Quick, test_golden_fifo_matches_seed);
    ("golden: call budgets match seed", `Quick, test_golden_call_budget);
    ("golden: initial-tree reuse matches seed", `Quick, test_golden_initial_tree_reuse);
    ("golden: input splitting matches seed", `Quick, test_golden_input_splitting);
    ("parked hints change nothing", `Quick, test_parked_hints_change_nothing);
    ("seconds tokens are fixed width", `Quick, test_seconds_fixed_width);
    ("aggregate lp and cert counters", `Quick, test_aggregate_lp_and_cert_counters);
    ("aggregate warm hit pivots", `Quick, test_aggregate_hit_pivots);
    ("frontier fifo order", `Quick, test_frontier_fifo_order);
    ("frontier lifo order", `Quick, test_frontier_lifo_order);
    ("frontier best order", `Quick, test_frontier_best_order);
    ("frontier ties and nan", `Quick, test_frontier_best_ties_and_nan);
    ("frontier length", `Quick, test_frontier_length);
    ("strategy of string", `Quick, test_strategy_of_string);
    ("all strategies complete", `Quick, test_all_strategies_complete);
    ("step loop equals run", `Quick, test_step_loop_equals_run);
    ("cancel mid-run", `Quick, test_cancel_mid_run);
    ("stuck heuristic accounted", `Quick, test_stuck_heuristic_accounted);
    ("a raising call is timed", `Quick, test_raising_call_timed);
    ("event line roundtrip", `Quick, test_event_line_roundtrip);
    ("journal roundtrip + aggregate", `Quick, test_journal_roundtrip_and_aggregate);
    ("hook sink", `Quick, test_hook);
    ("best-first trace consistent", `Quick, test_best_first_trace_consistent);
  ]
