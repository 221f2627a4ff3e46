(* Tests for the experiment harness: workload generation, the runner,
   and report aggregation. *)

module Vec = Ivan_tensor.Vec
module Network = Ivan_nn.Network
module Quant = Ivan_nn.Quant
module Prop = Ivan_spec.Prop
module Bab = Ivan_bab.Bab
module Ivan = Ivan_core.Ivan
module Zoo = Ivan_data.Zoo
module Workload = Ivan_harness.Workload
module Runner = Ivan_harness.Runner
module Report = Ivan_harness.Report
module Journal = Ivan_resilience.Journal

(* A tiny trained model shared by the harness tests (trains in well
   under a second). *)
let spec = Zoo.fcn_mnist

let net = lazy (Zoo.train spec)

let test_robustness_instances () =
  let net = Lazy.force net in
  let instances = Workload.robustness_instances ~spec ~net ~count:5 in
  Alcotest.(check int) "count" 5 (List.length instances);
  List.iteri
    (fun i (inst : Workload.instance) ->
      Alcotest.(check int) "ids sequential" i inst.Workload.id;
      (* Robustness properties must hold at the center (correctly
         classified by construction). *)
      let center = Ivan_spec.Box.center inst.Workload.prop.Prop.input in
      Alcotest.(check bool) "holds at center" true
        (Prop.holds_at inst.Workload.prop (Network.forward net center)))
    instances

let test_robustness_instances_clip () =
  let net = Lazy.force net in
  let instances = Workload.robustness_instances ~spec ~net ~count:3 in
  List.iter
    (fun (inst : Workload.instance) ->
      let box = inst.Workload.prop.Prop.input in
      for j = 0 to Ivan_spec.Box.dim box - 1 do
        Alcotest.(check bool) "clipped to [0,1]" true
          (Ivan_spec.Box.lo_at box j >= 0.0 && Ivan_spec.Box.hi_at box j <= 1.0)
      done)
    instances

let test_acas_instances () =
  let net = Ivan_nn.Builder.dense_net ~rng:(Ivan_tensor.Rng.create 1) ~dims:[ 5; 8; 5 ] in
  let instances = Workload.acas_instances ~net ~margins:[ 0.2; 0.4 ] ~seed:1 in
  Alcotest.(check int) "4 regions x 2 margins" 8 (List.length instances);
  let ids = List.map (fun i -> i.Workload.id) instances in
  Alcotest.(check (list int)) "ids" [ 0; 1; 2; 3; 4; 5; 6; 7 ] ids

let test_runner_comparison () =
  let net = Lazy.force net in
  let updated = Quant.network Quant.Int16 net in
  let setting =
    Runner.classifier_setting
      ~config:
        { Ivan.default_config with budget = { Bab.max_analyzer_calls = 150; max_seconds = 20.0 } }
      ()
  in
  let instances = Workload.robustness_instances ~spec ~net ~count:3 in
  let comparisons =
    Runner.run_all setting ~net ~updated ~techniques:[ Ivan.Reuse; Ivan.Full ] instances
  in
  Alcotest.(check int) "one comparison per instance" 3 (List.length comparisons);
  List.iter
    (fun (c : Runner.comparison) ->
      Alcotest.(check int) "two techniques" 2 (List.length c.Runner.techniques);
      Alcotest.(check bool) "calls positive" true (Runner.calls c.Runner.baseline >= 1);
      (* Verdicts agree across techniques when all are solved (the
         verifier is complete). *)
      let verdict_kind (m : Runner.timed) =
        match m.Runner.run.Bab.verdict with
        | Bab.Proved -> `P
        | Bab.Disproved _ -> `D
        | Bab.Exhausted -> `E
      in
      let base = verdict_kind c.Runner.baseline in
      List.iter
        (fun (_, m) ->
          let tech = verdict_kind m in
          if base <> `E && tech <> `E then
            Alcotest.(check bool) "verdicts agree" true (base = tech))
        c.Runner.techniques)
    comparisons

(* A one-node run that made [calls] analyzer calls. *)
let synthetic_run verdict calls =
  {
    Bab.verdict;
    tree = Ivan_spectree.Tree.create ();
    stats = { Ivan_bab.Trace.empty_aggregate with analyzer_calls = calls; tree_size = 1; tree_leaves = 1 };
    artifact = None;
  }

let test_report_summarize () =
  (* Synthetic comparisons with known ratios. *)
  let dummy_prop =
    Prop.make ~name:"d"
      ~input:(Ivan_spec.Box.make ~lo:(Vec.zeros 1) ~hi:(Vec.create 1 1.0))
      ~c:(Vec.of_list [ 1.0 ]) ~offset:0.0
  in
  let m ?(verdict = Bab.Proved) calls seconds = { Runner.run = synthetic_run verdict calls; seconds } in
  let comparison id base tech =
    {
      Runner.instance = { Workload.id; prop = dummy_prop };
      original = m 1 0.0;
      baseline = base;
      techniques = [ (Ivan.Full, tech) ];
    }
  in
  let comparisons =
    [
      comparison 0 (m 10 2.0) (m 5 1.0);
      (* 2x on both *)
      comparison 1 (m 8 4.0) (m 8 2.0);
      (* 1x calls, 2x time *)
      comparison 2 (m ~verdict:Bab.Exhausted 100 50.0) (m 4 0.5);
      (* baseline unsolved: excluded from Sp, counted in +Solved *)
    ]
  in
  let s = Report.summarize comparisons Ivan.Full in
  Alcotest.(check int) "cases" 3 s.Report.cases;
  Alcotest.(check int) "base solved" 2 s.Report.base_solved;
  Alcotest.(check int) "tech solved" 3 s.Report.tech_solved;
  Alcotest.(check int) "+solved" 1 s.Report.plus_solved;
  Alcotest.(check (float 1e-9)) "sp time" 2.0 s.Report.sp_time;
  Alcotest.(check (float 1e-9)) "sp calls" (18.0 /. 13.0) s.Report.sp_calls;
  Alcotest.(check (float 1e-9)) "geomean time" 2.0 s.Report.geomean_time

let test_report_verdict_counts () =
  let m verdict = { Runner.run = synthetic_run verdict 1; seconds = 0.0 } in
  let v, c, u =
    Report.verdict_counts
      [ m Bab.Proved; m Bab.Proved; m (Bab.Disproved [| 0.0 |]); m Bab.Exhausted ]
  in
  Alcotest.(check (triple int int int)) "v/c/u" (2, 1, 1) (v, c, u)

let test_report_geomean () =
  Alcotest.(check (float 1e-9)) "empty" 1.0 (Report.geomean []);
  Alcotest.(check (float 1e-9)) "pair" 2.0 (Report.geomean [ 1.0; 4.0 ]);
  Alcotest.(check (float 1e-9)) "single" 3.0 (Report.geomean [ 3.0 ])

let test_report_split_hard () =
  let dummy_prop =
    Prop.make ~name:"d"
      ~input:(Ivan_spec.Box.make ~lo:(Vec.zeros 1) ~hi:(Vec.create 1 1.0))
      ~c:(Vec.of_list [ 1.0 ]) ~offset:0.0
  in
  let with_tree_size id tree_size =
    let original = synthetic_run Bab.Proved 1 in
    {
      Runner.instance = { Workload.id; prop = dummy_prop };
      original = { run = { original with stats = { original.stats with tree_size } }; seconds = 0.0 };
      baseline = { run = synthetic_run Bab.Proved 1; seconds = 0.0 };
      techniques = [];
    }
  in
  let easy, hard = Report.split_hard [ with_tree_size 0 1; with_tree_size 1 5; with_tree_size 2 7 ] in
  Alcotest.(check int) "easy" 2 (List.length easy);
  Alcotest.(check int) "hard" 1 (List.length hard)



(* ---------------- Parallel runner ---------------- *)

let test_parallel_matches_sequential () =
  let net = Lazy.force net in
  let updated = Quant.network Quant.Int16 net in
  let setting =
    Runner.classifier_setting
      ~config:
        { Ivan.default_config with budget = { Bab.max_analyzer_calls = 150; max_seconds = 20.0 } }
      ()
  in
  let instances = Workload.robustness_instances ~spec ~net ~count:6 in
  let run domains =
    Runner.run_all ~domains setting ~net ~updated ~techniques:[ Ivan.Full ] instances
  in
  let seq = run 1 and par = run 3 in
  List.iter2
    (fun (a : Runner.comparison) (b : Runner.comparison) ->
      Alcotest.(check int) "same instance" a.Runner.instance.Workload.id
        b.Runner.instance.Workload.id;
      (* Deterministic: identical call counts and verdict kinds. *)
      Alcotest.(check int) "baseline calls equal" (Runner.calls a.Runner.baseline)
        (Runner.calls b.Runner.baseline);
      let kind (m : Runner.timed) =
        match m.Runner.run.Bab.verdict with Bab.Proved -> 0 | Bab.Disproved _ -> 1 | Bab.Exhausted -> 2
      in
      Alcotest.(check int) "baseline verdicts equal" (kind a.Runner.baseline)
        (kind b.Runner.baseline);
      let am = Report.technique_measurement a Ivan.Full
      and bm = Report.technique_measurement b Ivan.Full in
      Alcotest.(check int) "ivan calls equal" (Runner.calls am) (Runner.calls bm))
    seq par

let test_parallel_journal_rejected () =
  let net = Lazy.force net in
  let updated = Quant.network Quant.Int16 net in
  let journal = Journal.to_buffer (Buffer.create 256) in
  let setting =
    Runner.classifier_setting
      ~config:
        {
          Ivan.default_config with
          budget = { Bab.max_analyzer_calls = 50; max_seconds = 20.0 };
          journal = Some journal;
        }
      ()
  in
  let instances = Workload.robustness_instances ~spec ~net ~count:2 in
  let run domains = Runner.run_all ~domains setting ~net ~updated ~techniques:[] instances in
  Alcotest.check_raises "two domains share one journal"
    (Invalid_argument "Runner.run_all: a journal cannot be shared by parallel runs") (fun () ->
      ignore (run 2));
  Alcotest.(check int) "nothing journaled before the guard" 0 (Journal.appends journal);
  ignore (run 1);
  Alcotest.(check bool) "one domain journals" true (Journal.appends journal > 0)

let suite =
  [
    ("robustness instances", `Quick, test_robustness_instances);
    ("robustness instances clipped", `Quick, test_robustness_instances_clip);
    ("acas instances", `Quick, test_acas_instances);
    ("runner comparison", `Quick, test_runner_comparison);
    ("report summarize", `Quick, test_report_summarize);
    ("report verdict counts", `Quick, test_report_verdict_counts);
    ("report geomean", `Quick, test_report_geomean);
    ("report split hard", `Quick, test_report_split_hard);
    ("parallel matches sequential", `Quick, test_parallel_matches_sequential);
    ("parallel journal rejected", `Quick, test_parallel_journal_rejected);
  ]
