(* IVAN command-line interface.

   Subcommands:
     zoo          list the model zoo (Table 1 analogues)
     train        train a zoo model and cache its weights
     verify       verify robustness properties of a zoo model
     incremental  compare baseline vs. incremental verification on an update
     prove        verify one property, journaling the run to a file
     reverify     re-verify an updated network from a prove journal
     diff         differential verification of a quantized variant
     check        verify a VNN-LIB property against a serialized network
     cert-check   re-validate a proof artifact in exact arithmetic
     stats        print the statistics of every run in a journal
     experiment   regenerate one of the paper's tables/figures *)

module Vec = Ivan_tensor.Vec
module Rng = Ivan_tensor.Rng
module Network = Ivan_nn.Network
module Quant = Ivan_nn.Quant
module Perturb = Ivan_nn.Perturb
module Serialize = Ivan_nn.Serialize
module Bab = Ivan_bab.Bab
module Engine = Ivan_bab.Engine
module Frontier = Ivan_bab.Frontier
module Trace = Ivan_bab.Trace
module Analyzer = Ivan_analyzer.Analyzer
module Cert = Ivan_cert.Cert
module Journal = Ivan_resilience.Journal
module Supervisor = Ivan_supervise.Supervisor
module Ivan = Ivan_core.Ivan
module Zoo = Ivan_data.Zoo
module Runner = Ivan_harness.Runner
module Workload = Ivan_harness.Workload
module Report = Ivan_harness.Report
module Experiments = Ivan_harness.Experiments
module Clock = Ivan_clock.Clock

open Cmdliner

(* An input the run cannot use (an unreadable path, an instance index
   outside the suite, a negative retry count or non-positive node timeout,
   a journal damaged or written for another network or property) is an
   operational error, not a crash: report the diagnostic and exit 2. *)
let or_die_2 = function
  | Ok v -> v
  | Error msg ->
      Format.eprintf "error: %s@." msg;
      exit 2

let read_journal path =
  or_die_2
    (match In_channel.with_open_bin path In_channel.input_all with
    | data -> Ok data
    | exception Sys_error msg -> Error ("cannot read journal: " ^ msg))

let open_journal path =
  or_die_2
    (match Journal.open_file path with
    | w -> Ok w
    | exception Sys_error msg -> Error ("cannot open journal: " ^ msg))

(* ---------------- shared arguments ---------------- *)

let model_names = List.map (fun s -> s.Zoo.name) Zoo.table1

let model_arg =
  let doc = Printf.sprintf "Zoo model (one of %s)." (String.concat ", " model_names) in
  let model_conv = Arg.enum (List.map (fun s -> (s.Zoo.name, s)) Zoo.table1) in
  Arg.(required & opt (some model_conv) None & info [ "m"; "model" ] ~docv:"MODEL" ~doc)

let cache_arg =
  let doc = "Weight cache directory (default _zoo_cache, or \\$IVAN_ZOO_CACHE)." in
  Arg.(value & opt (some string) None & info [ "cache" ] ~docv:"DIR" ~doc)

type update_kind = Quantize of Quant.scheme | Prune of float

let update_conv =
  Arg.enum
    [
      ("int8", Quantize Quant.Int8);
      ("int16", Quantize Quant.Int16);
      ("int6", Quantize (Quant.Bits 6));
      ("prune10", Prune 0.1);
      ("prune30", Prune 0.3);
    ]

let apply_update = function
  | Quantize scheme -> Quant.network scheme
  | Prune fraction -> Perturb.magnitude_prune ~fraction

let update_name = function
  | Quantize scheme -> Quant.scheme_name scheme
  | Prune fraction -> Printf.sprintf "prune %g%%" (100.0 *. fraction)

let update_arg =
  let doc =
    "Network update to verify incrementally: int16, int8, int6 quantization or prune10/prune30 \
     magnitude pruning."
  in
  Arg.(value & opt update_conv (Quantize Quant.Int16) & info [ "update" ] ~docv:"UPDATE" ~doc)

let instances_arg default =
  let doc = "Number of verification instances." in
  Arg.(value & opt int default & info [ "n"; "instances" ] ~docv:"N" ~doc)

let budget_arg =
  let doc = "Analyzer-call budget per instance." in
  Arg.(value & opt int 400 & info [ "budget" ] ~docv:"CALLS" ~doc)

let strategy_arg =
  let doc = "Frontier exploration order: fifo (breadth-first, the default), lifo (depth-first) \
             or best (lowest analyzer bound first)." in
  Arg.(
    value
    & opt
        (enum
           [
             ("fifo", Frontier.Fifo); ("lifo", Frontier.Lifo); ("best", Frontier.Best_first);
           ])
        Frontier.Fifo
    & info [ "strategy" ] ~docv:"STRATEGY" ~doc)

let journal_arg =
  let doc =
    "Write-ahead journal every run to FILE: each run appends a checkpoint of its starting state, \
     then one flushed frame per engine step.  $(b,ivan stats) FILE prints each run's statistics; \
     a killed check run resumes with --resume-journal, losing only the step in flight."
  in
  Arg.(value & opt (some string) None & info [ "journal" ] ~docv:"FILE" ~doc)

(* Resilience policy: how analyzer failures are retried and degraded
   (Analyzer.with_fallback).  Shared by every verifying subcommand. *)
let policy_term =
  let max_retries_arg =
    let doc = "Re-attempts per analyzer per node before degrading to the next analyzer in the \
               fallback chain." in
    Arg.(value & opt int Analyzer.default_policy.Analyzer.max_retries
         & info [ "max-retries" ] ~docv:"N" ~doc)
  in
  let node_timeout_arg =
    let doc = "Cooperative per-node analyzer time budget in seconds; once exceeded the node \
               degrades to unknown instead of retrying (default: none)." in
    Arg.(value & opt (some float) None & info [ "node-timeout" ] ~docv:"SECONDS" ~doc)
  in
  let fallback_arg =
    let doc = "Degrade through cheaper analyzers (DeepPoly, zonotopes, then intervals) when the \
               primary keeps failing, instead of giving the node up immediately." in
    Arg.(value & opt (enum [ ("on", true); ("off", false) ]) true
         & info [ "fallback" ] ~docv:"on|off" ~doc)
  in
  let make max_retries node_timeout fallback =
    if max_retries < 0 then or_die_2 (Error "--max-retries must be non-negative");
    (match node_timeout with
    | Some s when not (s > 0.0) -> or_die_2 (Error "--node-timeout must be positive")
    | _ -> ());
    {
      Analyzer.max_retries;
      node_timeout = Option.value node_timeout ~default:infinity;
      fallback;
    }
  in
  Term.(const make $ max_retries_arg $ node_timeout_arg $ fallback_arg)

let verdict_string = function
  | Bab.Proved -> "verified"
  | Bab.Disproved _ -> "counterexample"
  | Bab.Exhausted -> "unknown (budget)"

(* The zoo model's analyzer stack under [config], with the CLI's budget
   and resilience policy. *)
let setting_for spec budget_calls policy config =
  let budget = { Bab.max_analyzer_calls = budget_calls; max_seconds = 60.0 } in
  let config = { config with Ivan.budget; policy } in
  match spec.Zoo.kind with
  | Zoo.Acas -> Runner.acas_setting ~config ()
  | Zoo.Image_classifier -> Runner.classifier_setting ~config ()

let instances_for spec net count =
  match spec.Zoo.kind with
  | Zoo.Acas -> Workload.acas_instances ~net ~margins:[ 0.1; 0.2; 0.3 ] ~seed:333
  | Zoo.Image_classifier -> Workload.robustness_instances ~spec ~net ~count

(* ---------------- zoo ---------------- *)

let zoo_cmd =
  let run () =
    Format.printf "%-16s %-6s %8s %8s %7s  %s@." "Model" "eps" "#Neurons" "#ReLUs" "#Params"
      "Description";
    List.iter
      (fun spec ->
        let eps = if spec.Zoo.kind = Zoo.Acas then "-" else Printf.sprintf "%.3f" spec.Zoo.eps in
        let net = Zoo.untrained spec in
        let params =
          Array.fold_left
            (fun acc l -> acc + Ivan_nn.Layer.num_params l)
            0 (Network.layers net)
        in
        Format.printf "%-16s %-6s %8d %8d %7d  %s@." spec.Zoo.name eps (Network.num_neurons net)
          (Network.num_relus net) params spec.Zoo.description)
      Zoo.table1
  in
  Cmd.v (Cmd.info "zoo" ~doc:"List the model zoo.") Term.(const run $ const ())

(* ---------------- train ---------------- *)

let train_cmd =
  let run spec cache out =
    let net, seconds = Clock.timed (fun () -> Zoo.load_or_train ?cache_dir:cache spec) in
    Format.printf "%s: %d layers, %d neurons, %d relus; test accuracy %.3f (%.1fs)@."
      spec.Zoo.name (Network.num_layers net) (Network.num_neurons net) (Network.num_relus net)
      (Zoo.accuracy spec net) seconds;
    match out with
    | None -> ()
    | Some path ->
        Serialize.to_file path net;
        Format.printf "weights written to %s@." path
  in
  let out_arg =
    Arg.(value & opt (some string) None & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Also save weights to FILE.")
  in
  Cmd.v
    (Cmd.info "train" ~doc:"Train (or load) a zoo model.")
    Term.(const run $ model_arg $ cache_arg $ out_arg)

(* ---------------- verify ---------------- *)

let verify_cmd =
  let run spec cache count budget_calls strategy policy journal_out =
    let net = Zoo.load_or_train ?cache_dir:cache spec in
    let { Runner.analyzer; heuristic; config } =
      setting_for spec budget_calls policy { Ivan.default_config with strategy }
    in
    let instances = instances_for spec net count in
    Format.printf "verifying %d properties on %s (%s frontier)@." (List.length instances)
      spec.Zoo.name
      (Frontier.strategy_name strategy);
    let proved = ref 0 and disproved = ref 0 and unknown = ref 0 in
    (* One writer: each instance's run appends under its own Header. *)
    let journal = Option.map open_journal journal_out in
    List.iter
      (fun (inst : Workload.instance) ->
        let run, seconds =
          Clock.timed (fun () ->
              Engine.run
                (Engine.create ~analyzer ~heuristic ~config:(Ivan.engine_config config) ?journal
                   ~net ~prop:inst.Workload.prop ()))
        in
        (match run.Bab.verdict with
        | Bab.Proved -> incr proved
        | Bab.Disproved _ -> incr disproved
        | Bab.Exhausted -> incr unknown);
        Format.printf "%-28s %-18s calls=%4d tree=%4d %.2fs@."
          inst.Workload.prop.Ivan_spec.Prop.name
          (verdict_string run.Bab.verdict) run.Bab.stats.Bab.analyzer_calls
          run.Bab.stats.Bab.tree_size seconds;
        Format.printf "  %a@." Trace.pp_aggregate run.Bab.stats)
      instances;
    Option.iter Journal.close journal;
    Format.printf "summary: %d verified, %d counterexamples, %d unknown@." !proved !disproved
      !unknown
  in
  Cmd.v
    (Cmd.info "verify" ~doc:"Verify properties of a zoo model from scratch.")
    Term.(
      const run $ model_arg $ cache_arg $ instances_arg 10 $ budget_arg $ strategy_arg
      $ policy_term $ journal_arg)

(* ---------------- incremental ---------------- *)

let incremental_cmd =
  let run spec cache update count budget_calls alpha theta strategy policy =
    let net = Zoo.load_or_train ?cache_dir:cache spec in
    let updated = apply_update update net in
    let setting =
      setting_for spec budget_calls policy { Ivan.default_config with alpha; theta; strategy }
    in
    let instances = instances_for spec net count in
    Format.printf "incremental verification of %s under the %s update (%d instances, %s frontier)@."
      spec.Zoo.name (update_name update) (List.length instances)
      (Frontier.strategy_name strategy);
    let comparisons =
      Runner.run_all setting ~net ~updated ~techniques:[ Ivan.Reuse; Ivan.Reorder; Ivan.Full ]
        instances
    in
    List.iter
      (fun (c : Runner.comparison) ->
        let base = c.Runner.baseline and ivan = Report.technique_measurement c Ivan.Full in
        let pivots (m : Runner.timed) = m.Runner.run.Bab.stats.Bab.lp_pivots in
        Format.printf
          "%-28s base %-14s %4d calls %6d pivots %.2fs | ivan %-14s %4d calls %6d pivots %.2fs, %d \
           closed by N's multipliers@."
          c.Runner.instance.Workload.prop.Ivan_spec.Prop.name
          (verdict_string base.Runner.run.Bab.verdict) (Runner.calls base) (pivots base)
          base.Runner.seconds (verdict_string ivan.Runner.run.Bab.verdict) (Runner.calls ivan)
          (pivots ivan) ivan.Runner.seconds ivan.Runner.run.Bab.stats.Bab.dual_closures)
      comparisons;
    List.iter
      (fun technique ->
        let s = Report.summarize comparisons technique in
        Format.printf "%-14s overall speedup: time %.2fx  calls %.2fx  (+%d solved)@."
          (Ivan.technique_name technique) s.Report.sp_time s.Report.sp_calls s.Report.plus_solved)
      [ Ivan.Reuse; Ivan.Reorder; Ivan.Full ]
  in
  let alpha_arg =
    Arg.(
      value & opt float Ivan.default_config.alpha & info [ "alpha" ] ~doc:"H_delta mixing weight.")
  in
  let theta_arg =
    Arg.(value & opt float Ivan.default_config.theta & info [ "theta" ] ~doc:"Pruning threshold.")
  in
  Cmd.v
    (Cmd.info "incremental" ~doc:"Compare baseline vs. IVAN on a network update.")
    Term.(
      const run $ model_arg $ cache_arg $ update_arg $ instances_arg 10 $ budget_arg $ alpha_arg
      $ theta_arg $ strategy_arg $ policy_term)

(* ---------------- prove / reverify: the run journal as the proof ---------------- *)

let index_arg =
  let doc = "Instance index within the model's property suite." in
  let nonnegative index =
    if index < 0 then or_die_2 (Error (Printf.sprintf "no instance with index %d" index));
    index
  in
  Term.(const nonnegative $ Arg.(value & opt int 0 & info [ "i"; "index" ] ~docv:"I" ~doc))

let nth_instance spec net index =
  let instances = instances_for spec net (index + 1) in
  match List.nth_opt instances index with
  | Some inst -> inst
  | None -> or_die_2 (Error (Printf.sprintf "no instance with index %d" index))

let prove_cmd =
  let run spec cache index budget_calls policy out =
    let net = Zoo.load_or_train ?cache_dir:cache spec in
    let { Runner.analyzer; heuristic; config } =
      setting_for spec budget_calls policy Ivan.default_config
    in
    let prop = (nth_instance spec net index).Workload.prop in
    let journal = open_journal out in
    let result, seconds =
      Clock.timed (fun () ->
          Ivan.verify_original ~analyzer ~heuristic
            ~config:{ config with Ivan.journal = Some journal } ~net ~prop)
    in
    Journal.close journal;
    Format.printf "%s: %s in %d analyzer calls (%.2fs), tree %d nodes@." prop.Ivan_spec.Prop.name
      (verdict_string result.Bab.verdict)
      result.Bab.stats.Bab.analyzer_calls seconds result.Bab.stats.Bab.tree_size;
    Format.printf "proof written to %s@." out
  in
  let out_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:
            "Journal the run to FILE: its checkpoint of the starting state and the Step frames \
             after it rebuild the proof tree.")
  in
  Cmd.v
    (Cmd.info "prove" ~doc:"Verify one property and journal the run as its proof.")
    Term.(
      const run $ model_arg $ cache_arg $ index_arg $ budget_arg $ policy_term $ out_arg)

let reverify_cmd =
  let run spec cache update index budget_calls policy proof_path =
    let net = Zoo.load_or_train ?cache_dir:cache spec in
    let updated = apply_update update net in
    let { Runner.analyzer; heuristic; config } =
      setting_for spec budget_calls policy Ivan.default_config
    in
    let prop = (nth_instance spec net index).Workload.prop in
    (* The journal's Header fingerprint binds it to this network and
       property.  With no config override the recorded budget governs, so
       a finished run comes back as recorded, without an analyzer call. *)
    let engine, _ =
      or_die_2
        (Result.map_error
           (fun msg -> proof_path ^ ": " ^ msg)
           (Engine.resume ~analyzer ~heuristic ~net ~prop (read_journal proof_path)))
    in
    let original_run =
      or_die_2
        (Option.to_result (Engine.finished engine)
           ~none:(proof_path ^ ": the journaled run never finished; rerun prove"))
    in
    let result, seconds =
      Clock.timed (fun () ->
          Ivan.verify_updated ~analyzer ~heuristic ~config ~original_run ~updated ~prop)
    in
    Format.printf "%s (%s): %s in %d analyzer calls (%.2fs; original proof took %d calls)@."
      prop.Ivan_spec.Prop.name (update_name update)
      (verdict_string result.Bab.verdict)
      result.Bab.stats.Bab.analyzer_calls seconds original_run.Bab.stats.Bab.analyzer_calls
  in
  let proof_arg =
    Arg.(
      required
      & opt (some file) None
      & info [ "proof" ] ~docv:"FILE" ~doc:"Run journal written by the prove subcommand.")
  in
  Cmd.v
    (Cmd.info "reverify"
       ~doc:"Incrementally re-verify a property on an updated network from a prove journal.")
    Term.(
      const run $ model_arg $ cache_arg $ update_arg $ index_arg $ budget_arg $ policy_term
      $ proof_arg)

(* ---------------- diff: differential verification ---------------- *)

let diff_cmd =
  let run spec cache update index delta budget_calls =
    let net = Zoo.load_or_train ?cache_dir:cache spec in
    let updated = apply_update update net in
    let inst = nth_instance spec net index in
    let box = inst.Workload.prop.Ivan_spec.Prop.input in
    (* Level 1: one-shot zonotope differential bound. *)
    (match Ivan_domains.Diff.output_difference net updated ~box with
    | None -> Format.printf "region empty@."
    | Some { Ivan_domains.Diff.lo; hi } ->
        let worst =
          Array.fold_left Float.max 0.0
            (Array.mapi (fun i l -> Float.max (Float.abs l) (Float.abs hi.(i))) lo)
        in
        Format.printf "zonotope bound: max |output drift| <= %.5f over the region@." worst);
    (* Level 2: complete differential verification. *)
    let analyzer = Ivan_analyzer.Analyzer.lp_triangle () in
    let config =
      {
        Ivan_core.Ivan.default_config with
        budget = { Bab.max_analyzer_calls = budget_calls; max_seconds = 60.0 };
      }
    in
    let proof =
      Ivan_core.Diffverify.verify ~analyzer ~heuristic:Ivan_bab.Heuristic.zono_coeff ~config net
        updated ~box ~delta
    in
    match proof.Ivan_core.Diffverify.verdict with
    | Ivan_core.Diffverify.Equivalent ->
        Format.printf "complete: outputs within %.4g everywhere (%d analyzer calls)@." delta
          proof.Ivan_core.Diffverify.total_calls
    | Ivan_core.Diffverify.Deviation x ->
        let d = Vec.norm_inf (Vec.sub (Network.forward net x) (Network.forward updated x)) in
        Format.printf "deviation found: an input drifts by %.4g (> %.4g)@." d delta
    | Ivan_core.Diffverify.Unknown ->
        Format.printf "inconclusive within the budget (%d analyzer calls)@."
          proof.Ivan_core.Diffverify.total_calls
  in
  let delta_arg =
    Arg.(value & opt float 0.5 & info [ "delta" ] ~docv:"D" ~doc:"Allowed output drift.")
  in
  Cmd.v
    (Cmd.info "diff"
       ~doc:"Differentially verify that a quantized variant stays within delta of the original.")
    Term.(
      const run $ model_arg $ cache_arg $ update_arg $ index_arg $ delta_arg $ budget_arg)

(* ---------------- check: network file + VNN-LIB property ---------------- *)

let check_cmd =
  let run net_path prop_path budget_calls input_split strategy policy certify_out journal_out
      resume_journal mem_limit_mb =
    let certify = certify_out <> None in
    if certify && input_split then
      or_die_2 (Error "--certify requires ReLU splitting (input-split proofs are not certifiable)");
    let net = Serialize.of_file net_path in
    let prop = Ivan_spec.Vnnlib.parse_file prop_path in
    let config =
      {
        Engine.strategy;
        budget = { Bab.max_analyzer_calls = budget_calls; max_seconds = 120.0 };
        policy = Some policy;
        certify;
      }
    in
    let analyzer, heuristic =
      if input_split then (Analyzer.zonotope (), Ivan_bab.Heuristic.input_smear)
      else (Analyzer.lp_triangle ~certify (), Ivan_bab.Heuristic.zono_coeff)
    in
    (* An interrupted run restarts from its write-ahead journal with
       --resume-journal, surviving kills at arbitrary points.  The CLI
       budget (and the strategy recorded in the journal) governs the
       continued run.  Read the old journal in full before (possibly)
       opening the same path as the new sink — opening truncates. *)
    let resume_data =
      Option.map
        (fun jpath ->
          Format.printf "resuming from journal %s@." jpath;
          read_journal jpath)
        resume_journal
    in
    let journal = Option.map open_journal journal_out in
    let engine =
      match resume_data with
      | Some data ->
          let engine, info =
            or_die_2 (Engine.resume ~analyzer ~heuristic ~config ?journal ~net ~prop data)
          in
          Format.printf
            "journal recovered: %d steps replayed (%d analyzer calls), %d bytes valid, %d \
             torn bytes dropped@."
            info.Engine.replayed_steps info.Engine.replayed_calls info.Engine.valid_bytes
            info.Engine.dropped_bytes;
          engine
      | None -> Engine.create ~analyzer ~heuristic ~config ?journal ~net ~prop ()
    in
    let result, seconds =
      Clock.timed (fun () ->
          match mem_limit_mb with
          | Some mb ->
              (* Supervised run: the watchdog enforces the memory
                 watermark, degrading down the analyzer ladder before
                 ever giving up. *)
              let limits =
                {
                  Supervisor.default_limits with
                  Supervisor.max_major_words = Supervisor.mb_words (float_of_int mb);
                }
              in
              (Supervisor.supervise ~limits
                 ~on_escalation:(fun e ->
                   Format.printf "supervisor: %s@." (Supervisor.escalation_to_string e))
                 engine)
                .Supervisor.run
          | None -> Engine.run engine)
    in
    Option.iter Journal.close journal;
    (match result.Engine.verdict with
    | Engine.Proved -> Format.printf "holds@."
    | Engine.Disproved x ->
        Format.printf "violated@.counterexample:";
        Array.iter (fun v -> Format.printf " %.17g" v) x;
        Format.printf "@."
    | Engine.Exhausted -> Format.printf "unknown@.");
    Format.printf "(%d analyzer calls, %d splits, %.2fs)@."
      result.Engine.stats.Bab.analyzer_calls result.Engine.stats.Bab.branchings seconds;
    Format.printf "%a@." Trace.pp_aggregate result.Engine.stats;
    match certify_out with
    | None -> ()
    | Some path -> (
        match result.Engine.artifact with
        | None ->
            Format.printf
              "no proof artifact: the run was exhausted (nothing proved or disproved)@."
        | Some artifact ->
            Cert.Artifact.to_file path artifact;
            Format.printf
              "proof artifact written to %s (%d certificates emitted, %d unavailable)@." path
              result.Engine.stats.Bab.certs_emitted
              result.Engine.stats.Bab.certs_unavailable;
            if result.Engine.stats.Bab.certs_unavailable > 0 then
              Format.printf
                "warning: %d leaves lack certificates; cert-check will reject the artifact@."
                result.Engine.stats.Bab.certs_unavailable)
  in
  let net_arg =
    Arg.(
      required
      & opt (some file) None
      & info [ "net" ] ~docv:"FILE" ~doc:"Network weights (the serializer's text format).")
  in
  let prop_arg =
    Arg.(
      required & opt (some file) None & info [ "prop" ] ~docv:"FILE" ~doc:"VNN-LIB property file.")
  in
  let input_split_arg =
    Arg.(value & flag & info [ "input-split" ] ~doc:"Branch on input dimensions instead of ReLUs.")
  in
  let certify_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "certify" ] ~docv:"FILE"
          ~doc:
            "Collect an exact-arithmetic proof certificate for every verified leaf and write the \
             self-contained proof artifact to FILE; re-validate it later with cert-check.")
  in
  let resume_journal_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "resume-journal" ] ~docv:"FILE"
          ~doc:"Resume a killed run from its write-ahead journal: torn or corrupt tail frames \
                are dropped, the run is rebuilt from its starting checkpoint and every step \
                after it is replayed.  Combine with --journal (same FILE is fine) to copy the \
                run into that journal and keep journaling there.")
  in
  let mem_limit_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "mem-limit-mb" ] ~docv:"MB"
          ~doc:"Supervise the run under a major-heap memory watermark: on a breach the watchdog \
                compacts, then degrades to cheaper analyzers, and only as a last resort ends \
                the run cleanly (exhausted verdict).")
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Verify a VNN-LIB property against a serialized network.")
    Term.(
      const run $ net_arg $ prop_arg $ budget_arg $ input_split_arg $ strategy_arg $ policy_term
      $ certify_out_arg $ journal_arg $ resume_journal_arg $ mem_limit_arg)

(* ---------------- cert-check: independent proof validation ---------------- *)

let cert_check_cmd =
  let run path =
    (* A corrupted artifact may fail to parse at all; that is as much a
       rejection as a failed certificate check, never a crash. *)
    let artifact =
      match Cert.Artifact.of_file path with
      | a -> Ok a
      | exception (Failure msg | Sys_error msg) -> Error msg
    in
    match Result.bind artifact Cert.check_artifact with
    | Ok report ->
        Format.printf "%s: valid@.%a@." path Cert.pp_report report
    | Error msg ->
        Format.printf "%s: INVALID@.%s@." path msg;
        exit 1
  in
  let path_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"PROOF" ~doc:"Proof artifact produced by check --certify.")
  in
  Cmd.v
    (Cmd.info "cert-check"
       ~doc:
         "Re-validate a proof artifact without rerunning the verifier: every leaf certificate's \
          LP bound is re-derived in exact rational arithmetic, counterexamples are re-evaluated \
          exactly, and the specification tree's structure is checked.  Exits non-zero on any \
          defect.")
    Term.(const run $ path_arg)

(* ---------------- stats: a journal's runs ---------------- *)

let stats_cmd =
  let run path =
    let runs =
      or_die_2
        (Result.map_error (fun msg -> path ^ ": " ^ msg) (Engine.journal_runs (read_journal path)))
    in
    if runs = [] then or_die_2 (Error (path ^ ": the journal holds no run"));
    List.iter
      (fun events -> Format.printf "%a@." Trace.pp_aggregate (Trace.aggregate events))
      runs
  in
  let path_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"JOURNAL" ~doc:"Journal written by --journal or prove -o.")
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Print the statistics of every run in a journal, oldest first, one line per run: each \
          line is the fold of the run's journaled events, the same line the run printed.")
    Term.(const run $ path_arg)

(* ---------------- experiment ---------------- *)

let experiment_cmd =
  let experiments =
    [
      ("table1", Experiments.table1);
      ("fig6", Experiments.fig6);
      ("fig7", Experiments.fig7);
      ("table2", Experiments.table2);
      ("fig8", Experiments.fig8);
      ("fig9", Experiments.fig9);
      ("table3", Experiments.table3);
      ("table4", Experiments.table4);
      ("theorem4", Experiments.theorem4);
      ("milp-warmstart", Experiments.milp_warmstart);
      ("heuristics", Experiments.ablation_heuristics);
      ("all", Experiments.run_all);
    ]
  in
  let id_arg =
    let doc =
      "Experiment id: table1, fig6, fig7, table2, fig8, fig9, table3, table4, theorem4, \
       milp-warmstart, heuristics, all."
    in
    Arg.(required & pos 0 (some (enum experiments)) None & info [] ~docv:"ID" ~doc)
  in
  let scale_arg =
    let doc = "Workload scale." in
    Arg.(
      value
      & opt (enum [ ("quick", Experiments.quick); ("full", Experiments.full) ]) Experiments.quick
      & info [ "scale" ] ~docv:"SCALE" ~doc)
  in
  let jobs_arg =
    let doc = "Run a workload's instances in parallel on N OCaml domains." in
    Arg.(value & opt int 1 & info [ "jobs" ] ~docv:"N" ~doc)
  in
  let csv_arg =
    let doc = "Also write each workload's per-instance results as $(docv)/<model>-<scheme>.csv." in
    Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"DIR" ~doc)
  in
  let run experiment scale cache domains strategy csv =
    let ctx = Experiments.create ?cache_dir:cache ~domains ~strategy scale in
    experiment ctx Format.std_formatter;
    Option.iter (fun dir -> Experiments.export_csv ctx ~dir) csv
  in
  Cmd.v
    (Cmd.info "experiment" ~doc:"Regenerate one of the paper's tables or figures.")
    Term.(const run $ id_arg $ scale_arg $ cache_arg $ jobs_arg $ strategy_arg $ csv_arg)

let () =
  let info =
    Cmd.info "ivan" ~version:"1.0.0"
      ~doc:"Incremental verification of neural networks (PLDI 2023 reproduction)."
  in
  let group = Cmd.group info
      [
        zoo_cmd;
        train_cmd;
        verify_cmd;
        incremental_cmd;
        prove_cmd;
        reverify_cmd;
        diff_cmd;
        check_cmd;
        cert_check_cmd;
        stats_cmd;
        experiment_cmd;
      ] in
  exit (Cmd.eval group)
