module Network = Ivan_nn.Network
module Layer = Ivan_nn.Layer
module Mat = Ivan_tensor.Mat
module Box = Ivan_spec.Box
module Prop = Ivan_spec.Prop
module Analyzer = Ivan_analyzer.Analyzer
module Tree = Ivan_spectree.Tree
module Lp = Ivan_lp.Lp
module Cert = Ivan_cert.Cert
module Screen = Ivan_cert.Screen
module Clock = Ivan_clock.Clock
module Journal = Ivan_resilience.Journal

type budget = { max_analyzer_calls : int; max_seconds : float }

let default_budget = { max_analyzer_calls = 10_000; max_seconds = infinity }

type config = {
  strategy : Frontier.strategy;
  budget : budget;
  policy : Analyzer.policy option;
  certify : bool;
}

let default_config =
  { strategy = Frontier.Fifo; budget = default_budget; policy = None; certify = false }

(* Steps between wall-clock budget checks. *)
let check_time_every = 8

type stats = Trace.aggregate = {
  events : int;
  analyzer_calls : int;
  analyzer_seconds : float;
  branchings : int;
  tree_size : int;
  tree_leaves : int;
  elapsed_seconds : float;
  pruned : int;
  heuristic_failures : int;
  retries : int;
  fallback_bounds : int;
  faults_absorbed : int;
  max_frontier : int;
  max_depth : int;
  lp_warm_hits : int;
  lp_warm_misses : int;
  lp_cold_solves : int;
  lp_pivots : int;
  lp_factor_pivots : int;
  lp_hit_pivots : int;
  lp_hit_solves : int;
  dual_closures : int;
  certs_emitted : int;
  certs_unavailable : int;
  cert_exact_checks : int;
  verdict : string option;
}

type verdict = Proved | Disproved of Ivan_tensor.Vec.t | Exhausted

type run = {
  verdict : verdict;
  tree : Tree.t;
  stats : stats;
  artifact : Cert.Artifact.t option;
}

(* The run's statistics are one [Trace.aggregate], advanced by
   [Trace.count] on every event the engine emits ({!emit}) — so [stats],
   a trace replay and a journal resume all count through the same fold. *)
type t = {
  mutable analyzer : Analyzer.t;  (* hardened by [config.policy]; [degrade] swaps it *)
  heuristic : Heuristic.t;
  config : config;  (* as in force: a resumed run's recorded strategy and budget *)
  trace : Trace.sink;
  net : Network.t;
  prop : Prop.t;
  tree : Tree.t;
  frontier : Tree.node Frontier.t;
  mutable started : float;  (* the run clock's origin; replay moves it back *)
  mutable current_node : int;  (* node id under analysis, for resilience events *)
  mutable counters : stats;
  (* Warm-start plumbing: frontier nodes whose parent solved an LP have
     the parent's report — its basis and its DeepPoly run — parked here
     until they are dequeued.  The table is engine-local bookkeeping,
     not verification state — a resumed run simply starts its nodes
     cold. *)
  hints : (int, Analyzer.lp_report) Hashtbl.t;
  (* Per-leaf certificates keyed by node id, admitted only once the
     float screen or the exact check has accepted them; assembled into
     the run's proof artifact at [finish].  Like [hints], the table is
     engine-local: a journal stores no certificate, so a resumed run
     cannot produce a complete artifact for leaves verified before the
     kill (they count as unavailable in the final artifact check, never
     as silently certified). *)
  certs : (int, Cert.leaf) Hashtbl.t;
  (* Write-ahead journal: events of the step in flight accumulate in
     [jbuf] (newest first) and are flushed as one atomic Step frame when
     the step completes. *)
  mutable journal : Journal.writer option;
  mutable jbuf : Trace.event list;
  mutable finished : run option;
}

let verdict_label = function
  | Proved -> "proved"
  | Disproved _ -> "disproved"
  | Exhausted -> "exhausted"

let status_label = function
  | Analyzer.Verified -> "verified"
  | Analyzer.Counterexample _ -> "counterexample"
  | Analyzer.Unknown -> "unknown"

(* Every event goes to the trace sink, the counter fold and the journal
   buffer. *)
let emit t ev =
  Trace.emit t.trace ev;
  t.counters <- Trace.count t.counters ev;
  t.jbuf <- ev :: t.jbuf

(* The analyzer as the engine runs it: with [config.policy] set, wrapped
   in the resilience layer, whose events are emitted against the node
   under analysis. *)
let harden t analyzer =
  match t.config.policy with
  | None -> analyzer
  | Some policy ->
      let notify reason =
        let node = t.current_node in
        emit t
          (match reason with
          | Analyzer.Retried { analyzer; attempt; reason } ->
              Trace.Retried { node; analyzer; attempt; reason }
          | Analyzer.Fell_back { analyzer; reason } -> Trace.Fallback { node; analyzer; reason }
          | Analyzer.Absorbed { analyzer; reason } -> Trace.Absorbed { node; analyzer; reason })
      in
      Analyzer.with_fallback ~notify ~policy analyzer

let tree t = t.tree

let analyzer t = t.analyzer

let calls t = t.counters.Trace.analyzer_calls

let finished t = t.finished

(* The proof artifact of a certified run: the final tree with one
   checked certificate per verified leaf ([Proved]), or the concrete
   counterexample ([Disproved]).  Leaves whose certificate was
   unavailable are simply absent from [leaves] — [Cert.check_artifact]
   reports them as missing rather than this code guessing.  An
   [Exhausted] run proves nothing, so it carries no artifact. *)
let artifact_of t verdict =
  if not t.config.certify then None
  else
    match verdict with
    | Exhausted -> None
    | Proved ->
        let leaves =
          List.filter_map
            (fun n -> Hashtbl.find_opt t.certs (Tree.node_id n))
            (Tree.leaves t.tree)
        in
        Some
          {
            Cert.Artifact.net = t.net;
            prop = t.prop;
            verdict = Cert.Artifact.Proved;
            tree = t.tree;
            leaves;
          }
    | Disproved x ->
        Some
          {
            Cert.Artifact.net = t.net;
            prop = t.prop;
            verdict = Cert.Artifact.Disproved (Array.copy x);
            tree = t.tree;
            leaves = [];
          }

(* The run as it stands once its [Verdict] event is counted. *)
let finished_run t verdict =
  { verdict; tree = t.tree; stats = t.counters; artifact = artifact_of t verdict }

let finish t verdict =
  emit t
    (Trace.Verdict
       {
         verdict = verdict_label verdict;
         calls = calls t;
         seconds = Clock.monotonic () -. t.started;
         nodes = Tree.size t.tree;
         leaves = Tree.num_leaves t.tree;
         counterexample = (match verdict with Disproved x -> Some x | Proved | Exhausted -> None);
       });
  let run = finished_run t verdict in
  t.finished <- Some run;
  run

(* The wall-clock budget is checked centrally, once every
   [check_time_every] steps (including step 0, so a zero budget fires
   before any analyzer call), instead of reading the clock per node.
   Every step makes one analyzer call, so the call count is the step
   count at every step boundary.
   [>=] rather than [>]: a 0-second budget must exhaust even when the
   clock has not advanced a full tick since [create]. *)
let out_of_time t =
  t.config.budget.max_seconds < infinity
  && calls t mod check_time_every = 0
  && Clock.monotonic () -. t.started >= t.config.budget.max_seconds

type status = Running | Finished of run

let step_once t =
  match t.finished with
  | Some run -> Finished run
  | None ->
      if Frontier.is_empty t.frontier then Finished (finish t Proved)
      else if calls t >= t.config.budget.max_analyzer_calls || out_of_time t then
        Finished (finish t Exhausted)
      else begin
        let frontier_now = Frontier.length t.frontier in
        let node = match Frontier.pop t.frontier with Some n -> n | None -> assert false in
        let id = Tree.node_id node in
        let depth = List.length (Tree.path_decisions node) in
        emit t (Trace.Dequeued { node = id; depth; frontier = frontier_now });
        let box, splits = Tree.subproblem ~root_box:t.prop.Prop.input node in
        t.current_node <- id;
        (* Stage the parent's report (if the parent solved an LP) for
           the analyzer's warm start, else the node's own multipliers
           (a seed leaf an earlier run's LP verified) for its closure;
           otherwise make sure no stale hint from an earlier node is
           lying around. *)
        (match (Hashtbl.find_opt t.hints id, Tree.multipliers node) with
        | Some info, _ ->
            Hashtbl.remove t.hints id;
            Analyzer.Warm.offer info
        | None, Some m -> Analyzer.Warm.offer_multipliers m
        | None, None -> Analyzer.Warm.clear ());
        (* The call's time includes retries and degraded attempts inside
           the resilience wrapper, and a call that raised. *)
        let result, seconds =
          Clock.timed (fun () ->
              match t.analyzer.Analyzer.run t.net ~prop:t.prop ~box ~splits with
              | outcome -> Ok outcome
              | exception e when not (Analyzer.fatal_exn e) -> Error e)
        in
        let outcome =
          match result with
          | Ok outcome -> outcome
          | Error e ->
              (* Last line of defense: even without a resilience policy, a
                 non-fatal analyzer exception degrades this node to Unknown
                 instead of crashing a run holding a reusable tree. *)
              emit t
                (Trace.Absorbed
                   { node = id; analyzer = t.analyzer.Analyzer.name; reason = Printexc.to_string e });
              Analyzer.degraded_outcome
        in
        (* The accepted outcome's LP report, if it solved any or closed
           the node by carried multipliers: an event for the run's
           counters, and the hint for the node's children (below, if it
           splits). *)
        Option.iter
          (fun (r : Analyzer.lp_report) ->
            emit t
              (if r.closed then Trace.Dual_closed { node = id }
               else
                 Trace.Lp_solved
                   {
                     node = id;
                     warm_hits = r.warm_hits;
                     warm_misses = r.warm_misses;
                     cold_solves = r.cold_solves;
                     pivots = r.pivots;
                     factor_pivots = r.factor_pivots;
                   }))
          outcome.Analyzer.lp;
        emit t
          (Trace.Analyzed
             {
               node = id;
               status = status_label outcome.Analyzer.status;
               lb = outcome.Analyzer.lb;
               seconds;
             });
        Tree.set_lb node outcome.Analyzer.lb;
        match outcome.Analyzer.status with
        | Analyzer.Verified ->
            (* The multipliers that verified the node stay on it, for a
               later run on an updated network to try first. *)
            Option.iter
              (fun (r : Analyzer.lp_report) -> Tree.set_multipliers node r.proof)
              outcome.Analyzer.lp;
            (* Certificate collection: admit the analyzer's evidence
               only once the exact checker is sure to accept it, so the
               table never holds a certificate the independent check
               would reject — a float-drift cert is counted unavailable,
               never emitted broken.  The float screen settles nearly
               every leaf; the exact check runs only when it cannot. *)
            if t.config.certify then begin
              let kind, exact =
                match outcome.Analyzer.cert with
                | None -> ("unavailable", false)
                | Some evidence ->
                    let leaf =
                      {
                        Cert.node = id;
                        splits = Cert.splits_fingerprint (Tree.path_decisions node);
                        evidence;
                      }
                    in
                    let box = t.prop.Prop.input in
                    let exact = not (Screen.passes ~box leaf) in
                    if exact && Result.is_error (Cert.check_leaf ~box leaf) then
                      ("unavailable", true)
                    else begin
                      Hashtbl.replace t.certs id leaf;
                      ( (match evidence.Cert.witness with
                        | Lp.Certificate.Dual _ -> "dual"
                        | Lp.Certificate.Farkas _ -> "farkas"),
                        exact )
                    end
              in
              emit t (Trace.Certified { node = id; kind; exact })
            end;
            Running
        | Analyzer.Counterexample x -> Finished (finish t (Disproved x))
        | Analyzer.Unknown -> (
            let ctx = { Heuristic.net = t.net; prop = t.prop; box; splits; outcome } in
            match Heuristic.best (t.heuristic.Heuristic.scores ctx) with
            | None ->
                (* No decision can refine this node further; the
                   analyzer is exact here, so this only happens on
                   numerical failure.  Count and trace it distinctly,
                   then stop — the budget was not the problem. *)
                emit t (Trace.Stuck { node = id });
                Finished (finish t Exhausted)
            | Some d ->
                let left, right = Tree.split t.tree node d in
                emit t
                  (Trace.Split
                     {
                       node = id;
                       decision = d;
                       left = Tree.node_id left;
                       right = Tree.node_id right;
                     });
                (* Children inherit the parent's freshly computed bound
                   as their best-first priority until analyzed, and the
                   parent's report as their warm start. *)
                Option.iter
                  (fun info ->
                    Hashtbl.replace t.hints (Tree.node_id left) info;
                    Hashtbl.replace t.hints (Tree.node_id right) info)
                  outcome.Analyzer.lp;
                Frontier.push t.frontier ~priority:outcome.Analyzer.lb left;
                Frontier.push t.frontier ~priority:outcome.Analyzer.lb right;
                Running)
      end

(* ------------------------------------------------------------------ *)
(* Persistence: the write-ahead journal is the engine's only format.

   Frame protocol (see {!Ivan_resilience.Journal} for the byte layout):
   every run opens with a Header frame carrying the config fingerprint
   and one Checkpoint frame holding what the run starts from; each
   completed engine step then appends exactly one Step frame holding the
   step's trace events as [Trace.event_to_json] lines (atomic: a step is
   journaled whole or not at all); the terminal step's events end in the
   [Verdict] event.  Frames are flushed as they are appended, so after a
   kill the journal is a valid prefix plus at most one torn frame, which
   {!Journal.scan} drops.

   A Checkpoint payload is text: the lines [strategy:], [max_calls:] and
   [max_seconds:], then a [tree:] line and the initial specification
   tree in its {!Tree.to_string} format, which preserves node ids and
   lower bounds.  Everything else a run holds — frontier, counters, run
   clock, verdict — follows from that tree and the Step frames.  The
   analyzer, heuristic and network are code, not state — [resume] takes
   them as arguments. *)

(* [float_of_string_opt] accepts the "inf"/"-inf"/"nan" spellings %.17g
   produces for non-finite values, so no special casing is needed when
   reading tokens back. *)
let float_token v = Printf.sprintf "%.17g" v

(* The config digest covers the architecture and the IEEE bit pattern
   of every weight, bias, box bound, coefficient and the offset.  Every
   array is preceded by its length, so distinct configs give distinct
   byte strings. *)
let fingerprint ~net ~prop =
  let buf = Buffer.create 4096 in
  let int n = Buffer.add_int64_be buf (Int64.of_int n) in
  let float v = Buffer.add_int64_be buf (Int64.bits_of_float v) in
  let floats a =
    int (Array.length a);
    Array.iter float a
  in
  let layers = Network.layers net in
  int (Array.length layers);
  Array.iter
    (fun layer ->
      (match Layer.activation layer with
      | Layer.Relu -> int 0
      | Layer.Identity -> int 1
      | Layer.Leaky_relu slope ->
          int 2;
          float slope
      | Layer.Sigmoid -> int 3
      | Layer.Tanh -> int 4);
      match Layer.affine layer with
      | Layer.Dense { weights; bias } ->
          int 0;
          int (Mat.rows weights);
          int (Mat.cols weights);
          for i = 0 to Mat.rows weights - 1 do
            Array.iter float (Mat.row weights i)
          done;
          floats bias
      | Layer.Conv2d { spec; kernel; bias } ->
          int 1;
          List.iter int
            [
              spec.in_channels;
              spec.in_height;
              spec.in_width;
              spec.out_channels;
              spec.kernel_h;
              spec.kernel_w;
              spec.stride;
              spec.padding;
            ];
          floats kernel;
          floats bias)
    layers;
  floats (Box.lo prop.Prop.input);
  floats (Box.hi prop.Prop.input);
  floats prop.Prop.c;
  float prop.Prop.offset;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* The Checkpoint payload of an engine that has not stepped yet. *)
let start_payload t =
  String.concat "\n"
    [
      "strategy: " ^ Frontier.strategy_name t.config.strategy;
      "max_calls: " ^ string_of_int t.config.budget.max_analyzer_calls;
      "max_seconds: " ^ float_token t.config.budget.max_seconds;
      "tree:";
      Tree.to_string t.tree;
    ]

(* Open the run in [w]: Header, Checkpoint [start], then [steps], Step
   payloads already journaled elsewhere; the engine's own steps follow. *)
let attach t w ~start ~steps =
  t.journal <- Some w;
  Journal.append w Journal.Header (fingerprint ~net:t.net ~prop:t.prop);
  Journal.append w Journal.Checkpoint start;
  List.iter (Journal.append w Journal.Step) steps

(* The events of a Step payload, one [Trace.event_to_json] line each as
   [flush_step] writes them: the one decoder of journaled events, shared
   by [journal_runs] and [resume].  @raise Failure on a malformed line. *)
let step_events payload =
  List.filter_map
    (fun line -> if String.trim line = "" then None else Some (Trace.event_of_json line))
    (String.split_on_char '\n' payload)

let journal_runs data =
  match
    List.fold_left
      (fun runs (r : Journal.record) ->
        match (r.kind, runs) with
        | Journal.Header, _ -> [] :: runs
        | Journal.Checkpoint, _ -> runs
        | Journal.Step, run :: older -> List.rev_append (step_events r.payload) run :: older
        | Journal.Step, [] -> failwith "a Step frame before any run header")
      [] (Journal.scan data).Journal.records
  with
  | runs -> Ok (List.rev_map List.rev runs)
  | exception (Failure msg | Invalid_argument msg) -> Error ("Engine.journal_runs: " ^ msg)

let flush_step t =
  let events = t.jbuf in
  t.jbuf <- [];
  match t.journal with
  | Some w when events <> [] ->
      Journal.append w Journal.Step
        (String.concat "\n" (List.rev_map Trace.event_to_json events))
  | Some _ | None -> ()

let step t =
  let r = step_once t in
  flush_step t;
  r

let run t =
  let rec go () = match step t with Finished r -> r | Running -> go () in
  go ()

let cancel t =
  match t.finished with
  | Some r -> r
  | None ->
      let r = finish t Exhausted in
      flush_step t;
      r

let create ~analyzer ~heuristic ?(config = default_config) ?(trace = Trace.null) ?journal
    ?initial_tree ~net ~prop () =
  if Box.dim prop.Prop.input <> Network.input_dim net then
    invalid_arg "Engine.create: property dimension does not match the network";
  let tree = match initial_tree with None -> Tree.create () | Some t -> Tree.copy t in
  let t =
    {
      analyzer;
      heuristic;
      config;
      trace;
      net;
      prop;
      tree;
      frontier = Frontier.create config.strategy;
      started = Clock.monotonic ();
      current_node = -1;
      counters = Trace.empty_aggregate;
      hints = Hashtbl.create 64;
      certs = Hashtbl.create 64;
      journal = None;
      jbuf = [];
      finished = None;
    }
  in
  t.analyzer <- harden t analyzer;
  List.iter (fun n -> Frontier.push t.frontier ~priority:(Tree.lb n) n) (Tree.leaves tree);
  Option.iter (fun w -> attach t w ~start:(start_payload t) ~steps:[]) journal;
  t

let degrade t analyzer =
  t.analyzer <- harden t analyzer;
  Hashtbl.reset t.hints

(* ------------------------------------------------------------------ *)
(* Resume: [create] from the run's Checkpoint frame, then replay the
   Step frames after it. *)

let fail fmt = Printf.ksprintf (fun s -> failwith ("Engine.resume: " ^ s)) fmt

(* The strategy, budget and initial tree of a Checkpoint payload, which
   holds exactly those lines in [start_payload]'s order: any other key,
   such as the frontier or counters a build with mid-run checkpoints
   wrote, makes the journal unreadable rather than misread. *)
let parse_start payload =
  let field key line =
    let prefix = key ^ ": " in
    if String.starts_with ~prefix line then
      String.sub line (String.length prefix) (String.length line - String.length prefix)
    else fail "expected the checkpoint field %S, found %S" key line
  in
  let number of_string key line =
    let v = field key line in
    match of_string v with Some n -> n | None -> fail "%s %S is not a number" key v
  in
  match String.split_on_char '\n' payload with
  | strategy :: calls :: seconds :: "tree:" :: tree ->
      let strategy =
        let s = field "strategy" strategy in
        match Frontier.strategy_of_string s with Some st -> st | None -> fail "unknown strategy %S" s
      in
      ( strategy,
        {
          max_analyzer_calls = number int_of_string_opt "max_calls" calls;
          max_seconds = number float_of_string_opt "max_seconds" seconds;
        },
        Tree.of_string (String.concat "\n" tree) )
  | _ -> fail "a checkpoint is strategy, max_calls and max_seconds lines, then tree:"

(* Whether a replayed [exhausted] verdict resumes the search: only under
   a budget other than the recorded one, with frontier nodes left, and
   with no Stuck node in the run — a stuck node was popped and never
   split, so continuing could finish [Proved] over a leaf nothing
   verified. *)
let continue_exhausted t ~budget_overridden =
  budget_overridden && Frontier.length t.frontier > 0 && t.counters.heuristic_failures = 0

type resume_info = {
  replayed_steps : int;
  replayed_calls : int;
  valid_bytes : int;
  dropped_bytes : int;
}

(* Re-apply one journaled step's events to the engine [create] built from
   the run's Checkpoint.  Replay is pure bookkeeping — no analyzer or LP
   runs: the journal records what the original run computed, every event
   advances the counters through [Trace.count] exactly as it did live,
   and the tree and frontier evolve exactly as they did live
   ({!Tree.of_string} restores the id counter, so replayed splits mint
   the same child ids).  The run clock moves back by each replayed
   analyzer call's seconds, so a resumed run does not regain time it
   spent, and a replayed verdict takes the elapsed time it recorded.  A
   replayed [exhausted] verdict the run continues past leaves the engine
   running and is left out of the counters, as the journal copy leaves
   out its Step.  [ended] records that a verdict was replayed.  Any
   divergence raises [Failure]: a diverging journal means
   the config fingerprint lied, and the caller turns it into [Error]. *)
let replay_events t ~nodes ~budget_overridden ~ended events =
  let find_node id =
    match Hashtbl.find_opt nodes id with
    | Some n -> n
    | None -> fail "journal references unknown node %d" id
  in
  let last_lb = ref neg_infinity in
  List.iter
    (fun ev ->
      if !ended then fail "journal has events after the terminal verdict";
      let uncounted = t.counters in
      t.counters <- Trace.count t.counters ev;
      match ev with
      | Trace.Dequeued { node; depth = _; frontier } -> (
          let now = Frontier.length t.frontier in
          if now <> frontier then
            fail "frontier length diverged at node %d (journal %d, engine %d)" node frontier now;
          match Frontier.pop t.frontier with
          | None -> fail "journal dequeues node %d from an empty frontier" node
          | Some n ->
              if Tree.node_id n <> node then
                fail "frontier order diverged (journal dequeued %d, engine popped %d)" node
                  (Tree.node_id n))
      | Trace.Analyzed { node; lb; seconds; _ } ->
          Tree.set_lb (find_node node) lb;
          last_lb := lb;
          t.started <- t.started -. seconds
      | Trace.Split { node; decision; left; right } ->
          let l, r = Tree.split t.tree (find_node node) decision in
          if Tree.node_id l <> left || Tree.node_id r <> right then
            fail "replayed split of node %d minted ids %d/%d where the journal recorded %d/%d" node
              (Tree.node_id l) (Tree.node_id r) left right;
          Hashtbl.replace nodes left l;
          Hashtbl.replace nodes right r;
          Frontier.push t.frontier ~priority:!last_lb l;
          Frontier.push t.frontier ~priority:!last_lb r
      | Trace.Pruned _ -> fail "unexpected pruner event in an engine journal"
      | Trace.Verdict { verdict; seconds; counterexample; _ } -> (
          ended := true;
          t.started <- Clock.monotonic () -. seconds;
          let finish_replayed verdict = t.finished <- Some (finished_run t verdict) in
          match (verdict, counterexample) with
          | "proved", None -> finish_replayed Proved
          | "exhausted", None ->
              if continue_exhausted t ~budget_overridden then t.counters <- uncounted
              else finish_replayed Exhausted
          | "disproved", Some x -> finish_replayed (Disproved x)
          | v, _ -> fail "malformed journaled verdict %S" v)
      | Trace.Lp_solved _ | Trace.Dual_closed _ | Trace.Stuck _ | Trace.Retried _
      | Trace.Fallback _ | Trace.Absorbed _ | Trace.Certified _ ->
          ())
    events

let resume ~analyzer ~heuristic ?config ?(trace = Trace.null) ?journal ~net ~prop data =
  let recovery = Journal.scan data in
  let info ~replayed_steps ~replayed_calls =
    {
      replayed_steps;
      replayed_calls;
      valid_bytes = recovery.Journal.valid_bytes;
      dropped_bytes = recovery.Journal.dropped_bytes;
    }
  in
  match Journal.last_run recovery.Journal.records with
  | [] -> Error "Engine.resume: no valid journal frames"
  | first :: rest -> (
      match
        (match first.Journal.kind with
        | Journal.Header ->
            if first.Journal.payload <> fingerprint ~net ~prop then
              fail
                "config fingerprint mismatch — the journal was written for a different network or \
                 property"
        | Journal.Step | Journal.Checkpoint -> fail "journal has no run header");
        match rest with
        | [] ->
            (* Killed before the Checkpoint frame landed: start fresh
               (nothing had happened yet). *)
            ( create ~analyzer ~heuristic ?config ~trace ?journal ~net ~prop (),
              info ~replayed_steps:0 ~replayed_calls:0 )
        | { Journal.kind = Journal.Checkpoint; payload } :: steps ->
            let strategy, recorded, tree = parse_start payload in
            let budget_overridden, config =
              match config with
              | Some c when c.budget <> recorded -> (true, { c with strategy })
              | Some c -> (false, { c with strategy; budget = recorded })
              | None -> (false, { default_config with strategy; budget = recorded })
            in
            let t = create ~analyzer ~heuristic ~config ~trace ~initial_tree:tree ~net ~prop () in
            let start = start_payload t in
            let nodes = Hashtbl.create 64 and ended = ref false in
            Tree.iter_nodes t.tree (fun n -> Hashtbl.replace nodes (Tree.node_id n) n);
            List.iter
              (fun (r : Journal.record) ->
                match r.kind with
                | Journal.Step ->
                    replay_events t ~nodes ~budget_overridden ~ended (step_events r.payload)
                | Journal.Header | Journal.Checkpoint ->
                    fail "%s frame after the run's Checkpoint" (Journal.kind_name r.kind))
              steps;
            (* The copy leaves out the budget-exhausted terminal Step the
               run continued past: it holds only that verdict. *)
            let continued = t.finished = None && !ended in
            let copied =
              List.filteri (fun i _ -> not (continued && i = List.length steps - 1)) steps
            in
            Option.iter
              (fun w ->
                attach t w ~start ~steps:(List.map (fun (r : Journal.record) -> r.payload) copied))
              journal;
            (t, info ~replayed_steps:(List.length steps) ~replayed_calls:(calls t))
        | _ :: _ -> fail "the run's Header is not followed by its Checkpoint"
      with
      | result -> Ok result
      | exception Failure msg -> Error msg
      | exception Invalid_argument msg -> Error ("Engine.resume: " ^ msg))
