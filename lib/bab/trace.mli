(** Structured event stream of a verification run.

    The {!Engine} (and the tree pruner) emit one {!event} per observable
    step of branch and bound; a {!sink} decides where events go — thrown
    away ([null]), kept in a bounded in-memory buffer ([ring]), handed
    to a callback ([hook]), or written as JSON Lines to a file
    ({!with_jsonl_file}).  A recorded JSONL trace {!read_jsonl}s back into
    the same events, and {!aggregate} folds any event list into the
    run's summary statistics — so a trace file is a complete,
    machine-readable account of where the verifier spent its effort. *)

type event =
  | Dequeued of { node : int; depth : int; frontier : int }
      (** a node left the frontier; [frontier] is the frontier length
          including this node, [depth] its tree depth *)
  | Analyzed of { node : int; status : string; lb : float; seconds : float }
      (** an analyzer call bounded the node's subproblem ([status] is
          [verified], [counterexample] or [unknown]) *)
  | Lp_solved of {
      node : int;
      warm_hits : int;
      warm_misses : int;
      cold_solves : int;
      pivots : int;
      factor_pivots : int;
    }
      (** the analyzer call solved LPs: how many warm-started from a
          parent basis, how many warm attempts fell back to cold, how
          many never attempted one (crash-started or not), the total
          simplex pivots, and the pivots [pivots] leaves out —
          refactorizations of the basis that answered (a parent or crash
          basis), plus everything the attempts a solve abandoned spent:
          a warm attempt before the crash or slack basis answered, a
          crash start before the slack basis did *)
  | Dual_closed of { node : int }
      (** the analyzer closed the node with the multipliers that
          verified it in an earlier run (a seed leaf of an incremental
          run), carried onto its LP, with no simplex solve *)
  | Split of { node : int; decision : Ivan_spectree.Decision.t; left : int; right : int }
      (** the node branched into children [left]/[right] *)
  | Pruned of { node : int }  (** reuse-prune: an ineffective split was skipped *)
  | Stuck of { node : int }
      (** the heuristic produced no decision on an unsolved node — a
          numerical failure, not budget exhaustion *)
  | Retried of { node : int; analyzer : string; attempt : int; reason : string }
      (** the resilience layer re-attempted a failing analyzer *)
  | Fallback of { node : int; analyzer : string; reason : string }
      (** a degraded (non-primary) analyzer's bound was accepted *)
  | Absorbed of { node : int; analyzer : string; reason : string }
      (** an analyzer failure was swallowed instead of crashing the run *)
  | Certified of { node : int; kind : string; exact : bool }
      (** certificate collection on a verified leaf: [kind] is ["dual"]
          or ["farkas"] when a checkable certificate was emitted, and
          ["unavailable"] when the leaf's verdict carried none (or the
          emission-time exact check rejected it); [exact] says the
          float screen could not decide, so the exact check ran *)
  | Verdict of {
      verdict : string;
      calls : int;
      seconds : float;
      nodes : int;
      leaves : int;
      counterexample : float array option;
    }
      (** terminal event: [proved], [disproved] or [exhausted];
          [seconds] is the run's elapsed time, [nodes] and [leaves] the
          final specification tree's (seed nodes included), and
          [counterexample] the concrete violating input, present exactly
          when [disproved] *)

type sink

val null : sink
(** Discards everything (the default; tracing costs nothing). *)

val ring : capacity:int -> sink
(** Keeps the most recent [capacity] events in memory.
    @raise Invalid_argument if [capacity <= 0]. *)

val ring_contents : sink -> event list
(** Buffered events, oldest first; [[]] for non-ring sinks. *)

val hook : (event -> unit) -> sink

val emit : sink -> event -> unit

val with_jsonl_file : string -> (sink -> 'a) -> 'a
(** [with_jsonl_file path f] opens [path], runs [f] with a JSONL sink
    writing to it, and closes the file (also on exceptions). *)

val event_to_json : event -> string
(** One-line JSON object; floats round-trip exactly (non-finite values
    are encoded as the strings ["nan"], ["inf"], ["-inf"]), the
    counterexample as an array of them.  Durations ([seconds]) print as
    fixed-width [%.16e] tokens, so an event's length does not depend on
    timing. *)

val event_of_json : string -> event
(** Inverse of {!event_to_json}.  @raise Failure on malformed input. *)

val read_jsonl : string -> event list
(** Parse a file of {!event_to_json} lines (blank lines are skipped). *)

type aggregate = {
  events : int;
  analyzer_calls : int;  (** [Analyzed] events: the paper's Cost metric *)
  analyzer_seconds : float;
      (** summed analyzer time: each call timed around the hardened
          analyzer, so retries, degraded attempts and a call that raised
          count too *)
  branchings : int;  (** [Split] events *)
  tree_size : int;  (** [|Nodes(T_f)|], from the [Verdict] event *)
  tree_leaves : int;  (** from the [Verdict] event *)
  elapsed_seconds : float;  (** the run's wall time, from the [Verdict] event *)
  pruned : int;  (** [Pruned] events *)
  heuristic_failures : int;
      (** [Stuck] events: unsolved nodes the heuristic could not branch
          (numerical failure, reported distinctly from budget
          exhaustion) *)
  retries : int;  (** [Retried] events *)
  fallback_bounds : int;
      (** [Fallback] events: nodes whose accepted bound came from a
          degraded analyzer *)
  faults_absorbed : int;
      (** [Absorbed] events: analyzer failures (exceptions or
          untrustworthy outcomes) swallowed instead of crashing the run *)
  max_frontier : int;  (** largest frontier observed at a dequeue *)
  max_depth : int;  (** deepest node dequeued *)
  lp_warm_hits : int;
      (** summed from [Lp_solved] events: node LP solves warm-started
          from the parent's basis *)
  lp_warm_misses : int;  (** warm attempts that fell back to a cold solve *)
  lp_cold_solves : int;
      (** node LP solves that never attempted a warm start (the root,
          the first solves after a resume or [Engine.degrade], a parent
          that solved no LP, an analyzer built with [~warm:false]) *)
  lp_pivots : int;  (** total simplex pivots across node LP solves *)
  lp_factor_pivots : int;
      (** refactorization and abandoned-start pivots [lp_pivots] leaves
          out (see [Lp_solved]) *)
  lp_hit_pivots : int;
      (** [pivots + factor_pivots] of the [Lp_solved] events whose solves
          were all warm hits: what answering from a parent basis cost *)
  lp_hit_solves : int;
      (** the warm hits of those events; {!pp_aggregate} sets
          [lp_hit_pivots / lp_hit_solves] beside the pivots per other
          solve (cold solves and warm misses) *)
  dual_closures : int;
      (** [Dual_closed] events: nodes closed by carried multipliers
          without a simplex solve *)
  certs_emitted : int;
      (** [Certified] events with an emitted certificate: verified
          leaves whose certificate passed the emission-time check *)
  certs_unavailable : int;
      (** [Certified] events with kind ["unavailable"]: verified leaves
          left without a checkable certificate *)
  cert_exact_checks : int;
      (** [Certified] events whose emission fell back to the exact
          check; the rest were admitted by the float screen *)
  verdict : string option;  (** from the [Verdict] event *)
}
(** A run's statistics.  Folded over several runs' events, every count,
    the elapsed time and the tree sizes add up, and [verdict] is the
    last run's. *)

val empty_aggregate : aggregate
(** All counters zero, no verdict. *)

val count : aggregate -> event -> aggregate
(** Fold one event into the counters.  This is the only counter logic:
    the {!Engine} keeps its run's statistics as an [aggregate] advanced
    by [count] on every event it emits or replays from a journal. *)

val aggregate : event list -> aggregate
(** [List.fold_left count empty_aggregate].  On a full engine trace this
    is the run's {!Engine.stats}, floats included. *)

val pp_aggregate : Format.formatter -> aggregate -> unit
(** One line: analyzer calls and their share of the elapsed time,
    splits, the tree's nodes and leaves, frontier peak and depth, then
    the non-zero resilience, LP, closure and certificate counters and
    the verdict. *)
