(** The branch-and-bound verification engine (Algorithms 1 and 3) as an
    explicit-state stepper.

    {!create} builds the engine state — the specification tree, the
    frontier of unbounded leaves, counters — and {!step} processes
    exactly one frontier node: dequeue, bound with the analyzer, then
    verify / report a counterexample / branch.  Callers can drive the
    loop themselves (interleaving verification with other work, or
    cancelling via {!cancel}); {!run} steps to
    completion.  {!Bab} is this module plus [Bab.verify], a thin wrapper
    over [create] + [run].

    One {!config} value carries a run's settings; every step can be
    observed through a {!Trace.sink}.  The wall-clock budget is enforced
    centrally — one clock read every 8 steps rather than per node.  The
    run's {!stats} are the {!Trace.aggregate} folded from the events the
    engine emits, so a trace and the run's statistics cannot disagree. *)

type budget = {
  max_analyzer_calls : int;
  max_seconds : float;  (** wall-clock limit; [infinity] disables it *)
}

val default_budget : budget
(** 10_000 analyzer calls, no time limit. *)

type config = {
  strategy : Frontier.strategy;
      (** node-selection order; [Fifo] is the exact breadth-first order
          of the original implementation *)
  budget : budget;
  policy : Ivan_analyzer.Analyzer.policy option;
      (** when set, hardens the analyzer with
          {!Ivan_analyzer.Analyzer.with_fallback} (see {!create}) *)
  certify : bool;  (** collect per-leaf proof certificates (see {!create}) *)
}

val default_config : config
(** [Fifo], {!default_budget}, no policy, no certification. *)

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
(** A run's statistics are the fold of its events ({!Trace.aggregate},
    where the fields are documented): [Trace.aggregate] over a run's full
    trace equals its [stats], floats included. *)

type verdict =
  | Proved
  | Disproved of Ivan_tensor.Vec.t  (** a concrete counterexample *)
  | Exhausted  (** budget ran out — the paper's "Unknown / timeout" *)

type run = {
  verdict : verdict;
  tree : Ivan_spectree.Tree.t;
  stats : stats;
  artifact : Ivan_cert.Cert.Artifact.t option;
      (** the run's proof artifact, present iff the engine was created
          with [config.certify] and the verdict is [Proved] or [Disproved];
          validate with {!Ivan_cert.Cert.check_artifact} — a [Proved]
          artifact is complete only when [stats.certs_unavailable = 0] *)
}

type t
(** Mutable engine state. *)

val create :
  analyzer:Ivan_analyzer.Analyzer.t ->
  heuristic:Heuristic.t ->
  ?config:config ->
  ?trace:Trace.sink ->
  ?journal:Ivan_resilience.Journal.writer ->
  ?initial_tree:Ivan_spectree.Tree.t ->
  net:Ivan_nn.Network.t ->
  prop:Ivan_spec.Prop.t ->
  unit ->
  t
(** [config] defaults to {!default_config}; [trace] to {!Trace.null}.
    The wall-clock budget is checked every 8 steps, always including the
    first, so a zero time budget exhausts before any analyzer call.
    [initial_tree] (default: a single root node) is copied, never
    mutated.

    [config.policy], when set, hardens the analyzer with
    {!Ivan_analyzer.Analyzer.with_fallback}: failures are retried, then
    degraded through cheaper analyzers, and counted into the run's
    [retries] / [fallback_bounds] / [faults_absorbed] stats and emitted
    as {!Trace.Retried} / {!Trace.Fallback} / {!Trace.Absorbed} events.
    Even without a policy the engine absorbs non-fatal analyzer
    exceptions, turning the node into an [Unknown] outcome rather than
    crashing the run.

    [journal], when supplied, turns on write-ahead journaling: a Header
    frame with the run's config fingerprint and a Checkpoint frame of
    what the run starts from (strategy, budget, initial tree) are appended
    immediately, then each completed step appends exactly one Step
    frame (the step's trace events, one {!Trace.event_to_string} line
    each — atomic, so a kill never journals half a step; the terminal step's
    ends in the {!Trace.Verdict}, counterexample included).  A killed run resumes
    from its journal via {!resume}, re-analyzing no node whose Step
    frame landed.  Events produced while a journal is attached still
    reach [trace] unchanged.

    [config.certify] collects a proof certificate for every
    verified leaf: the analyzer's LP evidence (pass an analyzer built
    with the matching [certify] flag, e.g.
    [Analyzer.lp_triangle ~certify:true ()]) is checked on the spot and,
    if accepted, keyed to the leaf; the certificates are assembled into
    the run's [artifact] at completion.  The check is the float
    {!Ivan_cert.Screen} first, which passes only evidence the exact
    checker is certain to accept, and {!Ivan_cert.Cert.check_leaf} only
    when the screen cannot decide; {!Trace.Certified} records which ran.
    Leaves without acceptable evidence are counted in
    [stats.certs_unavailable] and traced as {!Trace.Certified} with kind
    ["unavailable"] — the engine never emits a certificate the
    independent checker would reject.
    @raise Invalid_argument if the property's box dimension does not
    match the network input. *)

type status = Running | Finished of run

val step : t -> status
(** Process one frontier node.  Idempotent after completion: keeps
    returning the same [Finished] run. *)

val run : t -> run
(** Step until finished. *)

val cancel : t -> run
(** Finish immediately: emits the terminal trace event and returns an
    [Exhausted] run over the tree built so far (or the already-finished
    run).  Subsequent {!step} calls return it unchanged. *)

val tree : t -> Ivan_spectree.Tree.t
(** Live view of the specification tree being grown. *)

val analyzer : t -> Ivan_analyzer.Analyzer.t
(** The analyzer the engine runs now (the one it was created with or
    the last {!degrade} gave it), hardened by [config.policy] under its
    own name, which {!Ivan_analyzer.Analyzer.ladder} reads. *)

val calls : t -> int
(** Analyzer calls completed so far ([Trace.Analyzed] events counted). *)

val finished : t -> run option

(** {2 Resume}

    The write-ahead journal ({!Ivan_resilience.Journal}) is the engine's
    only persistence format.  A journaled run is a Header frame (the
    net/property {!fingerprint}), one Checkpoint frame of what the run
    starts from — its strategy, its budget and its initial specification
    tree — and one Step frame per completed step.  Nothing else is
    state: the frontier is the initial tree's leaves, pushed as {!create}
    pushes them, the counters start at zero, and the Steps carry the
    rest.  The analyzer, heuristic, network, property, trace sink and
    the rest of the {!config} are code rather than state and are
    supplied again at {!resume} time.

    Recovery after a kill: {!Ivan_resilience.Journal.scan} truncates the
    journal to its valid frame prefix, {!create} builds the engine from
    the Checkpoint, and every Step frame replays as pure bookkeeping — no
    analyzer or LP calls: the tree, frontier, counters and run clock
    advance as the original run's trace says they did, and a terminal
    step's verdict, counterexample included, ends the resumed run.  Only
    the step in flight when the process died is lost (its Step frame
    never landed); no node whose Step frame landed is analyzed again.

    Parked warm-start hints (a parent's basis and DeepPoly run) are
    deliberately {e not} journaled — they are a performance cache, not
    verification state — so each resumed frontier node's first analyzer
    call runs cold and the search proceeds identically otherwise.  Nor
    are leaf certificates: leaves verified before the kill have no
    certificate in the resumed run, so a resumed [Proved] artifact fails
    {!Ivan_cert.Cert.check_artifact} with those leaves reported missing
    — certification honestly requires an uninterrupted run. *)

type resume_info = {
  replayed_steps : int;  (** Step frames replayed onto the initial tree *)
  replayed_calls : int;  (** analyzer calls those steps recorded *)
  valid_bytes : int;  (** journal prefix accepted by recovery *)
  dropped_bytes : int;  (** torn / corrupt tail bytes discarded *)
}

val resume :
  analyzer:Ivan_analyzer.Analyzer.t ->
  heuristic:Heuristic.t ->
  ?config:config ->
  ?trace:Trace.sink ->
  ?journal:Ivan_resilience.Journal.writer ->
  net:Ivan_nn.Network.t ->
  prop:Ivan_spec.Prop.t ->
  string ->
  (t * resume_info, string) result
(** Rebuild an engine from raw journal bytes written through {!create}'s
    [journal], taking the newest run in them, per
    {!Ivan_resilience.Journal.last_run}, which must be a Header, one
    Checkpoint and Step frames.  The Header fingerprint must match
    [net]/[prop]: resuming against the wrong problem is an [Error], as
    is a truncated, corrupt or otherwise malformed Checkpoint (one with
    any field besides the strategy, budget and tree included) and any
    replay divergence, so stale state can never silently corrupt a
    verdict.  No parse exception escapes.

    The recorded strategy and budget govern, except that a [config]
    whose budget differs from the recorded one overrides it (e.g. to
    grant a resumed run more time); the rest of [config] (default
    {!default_config}) applies as given.  Terminal states stay terminal,
    with one exception: an [Exhausted] run resumed with an overriding
    budget continues the search when its frontier still holds nodes and
    no node ended it {!Trace.Stuck} (that node left the frontier
    unverified, so continuing could prove the property over it); the
    verdict it continues past is left out of its stats.  When the
    journal died before its Checkpoint frame landed, the run starts
    fresh under [config].

    [trace] receives every replayed event, less the verdict a budget
    override continued past, and then the resumed engine's own, so its
    {!Trace.aggregate} equals the resumed run's [stats].

    [journal], when supplied, receives a copy of the run: a Header, the
    Checkpoint with the budget now in force, and the replayed Step
    frames — less the terminal [exhausted] Step a budget override
    continued past — and then the resumed engine's own Steps, so the
    sink alone resumes the whole run.  To continue into the file the
    bytes came from, read it fully before opening it as the new sink —
    {!Ivan_resilience.Journal.open_file} truncates. *)

val journal_runs : string -> (Trace.event list list, string) result
(** Every run in raw journal bytes, oldest first, as its events in
    emission order: {!Ivan_resilience.Journal.scan} drops a torn tail, a
    Header frame opens a run and each Step frame adds its events, decoded
    as {!resume} decodes them.  A run's events fold ({!Trace.aggregate})
    to its [stats], a resumed run's journal copy included.  A Step frame
    before any Header, or one that does not decode, is an [Error]. *)

val degrade : t -> Ivan_analyzer.Analyzer.t -> unit
(** Continue the run on another analyzer, hardened by [config.policy]
    as {!create} hardens its own.  The tree, frontier, counters, run
    clock, journal and admitted certificates carry on; the parked
    warm-start hints, which belong to the old analyzer's LPs, are
    dropped. *)

val fingerprint : net:Ivan_nn.Network.t -> prop:Ivan_spec.Prop.t -> string
(** The config digest stored in journal Header frames: an MD5 hex digest
    over the network's architecture and the IEEE bit patterns of its
    weights and biases, the property's box, its coefficients and its
    offset. *)
