(** The branch-and-bound verification engine (Algorithms 1 and 3) as an
    explicit-state stepper.

    {!create} builds the engine state — the specification tree, the
    frontier of unbounded leaves, counters — and {!step} processes
    exactly one frontier node: dequeue, bound with the analyzer, then
    verify / report a counterexample / branch.  Callers can drive the
    loop themselves (interleaving verification with other work,
    checkpointing, or cancelling via {!cancel}); {!run} steps to
    completion.  [Bab.verify] is a thin wrapper over [create] + [run]
    and keeps the historical interface.

    One {!config} value carries a run's settings; every step can be
    observed through a {!Trace.sink}.  The wall-clock budget is enforced
    centrally — one clock read every 8 steps rather than per node.  The
    run's counters are a
    {!Trace.aggregate} folded from the events the engine emits, so a
    trace and the run's {!stats} cannot disagree. *)

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
  journal_every : int;
      (** steps between journal Checkpoint frames — the bound on how
          many Step frames a resume must replay *)
}

val default_config : config
(** [Fifo], {!default_budget}, no policy, no certification, a journal
    Checkpoint frame every 32 steps. *)

type stats = {
  analyzer_calls : int;  (** bounding steps (the paper's Cost metric) *)
  branchings : int;  (** node branchings *)
  tree_size : int;  (** [|Nodes(T_f)|] *)
  tree_leaves : int;
  elapsed_seconds : float;
  analyzer_seconds : float;
      (** wall-clock spent inside analyzer calls, via the
          {!Ivan_analyzer.Analyzer.instrument} hook *)
  max_frontier : int;  (** largest frontier observed at a dequeue *)
  max_depth : int;  (** deepest node dequeued *)
  heuristic_failures : int;
      (** unsolved nodes the heuristic could not branch (numerical
          failure, reported distinctly from budget exhaustion) *)
  retries : int;  (** analyzer re-attempts made by the resilience layer *)
  fallback_bounds : int;
      (** nodes whose accepted bound came from a degraded (non-primary)
          analyzer in the fallback chain *)
  faults_absorbed : int;
      (** analyzer failures (exceptions or untrustworthy outcomes)
          swallowed instead of crashing the run *)
  lp_warm_hits : int;
      (** node LP solves that warm-started from the parent's simplex
          basis ({!Ivan_lp.Lp.solve_from} succeeded) *)
  lp_warm_misses : int;
      (** warm-start attempts that fell back to an internal cold solve *)
  lp_cold_solves : int;
      (** node LP solves that never attempted a warm start (root node,
          resumed checkpoints, a parent that solved no LP, an analyzer
          built with [~warm:false]) *)
  lp_pivots : int;  (** total simplex pivots across all node LP solves *)
  certs_emitted : int;
      (** verified leaves whose certificate passed the emission-time
          exact self-check and joined the proof artifact (0 unless the
          engine was created with [config.certify]) *)
  certs_unavailable : int;
      (** verified leaves with no checkable certificate — the analyzer
          produced none (non-LP verdict, fallback bound) or the exact
          self-check rejected the solver's multipliers *)
}

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
    frame with the run's config fingerprint is appended immediately,
    then each completed step appends exactly one Step frame (the step's
    trace events as JSONL — atomic, so a kill never journals half a
    step), and every [config.journal_every] steps — plus the terminal
    step — a Checkpoint frame folds the whole prefix.  A killed run resumes from
    its journal via {!resume} with at most one node of rework.
    Events produced while a journal is attached still reach [trace]
    unchanged.

    [config.certify] collects a proof certificate for every
    verified leaf: the analyzer's LP evidence (pass an analyzer built
    with the matching [certify] flag, e.g.
    [Analyzer.lp_triangle ~certify:true ()]) is re-checked in exact
    arithmetic on the spot and, if accepted, keyed to the leaf; the
    certificates are assembled into the run's [artifact] at completion.
    Leaves without acceptable evidence are counted in
    [stats.certs_unavailable] and traced as {!Trace.Certified} with kind
    ["unavailable"] — the engine never emits a certificate the
    independent checker would reject.
    @raise Invalid_argument if the property's box dimension does not
    match the network input, or if [config.journal_every <= 0]. *)

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

val calls : t -> int
(** Analyzer calls completed so far ([Trace.Analyzed] events counted). *)

val frontier_length : t -> int

val finished : t -> run option

val journal : t -> Ivan_resilience.Journal.writer option
(** The journal sink the engine writes to, if any. *)

(** {2 Checkpoint / resume}

    The write-ahead journal ({!Ivan_resilience.Journal}) is the engine's
    only persistence format.  An engine's complete resumable state —
    counters, budget, strategy, terminal state, frontier order, and the
    specification tree — is one Checkpoint frame; a standalone
    checkpoint is a journal holding a Header frame (the net/property
    {!fingerprint}) and that one Checkpoint frame.  The analyzer,
    heuristic, network, property, trace sink and the rest of the
    {!config} are code rather than state and are supplied again at
    {!resume} time; the
    resumed engine continues exactly where the state was taken (the
    elapsed-time clock resumes from the recorded value).

    Parked warm-start bases are deliberately {e not} persisted — they
    are a performance cache, not verification state — so the first LP
    solve of each resumed frontier node runs cold and the search
    proceeds identically otherwise.  Nor are leaf certificates: leaves
    verified before the checkpoint have no certificate in the resumed
    run, so a resumed [Proved] artifact fails
    {!Ivan_cert.Cert.check_artifact} with those leaves reported missing
    — certification honestly requires an uninterrupted run. *)

val checkpoint : t -> Ivan_resilience.Journal.writer -> unit
(** Append the engine's current state as a Checkpoint frame, preceded
    by a Header frame when the writer is still empty.  Safe at any
    point, including after completion (resuming a terminal checkpoint
    yields an engine whose {!finished} run is already set).  For a
    standalone snapshot, write into
    {!Ivan_resilience.Journal.to_buffer}. *)

(** {2 Resume}

    Recovery after a kill or from a snapshot:
    {!Ivan_resilience.Journal.scan} truncates the journal to its valid
    frame prefix, the engine is rebuilt from the newest Checkpoint
    frame, and the Step frames recorded after it replay as pure
    bookkeeping — no analyzer or LP calls; the tree, frontier and
    counters evolve exactly as the original run's trace says they did.
    Work is lost only for the step that was in flight when the process
    died (its Step frame never landed), so rework is bounded by one
    node. *)

type resume_info = {
  replayed_steps : int;  (** Step frames replayed onto the checkpoint *)
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
(** Rebuild an engine from raw journal bytes — a journal written by
    {!create}'s [journal] or a {!checkpoint} — taking the newest run in
    them, per {!Ivan_resilience.Journal.last_run}.  The Header
    fingerprint must match [net]/[prop]: resuming against the wrong
    problem is an [Error], as is a truncated, corrupt or otherwise
    malformed state and any replay divergence, so stale state can never
    silently corrupt a verdict.  No parse exception escapes.

    The recorded strategy and budget govern, except that a [config]
    whose budget differs from the recorded one overrides it (e.g. to
    grant a resumed run more time); the rest of [config] (default
    {!default_config}) applies as given.  All other recorded state —
    counters, frontier, tree — is taken from the checkpoint.  Terminal
    states stay terminal, with one exception: an [Exhausted] state
    resumed with an overriding budget and a non-empty frontier continues
    the search, so a run that ran out of budget can be granted more and
    continued.  When the journal died before its first Checkpoint frame
    landed, the run starts fresh under [config].

    A terminal [Disproved] step whose Checkpoint frame never landed is
    redone live rather than replayed (the journaled verdict event does
    not carry the counterexample vector) — the one case where resume
    re-runs the analyzer, still within the one-node rework bound.

    [journal], when supplied, continues journaling: a Header frame is
    written only if the sink is empty, then a Checkpoint of the resumed
    state.  To continue into the file the bytes came from, read it fully
    before opening it as the new sink —
    {!Ivan_resilience.Journal.open_file} truncates. *)

val degrade : t -> Ivan_analyzer.Analyzer.t -> (t, string) result
(** The engine's current state continued on another analyzer: a
    {!checkpoint} into a buffer, {!resume}d with the engine's own
    heuristic, config, trace sink, journal, network and property, so the
    fingerprint check stays on this path.  With a journal attached, the
    resumed engine appends a Checkpoint frame to it. *)

val fingerprint : net:Ivan_nn.Network.t -> prop:Ivan_spec.Prop.t -> string
(** The config digest stored in journal Header frames: an MD5 hex digest
    over the serialized network and the property's box, coefficients and
    offset. *)
