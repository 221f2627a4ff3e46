(** The IVAN incremental verification algorithm (paper Algorithm 5).

    Verifying an updated network [N^a] reuses the proof of the same
    property on the original [N]: the final specification tree of [N]'s
    run seeds [N^a]'s run ("reuse"), pruned of ineffective splits
    (Algorithm 4), while the branching heuristic is augmented with the
    observed split effectiveness ("reorder", Equation 7).  The four
    techniques of the paper's ablation (Table 2) are selectable. *)

type technique =
  | Baseline  (** from-scratch BaB on [N^a]: the non-incremental verifier *)
  | Reuse  (** [T_0 = T_f^N], heuristic unchanged *)
  | Reorder  (** [T_0] trivial, heuristic [H_Delta] *)
  | Full  (** [T_0 = pruned T_f^N] and [H_Delta] — the IVAN default *)

val technique_name : technique -> string

type config = {
  technique : technique;
  alpha : float;  (** Equation 7 mixing weight *)
  theta : float;  (** pruning / deprioritization threshold *)
  budget : Ivan_bab.Bab.budget;
  strategy : Ivan_bab.Frontier.strategy;
      (** frontier exploration order of every BaB run this config
          drives; [Fifo] reproduces the paper's breadth-first order *)
  policy : Ivan_analyzer.Analyzer.policy;
      (** resilience policy of every BaB run this config drives: retry /
          fallback / node-timeout behavior on analyzer failures *)
  certify : bool;
      (** collect exact-checked proof certificates on every BaB run this
          config drives (see {!Ivan_bab.Bab.verify}); pair with an
          analyzer built with its matching [certify] flag *)
  journal : Ivan_resilience.Journal.writer option;
      (** write-ahead journal sink shared by every BaB run this config
          drives — successive runs append under their own Header frames,
          and {!Ivan_resilience.Journal.last_run} recovers the newest
          one after a crash (see {!Ivan_bab.Engine.resume}) *)
}

val default_config : config
(** [Full] with [alpha = 0.25], [theta = 0.01] (the best cell of the
    paper's Figure 8 sweep), the default BaB budget, the [Fifo]
    frontier, {!Ivan_analyzer.Analyzer.default_policy}, certification
    off and no journal. *)

val engine_config : config -> Ivan_bab.Engine.config
(** The engine settings of every BaB run [config] drives: its strategy,
    budget, policy and certification. *)

val verify_original :
  analyzer:Ivan_analyzer.Analyzer.t ->
  heuristic:Ivan_bab.Heuristic.t ->
  config:config ->
  net:Ivan_nn.Network.t ->
  prop:Ivan_spec.Prop.t ->
  Ivan_bab.Bab.run
(** Step 1 of Algorithm 5: plain BaB on [N] under [config] (its
    technique and hyperparameters play no part), producing [T_f^N].  On
    [N^a] it is the from-scratch baseline. *)

val verify_updated :
  analyzer:Ivan_analyzer.Analyzer.t ->
  heuristic:Ivan_bab.Heuristic.t ->
  config:config ->
  original_run:Ivan_bab.Bab.run ->
  updated:Ivan_nn.Network.t ->
  prop:Ivan_spec.Prop.t ->
  Ivan_bab.Bab.run
(** Steps 2–4: build [T_0^{N^a}] and [H_Delta] according to the
    technique, then run the incremental verifier on [N^a].  The
    original run may be shared across techniques and updates, and may
    be an interrupted one (only its tree is read) or one recovered from
    its journal in a later process by {!Ivan_bab.Engine.resume}. *)

type result = { original : Ivan_bab.Bab.run; updated : Ivan_bab.Bab.run }

val verify_incremental :
  analyzer:Ivan_analyzer.Analyzer.t ->
  heuristic:Ivan_bab.Heuristic.t ->
  ?config:config ->
  net:Ivan_nn.Network.t ->
  updated:Ivan_nn.Network.t ->
  prop:Ivan_spec.Prop.t ->
  unit ->
  result
(** The full Algorithm 5 pipeline.
    @raise Invalid_argument if the two networks differ in architecture
    (the specification tree is only replayable on the same
    architecture). *)
