(** Deterministic kill/resume chaos testing for journaled runs.

    The harness runs a workload once, uninterrupted, journaling into an
    in-memory buffer while recording every append's byte boundary and
    the engine's analyzer-call counter at that moment ({!golden}).  A
    simulated kill is then just a truncation of those golden bytes —
    journal frames are flushed as they are appended, so the bytes a dead
    process leaves on disk are exactly a prefix of the golden journal
    (plus, for a kill mid-write, part of one more frame):

    - {e kill-at-append k}: truncate at the k-th frame boundary;
    - {e torn write}: truncate inside the final frame, at every byte
      offset, exercising CRC/length/magic rejection on real data;
    - {e bit flip}: corrupt one byte of a frame, which must truncate
      recovery at that frame, never crash it.

    Each schedule resumes from the truncated bytes via
    [Engine.resume], runs to completion, and asserts against the
    golden run: identical verdict (including the counterexample vector),
    identical stats on every deterministic counter, every node's lower
    bound bit for bit, and — what the journal exists to provide — no
    rework: the analyzer calls recorded in the surviving prefix are
    exactly the calls the resumed engine starts from. *)

module Engine = Ivan_bab.Engine
module Analyzer = Ivan_analyzer.Analyzer

type workload = {
  name : string;
  net : Ivan_nn.Network.t;
  prop : Ivan_spec.Prop.t;
  analyzer : unit -> Analyzer.t;
      (** fresh analyzer per run, so no solver state leaks across trials *)
  heuristic : Ivan_bab.Heuristic.t;
  config : Engine.config;  (** of the golden run and every resume *)
  initial_tree : Ivan_spectree.Tree.t option;
      (** the tree the golden run starts from, as an incremental run
          starts from its pruned predecessor; [None] is a single root *)
}

val workload :
  name:string ->
  net:Ivan_nn.Network.t ->
  prop:Ivan_spec.Prop.t ->
  analyzer:(unit -> Analyzer.t) ->
  heuristic:Ivan_bab.Heuristic.t ->
  ?config:Engine.config ->
  ?initial_tree:Ivan_spectree.Tree.t ->
  unit ->
  workload
(** Defaults: {!Engine.default_config}, a single root. *)

type golden = {
  run : Engine.run;
  journal : string;  (** the full journal bytes of the clean run *)
  boundaries : (int * int) list;
      (** per append, oldest first: (byte offset after the frame,
          engine analyzer calls at that moment) *)
}

val golden : workload -> golden
(** The uninterrupted reference run. *)

val verdict_name : Engine.verdict -> string

type failure = { workload : string; schedule : string; reason : string }

type report = {
  workloads : int;
  schedules : int;  (** kill/torn/flip trials executed *)
  resumed : int;  (** trials that recovered a non-empty journal *)
  fresh_restarts : int;  (** trials whose journal had no usable frame *)
  reworked_nodes : int;  (** total nodes re-analyzed across all trials *)
  failures : failure list;
}

val run_workload : workload -> report
(** The full schedule matrix for one workload: a kill at every append
    boundary, a torn tail at every byte offset of the final frame, a
    flip of every frame's first payload byte, and a double-kill chain
    (kill, resume journaling into a fresh journal, kill that one
    mid-run, resume again), whose rework both resumes count. *)

val run_matrix : workload list -> report
(** {!run_workload} over a suite, with merged counts. *)

val pp_report : Format.formatter -> report -> unit
