(** Aggregation of experiment results into the paper's metrics. *)

type summary = {
  cases : int;  (** instances considered *)
  base_solved : int;  (** solved by the from-scratch baseline *)
  tech_solved : int;
  plus_solved : int;  (** the paper's +Solved column *)
  sp_time : float;
      (** overall speedup: sum of baseline seconds over sum of technique
          seconds, restricted to baseline-solved cases (paper §6.2) *)
  sp_calls : float;  (** same ratio on analyzer calls *)
  geomean_time : float;  (** geometric mean of per-instance time speedups *)
  geomean_calls : float;
}

val summarize : Runner.comparison list -> Ivan_core.Ivan.technique -> summary
(** @raise Not_found if the technique was not measured. *)

val technique_measurement : Runner.comparison -> Ivan_core.Ivan.technique -> Runner.timed

val verdict_counts : Runner.timed list -> int * int * int
(** (verified, counterexample, unknown) — the paper's v/c/u columns. *)

val geomean : float list -> float
(** Geometric mean; 1.0 on the empty list. *)

val split_hard : Runner.comparison list -> Runner.comparison list * Runner.comparison list
(** Partition into easy ([|T_f^N| <= 5]) and hard instances by the
    original proof-tree size, as in the paper's Table 4. *)

val to_csv : Runner.comparison list -> string
(** Machine-readable per-instance results: one row per (instance,
    technique) pair plus the baseline, with verdicts, analyzer calls,
    seconds, tree sizes and resilience counters.  Starts with a header
    row. *)
