(** Paper experiment drivers.

    One function per table/figure of the evaluation (the per-experiment
    index of DESIGN.md).  Each prints the corresponding rows in a layout
    mirroring the paper and returns nothing; results are also cached in
    the context so experiments sharing a workload (Figures 6/7, Tables 2
    and 4) run it once. *)

type scale = {
  label : string;
  classifier_instances : int;  (** robustness properties per model *)
  classifier_budget : Ivan_bab.Bab.budget;
  acas_margins : float list;  (** hardness spread of ACAS properties *)
  acas_budget : Ivan_bab.Bab.budget;
  sweep_alphas : float list;  (** Figure 8 grid *)
  sweep_thetas : float list;
  sweep_instances : int;
  perturb_instances : int;  (** Table 3 instances per model *)
  perturb_fractions : float list;  (** Table 3 columns (0.02 = 2%) *)
}

val quick : scale
(** Tiny workload for smoke tests (a few instances per model). *)

val full : scale
(** The bench workload (defaults tuned to finish in minutes). *)

type context

val create :
  ?cache_dir:string -> ?domains:int -> ?strategy:Ivan_bab.Frontier.strategy -> scale -> context
(** [cache_dir] is the zoo weight cache (see {!Ivan_data.Zoo});
    [domains] (default 1) parallelizes instance runs across OCaml 5
    domains; [strategy] (default [Fifo]) is the frontier exploration
    order of every BaB run the experiments drive. *)

val table1 : context -> Format.formatter -> unit

val fig6 : context -> Format.formatter -> unit

val fig7 : context -> Format.formatter -> unit
(** Covers the paper's Figures 7 and 10 (all four conv models). *)

val table2 : context -> Format.formatter -> unit

val fig8 : context -> Format.formatter -> unit

val fig9 : context -> Format.formatter -> unit

val table3 : context -> Format.formatter -> unit

val table4 : context -> Format.formatter -> unit

val theorem4 : context -> Format.formatter -> unit
(** Empirical check of the §4.4 bound (not a paper table, but the
    theory's reproduction). *)

val milp_warmstart : context -> Format.formatter -> unit
(** The §7 related-work comparison: exact MILP verification of the
    updated network, cold vs. warm-started with the original network's
    optimal witness, vs. IVAN — reproducing the paper's observation that
    MILP warm starting yields insignificant incremental speedup. *)

val ablation_heuristics : context -> Format.formatter -> unit
(** IVAN's speedup under different branching heuristics (zonotope
    coefficients, bound widths, random) — the paper's claim that the
    framework is heuristic-agnostic. *)

val run_all : context -> Format.formatter -> unit
(** Every experiment in paper order. *)

val export_csv : context -> dir:string -> unit
(** Write every campaign cached in the context as a CSV file
    ([<model>-<scheme>.csv]) under [dir] (created if missing). *)
