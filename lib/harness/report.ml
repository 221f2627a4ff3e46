module Bab = Ivan_bab.Bab
module Ivan = Ivan_core.Ivan

type summary = {
  cases : int;
  base_solved : int;
  tech_solved : int;
  plus_solved : int;
  sp_time : float;
  sp_calls : float;
  geomean_time : float;
  geomean_calls : float;
}

let technique_measurement (c : Runner.comparison) technique = List.assoc technique c.Runner.techniques

let geomean = function
  | [] -> 1.0
  | xs ->
      let log_sum = List.fold_left (fun acc x -> acc +. log (Float.max 1e-12 x)) 0.0 xs in
      exp (log_sum /. float_of_int (List.length xs))

let summarize comparisons technique =
  let cases = List.length comparisons in
  let base_solved = ref 0 and tech_solved = ref 0 and plus_solved = ref 0 in
  let base_time = ref 0.0 and tech_time = ref 0.0 in
  let base_calls = ref 0 and tech_calls = ref 0 in
  let time_ratios = ref [] and call_ratios = ref [] in
  List.iter
    (fun (c : Runner.comparison) ->
      let tech = technique_measurement c technique in
      let base = c.Runner.baseline in
      if Runner.solved base then incr base_solved;
      if Runner.solved tech then incr tech_solved;
      if Runner.solved tech && not (Runner.solved base) then incr plus_solved;
      (* Overall speedup over the baseline-solved set, per the paper. *)
      if Runner.solved base then begin
        base_time := !base_time +. base.Runner.seconds;
        tech_time := !tech_time +. tech.Runner.seconds;
        base_calls := !base_calls + base.Runner.calls;
        tech_calls := !tech_calls + tech.Runner.calls;
        if tech.Runner.seconds > 0.0 then
          time_ratios := (base.Runner.seconds /. tech.Runner.seconds) :: !time_ratios;
        if tech.Runner.calls > 0 then
          call_ratios :=
            (float_of_int base.Runner.calls /. float_of_int tech.Runner.calls) :: !call_ratios
      end)
    comparisons;
  {
    cases;
    base_solved = !base_solved;
    tech_solved = !tech_solved;
    plus_solved = !plus_solved;
    sp_time = (if !tech_time > 0.0 then !base_time /. !tech_time else 1.0);
    sp_calls =
      (if !tech_calls > 0 then float_of_int !base_calls /. float_of_int !tech_calls else 1.0);
    geomean_time = geomean !time_ratios;
    geomean_calls = geomean !call_ratios;
  }

let verdict_counts measurements =
  List.fold_left
    (fun (v, c, u) (m : Runner.measurement) ->
      match m.Runner.verdict with
      | Bab.Proved -> (v + 1, c, u)
      | Bab.Disproved _ -> (v, c + 1, u)
      | Bab.Exhausted -> (v, c, u + 1))
    (0, 0, 0) measurements

let split_hard comparisons =
  List.partition (fun (c : Runner.comparison) -> c.Runner.original.Runner.tree_size <= 5) comparisons

let verdict_name (m : Runner.measurement) =
  match m.Runner.verdict with
  | Bab.Proved -> "verified"
  | Bab.Disproved _ -> "counterexample"
  | Bab.Exhausted -> "unknown"

let pp_engine_stats fmt (s : Bab.stats) =
  let share =
    if s.Bab.elapsed_seconds > 0.0 then
      100.0 *. s.Bab.analyzer_seconds /. s.Bab.elapsed_seconds
    else 0.0
  in
  Format.fprintf fmt
    "analyzer calls %d (%.3fs, %.0f%% of %.3fs)  branchings %d  tree %d/%d  frontier peak %d  \
     max depth %d"
    s.Bab.analyzer_calls s.Bab.analyzer_seconds share s.Bab.elapsed_seconds s.Bab.branchings
    s.Bab.tree_size s.Bab.tree_leaves s.Bab.max_frontier s.Bab.max_depth;
  if s.Bab.heuristic_failures > 0 then
    Format.fprintf fmt "  heuristic failures %d" s.Bab.heuristic_failures;
  if s.Bab.retries > 0 then Format.fprintf fmt "  retries %d" s.Bab.retries;
  if s.Bab.fallback_bounds > 0 then Format.fprintf fmt "  fallback bounds %d" s.Bab.fallback_bounds;
  if s.Bab.faults_absorbed > 0 then Format.fprintf fmt "  faults absorbed %d" s.Bab.faults_absorbed;
  if s.Bab.lp_warm_hits + s.Bab.lp_warm_misses + s.Bab.lp_cold_solves > 0 then
    Format.fprintf fmt "  LP solves %d warm / %d miss / %d cold (%d pivots)" s.Bab.lp_warm_hits
      s.Bab.lp_warm_misses s.Bab.lp_cold_solves s.Bab.lp_pivots;
  if s.Bab.certs_emitted + s.Bab.certs_unavailable > 0 then
    Format.fprintf fmt "  certificates %d emitted / %d unavailable" s.Bab.certs_emitted
      s.Bab.certs_unavailable

let to_csv comparisons =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    "instance,property,run,verdict,calls,seconds,tree_size,tree_leaves,retries,fallback_bounds,faults_absorbed\n";
  let row id name run (m : Runner.measurement) =
    Buffer.add_string buf
      (Printf.sprintf "%d,%s,%s,%s,%d,%.6f,%d,%d,%d,%d,%d\n" id name run (verdict_name m)
         m.Runner.calls m.Runner.seconds m.Runner.tree_size m.Runner.tree_leaves m.Runner.retries
         m.Runner.fallback_bounds m.Runner.faults_absorbed)
  in
  List.iter
    (fun (c : Runner.comparison) ->
      let id = c.Runner.instance.Workload.id in
      let name = c.Runner.instance.Workload.prop.Ivan_spec.Prop.name in
      row id name "original" c.Runner.original;
      row id name "baseline" c.Runner.baseline;
      List.iter
        (fun (technique, m) -> row id name (Ivan.technique_name technique) m)
        c.Runner.techniques)
    comparisons;
  Buffer.contents buf
