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

let stats (t : Runner.timed) = t.Runner.run.Bab.stats

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
        let base_c = Runner.calls base and tech_c = Runner.calls tech in
        base_time := !base_time +. base.Runner.seconds;
        tech_time := !tech_time +. tech.Runner.seconds;
        base_calls := !base_calls + base_c;
        tech_calls := !tech_calls + tech_c;
        if tech.Runner.seconds > 0.0 then
          time_ratios := (base.Runner.seconds /. tech.Runner.seconds) :: !time_ratios;
        if tech_c > 0 then
          call_ratios := (float_of_int base_c /. float_of_int tech_c) :: !call_ratios
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

let verdict_counts runs =
  List.fold_left
    (fun (v, c, u) (t : Runner.timed) ->
      match t.Runner.run.Bab.verdict with
      | Bab.Proved -> (v + 1, c, u)
      | Bab.Disproved _ -> (v, c + 1, u)
      | Bab.Exhausted -> (v, c, u + 1))
    (0, 0, 0) runs

let split_hard comparisons =
  List.partition (fun (c : Runner.comparison) -> (stats c.Runner.original).tree_size <= 5) comparisons

let verdict_name (t : Runner.timed) =
  match t.Runner.run.Bab.verdict with
  | Bab.Proved -> "verified"
  | Bab.Disproved _ -> "counterexample"
  | Bab.Exhausted -> "unknown"

let to_csv comparisons =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    "instance,property,run,verdict,calls,seconds,tree_size,tree_leaves,retries,fallback_bounds,faults_absorbed\n";
  let row id name run (t : Runner.timed) =
    let s = stats t in
    Buffer.add_string buf
      (Printf.sprintf "%d,%s,%s,%s,%d,%.6f,%d,%d,%d,%d,%d\n" id name run (verdict_name t)
         s.analyzer_calls t.Runner.seconds s.tree_size s.tree_leaves s.retries s.fallback_bounds
         s.faults_absorbed)
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
