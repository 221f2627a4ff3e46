(* The IVAN benchmark.

     main.exe warm
       Train every workload's model into the zoo cache (IVAN_ZOO_CACHE),
       so that no timed run trains.
     main.exe run --workload NAME --seed N --seconds S --trace 0|1 --out DIR [--smoke]
       Run one workload.  With --trace 0, repeat whole passes over the
       seed's instances for S seconds and report the end-to-end metrics
       as medians over passes.  With --trace 1, make one untraced and one
       traced pass and report the per-layer metrics, writing the spans to
       DIR/spans-NAME-seedN.jsonl.

   The last line of standard output is one JSON object with the keys
   correct, attempted, failed and metrics.  perfbench/run.py builds this
   program and checks that object against BENCHMARK.json. *)

module Clock = Ivan_clock.Clock
module Zoo = Ivan_data.Zoo
module Counters = Pass.Counters

(* Every metric the benchmark reports, with its unit. *)
let end_to_end =
  [
    ("setup_s", "s");
    ("original_s", "s");
    ("baseline_s", "s");
    ("ivan_s", "s");
    ("baseline_calls", "count");
    ("ivan_calls", "count");
    ("peak_heap_mb", "MiB");
  ]

let per_layer =
  [
    ("bab.steps", "count");
    ("bab.self_s", "s");
    ("bab.max_frontier", "count");
    ("bab.tree_nodes", "count");
    ("heuristic.calls", "count");
    ("heuristic.s", "s");
    ("heuristic.stuck", "count");
    ("analyzer.calls", "count");
    ("analyzer.busy_s", "s");
    ("analyzer.lp_free_calls", "count");
    ("analyzer.retries", "count");
    ("analyzer.fallback_bounds", "count");
    ("analyzer.faults_absorbed", "count");
    ("deeppoly.calls", "count");
    ("deeppoly.s", "s");
    ("zonotope.calls", "count");
    ("zonotope.s", "s");
    ("encoding.specialize_s", "s");
    ("encoding.mismatches", "count");
    ("lp.solves", "count");
    ("lp.pivots", "count");
    ("lp.warm_hits", "count");
    ("lp.warm_misses", "count");
    ("lp.cold_solves", "count");
    ("lp.warm_hit_rate", "ratio");
    ("lp.simplex_s", "s");
    ("core.prep_s", "s");
    ("core.seed_leaves", "count");
    ("core.pruned", "count");
    ("core.reuse_closed_rate", "ratio");
    ("core.calls_saved", "count");
    ("cert.emitted", "count");
    ("cert.unavailable", "count");
    ("cert.check_s", "s");
    ("cert.artifact_bytes", "bytes");
    ("journal.frames", "count");
    ("journal.bytes", "bytes");
    ("journal.write_s", "s");
    ("gc.minor_mwords", "Mwords");
    ("gc.major_collections", "count");
    ("trace.overhead_s", "s");
    ("trace.overhead_frac", "ratio");
  ]

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let sum = List.fold_left ( +. ) 0.0

let ratio a b = if b = 0.0 then 0.0 else a /. b

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v else Printf.sprintf "%.17g" v

(* The result line, checked against the metric table it claims to fill. *)
let print_result ~table ~correct ~attempted ~failed values =
  List.iter
    (fun (name, _) ->
      match List.assoc_opt name values with
      | Some v when Float.is_finite v -> ()
      | _ -> failwith (Printf.sprintf "metric %s missing or not finite" name))
    table;
  let metrics =
    List.map
      (fun (name, unit) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number (List.assoc name values)) unit)
      table
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    attempted failed (String.concat ", " metrics)

let report_problems (r : Pass.result) =
  List.iter (fun p -> Printf.printf "CHECK FAILED %s\n" p) r.Pass.problems

let fingerprint_digest (r : Pass.result) = Digest.to_hex (Digest.string (String.concat "\n" r.Pass.fingerprint))

(* Set up from scratch at least [reps] times, and more while they have
   taken under a second (at most 25), keeping the last set-up.  Set-up
   time is the median, each scaled like a phase. *)
let timed_setup w ~seed ~smoke ~reps =
  let rec go times spent =
    let kernel = Reference.time () in
    let s, secs = Clock.timed (fun () -> Workload.setup w ~seed ~smoke) in
    let times = (secs *. Reference.scale ~exponent:w.Workload.slowdown_exponent kernel) :: times in
    let spent = spent +. secs in
    let n = List.length times in
    if n >= 25 || (n >= reps && spent >= 1.0) then (median times, n, s) else go times spent
  in
  go [] 0.0

let untraced w s ~wal = Pass.run (Pass.create w s ~traced:false ~wal)

let end_to_end_run (w : Workload.t) ~seed ~seconds ~smoke ~wal =
  let started = Clock.monotonic () in
  let setup_s, setups, s = timed_setup w ~seed ~smoke ~reps:3 in
  let n = List.length s.Workload.instances in
  (* The first pass in a process grows the heap and runs slower than the
     rest: it warms up, is checked, and is not timed.  Then a closed loop
     runs whole passes back to back until the next one would overrun the
     measuring time (which includes the set-ups); always at least one. *)
  let warmup = untraced w s ~wal in
  let rec loop acc =
    let r, secs = Clock.timed (fun () -> untraced w s ~wal) in
    let acc = r :: acc in
    let elapsed = Clock.monotonic () -. started in
    if smoke || elapsed +. secs > seconds then List.rev acc else loop acc
  in
  let passes = loop [] in
  let first = List.hd passes in
  let checked = warmup :: passes in
  let problems = List.concat_map (fun r -> r.Pass.problems) checked in
  let repeat_ok = List.for_all (fun r -> r.Pass.fingerprint = first.Pass.fingerprint) checked in
  List.iter report_problems checked;
  if not repeat_ok then print_endline "CHECK FAILED work fingerprint differs between passes";
  let attempted = List.fold_left (fun a r -> a + r.Pass.attempted) 0 checked in
  let failed = List.fold_left (fun a r -> a + r.Pass.failed) 0 checked in
  let raw k = List.map (fun r -> r.Pass.seconds.(k)) passes in
  (* Phase seconds at the reference kernel's nominal speed. *)
  let phase k = List.map (fun (r : Pass.result) -> r.Pass.scaled.(k)) passes in
  let calls k = float_of_int first.Pass.calls.(k) in
  let heap_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. (1024.0 *. 1024.0)
  in
  let values =
    [
      ("setup_s", setup_s);
      ("original_s", median (phase 0));
      ("baseline_s", median (phase 1));
      ("ivan_s", median (phase 2));
      ("baseline_calls", calls 1);
      ("ivan_calls", calls 2);
      ("peak_heap_mb", heap_mb);
    ]
  in
  Printf.printf
    "workload %s  seed %d  instances %d  timed passes %d after one warm-up  (training excluded: models come from the zoo cache)\n"
    w.Workload.name seed n (List.length passes);
  List.iteri
    (fun k name ->
      let xs = phase k in
      Printf.printf "  %-14s %10.4f s   passes %s   wall median %.4f\n" (name ^ "_s") (median xs)
        (String.concat " " (List.map (Printf.sprintf "%.4f") xs))
        (median (raw k)))
    (Array.to_list Pass.phases);
  Printf.printf "  %-14s %s   (nominal %.6f s; phase seconds scaled by (nominal / kernel)^%g)\n"
    "kernel_s" (String.concat " " (List.map (fun (r : Pass.result) -> Printf.sprintf "%.6f" r.Pass.reference) passes))
    Reference.nominal w.Workload.slowdown_exponent;
  Printf.printf "  %-14s %10.4f s   median of %d set-ups\n" "setup_s" setup_s setups;
  Printf.printf "  %-14s %10.0f     original %.0f\n" "baseline_calls" (calls 1) (calls 0);
  Printf.printf "  %-14s %10.0f\n" "ivan_calls" (calls 2);
  Printf.printf "  %-14s %10.1f MiB\n" "peak_heap_mb" heap_mb;
  if w.Workload.certify then
    Printf.printf "  %-14s %10.4f s   (median over passes)\n" "cert_check_s"
      (median (List.map (fun r -> r.Pass.cert_check_s) passes));
  Printf.printf "  %-14s %10.4f     = %d failed / %d attempted runs\n" "failed_frac"
    (ratio (float_of_int failed) (float_of_int attempted)) failed attempted;
  Printf.printf "  speedup_time   %10.3f     base: baseline_s / ivan_s = %.4f / %.4f\n"
    (ratio (median (phase 1)) (median (phase 2))) (median (phase 1)) (median (phase 2));
  Printf.printf "  speedup_calls  %10.3f     base: baseline_calls / ivan_calls = %.0f / %.0f\n"
    (ratio (calls 1) (calls 2)) (calls 1) (calls 2);
  Printf.printf "  fingerprint    %s  (%s across passes)\n" (fingerprint_digest first)
    (if repeat_ok then "repeats" else "DIFFERS");
  List.iter (fun l -> Printf.printf "    %s\n" l) first.Pass.fingerprint;
  let correct = problems = [] && repeat_ok in
  print_result ~table:end_to_end ~correct ~attempted ~failed values;
  correct

let per_layer_run (w : Workload.t) ~seed ~smoke ~wal ~out =
  let _, _, s = timed_setup w ~seed ~smoke ~reps:1 in
  (* The first pass in a process grows the heap and runs slower; the
     untraced pass the traced one is compared with comes after it. *)
  let warmup = untraced w s ~wal in
  let gc0 = Gc.quick_stat () in
  let plain = untraced w s ~wal in
  let gc1 = Gc.quick_stat () in
  Spans.reset ();
  let ctx = Pass.create w s ~traced:true ~wal in
  let traced = Spans.with_span "workload" (fun () -> Pass.run ctx) in
  let c = traced.Pass.counters in
  let spans = Spans.all () in
  let self = Spans.self_times spans in
  let total ?(replayed = false) ?(f = Spans.duration) name =
    sum (List.filter_map (fun (sp : Spans.t) -> if sp.Spans.name = name && sp.Spans.replayed = replayed then Some (f sp) else None) spans)
  in
  let plain_s = Array.fold_left ( +. ) 0.0 plain.Pass.seconds in
  let traced_s = Array.fold_left ( +. ) 0.0 traced.Pass.seconds in
  let get = Counters.get c in
  let values =
    [
      ("bab.steps", get "bab.steps");
      ("bab.self_s", total ~f:self "bab.run");
      ("bab.max_frontier", get "bab.max_frontier");
      ("bab.tree_nodes", get "bab.tree_nodes");
      ("heuristic.calls", get "heuristic.calls");
      ("heuristic.s", total "heuristic.call");
      ("heuristic.stuck", get "heuristic.stuck");
      ("analyzer.calls", get "analyzer.calls");
      ("analyzer.busy_s", total "analyzer.call");
      ("analyzer.lp_free_calls", get "analyzer.lp_free_calls");
      ("analyzer.retries", get "analyzer.retries");
      ("analyzer.fallback_bounds", get "analyzer.fallback_bounds");
      ("analyzer.faults_absorbed", get "analyzer.faults_absorbed");
      ("deeppoly.calls", get "deeppoly.calls");
      ("deeppoly.s", total ~replayed:true "deeppoly");
      ("zonotope.calls", get "zonotope.calls");
      ("zonotope.s", total ~replayed:true "zonotope");
      ("encoding.specialize_s", total ~replayed:true "encoding");
      ("encoding.mismatches", get "encoding.mismatches");
      ("lp.solves", float_of_int !Pass.lp_solves);
      ("lp.pivots", get "lp.pivots");
      ("lp.warm_hits", get "lp.warm_hits");
      ("lp.warm_misses", get "lp.warm_misses");
      ("lp.cold_solves", get "lp.cold_solves");
      ("lp.warm_hit_rate", ratio (get "lp.warm_hits") (float_of_int !Pass.lp_solves));
      ("lp.simplex_s", total ~f:self "analyzer.call");
      ("core.prep_s", total "core.prep");
      ("core.seed_leaves", get "core.seed_leaves");
      ("core.pruned", get "core.pruned");
      ("core.reuse_closed_rate", ratio (get "core.closed_leaves") (get "core.seed_leaves"));
      ("core.calls_saved", get "core.calls_saved");
      ("cert.emitted", get "cert.emitted");
      ("cert.unavailable", get "cert.unavailable");
      ("cert.check_s", total "cert.check");
      ("cert.artifact_bytes", get "cert.artifact_bytes");
      ("journal.frames", get "journal.frames");
      ("journal.bytes", get "journal.bytes");
      ("journal.write_s", total "journal.append");
      ("gc.minor_mwords", (gc1.Gc.minor_words -. gc0.Gc.minor_words) /. 1e6);
      ("gc.major_collections", float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections));
      ("trace.overhead_s", traced_s -. plain_s);
      ("trace.overhead_frac", ratio (traced_s -. plain_s) plain_s);
    ]
  in
  let path = Filename.concat out (Printf.sprintf "spans-%s-seed%d.jsonl" w.Workload.name seed) in
  Spans.to_jsonl path spans;
  List.iter report_problems [ warmup; plain; traced ];
  let same =
    warmup.Pass.fingerprint = plain.Pass.fingerprint && plain.Pass.fingerprint = traced.Pass.fingerprint
  in
  if not same then print_endline "CHECK FAILED traced pass did different work from the untraced pass";
  Printf.printf "workload %s  seed %d  instances %d  traced pass (%d spans in %s)\n" w.Workload.name seed
    (List.length s.Workload.instances) (List.length spans) path;
  List.iter (fun (name, unit) -> Printf.printf "  %-26s %14.6g %s\n" name (List.assoc name values) unit) per_layer;
  Printf.printf "  bases: lp.warm_hit_rate = lp.warm_hits / lp.solves; core.reuse_closed_rate = closed seed leaves / core.seed_leaves;\n";
  Printf.printf "         core.calls_saved of baseline_calls %.0f; trace.overhead_frac of untraced phases %.4f s (traced %.4f s)\n"
    (float_of_int traced.Pass.calls.(1)) plain_s traced_s;
  let passes = [ warmup; plain; traced ] in
  let correct = same && List.for_all (fun r -> r.Pass.problems = []) passes in
  print_result ~table:per_layer ~correct
    ~attempted:(List.fold_left (fun a r -> a + r.Pass.attempted) 0 passes)
    ~failed:(List.fold_left (fun a r -> a + r.Pass.failed) 0 passes)
    values;
  correct

let usage () =
  prerr_endline
    "usage: main.exe warm\n\
    \       main.exe run --workload NAME --seed N --seconds S --trace 0|1 --out DIR [--smoke]";
  exit 2

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "warm" ] -> List.iter (fun (w : Workload.t) -> ignore (Zoo.load_or_train w.Workload.spec)) Workload.all
  | "run" :: args ->
      let rec opt key = function
        | k :: v :: _ when k = key -> v
        | _ :: rest -> opt key rest
        | [] -> usage ()
      in
      let int key = match int_of_string_opt (opt key args) with Some n -> n | None -> usage () in
      let w =
        match Workload.find (opt "--workload" args) with
        | Some w -> w
        | None ->
            Printf.eprintf "unknown workload %s\n" (opt "--workload" args);
            exit 2
      in
      let out = opt "--out" args in
      let smoke = List.mem "--smoke" args in
      let wal = Filename.concat out (w.Workload.name ^ ".wal") in
      let seed = int "--seed" in
      let ok =
        match int "--trace" with
        | 0 -> end_to_end_run w ~seed ~seconds:(float_of_int (int "--seconds")) ~smoke ~wal
        | 1 -> per_layer_run w ~seed ~smoke ~wal ~out
        | _ -> usage ()
      in
      if Sys.file_exists wal then Sys.remove wal;
      exit (if ok then 0 else 1)
  | _ -> usage ()
