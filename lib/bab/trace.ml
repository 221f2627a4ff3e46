(* Structured event stream of a verification run. *)

module Decision = Ivan_spectree.Decision

type event =
  | Dequeued of { node : int; depth : int; frontier : int }
  | Analyzed of { node : int; status : string; lb : float; seconds : float }
  | Lp_solved of {
      node : int;
      warm_hits : int;
      warm_misses : int;
      cold_solves : int;
      pivots : int;
      factor_pivots : int;
    }
  | Dual_closed of { node : int }
  | Split of { node : int; decision : Decision.t; left : int; right : int }
  | Pruned of { node : int }
  | Stuck of { node : int }
  | Retried of { node : int; analyzer : string; attempt : int; reason : string }
  | Fallback of { node : int; analyzer : string; reason : string }
  | Absorbed of { node : int; analyzer : string; reason : string }
  | Certified of { node : int; kind : string; exact : bool }
  | Verdict of {
      verdict : string;
      calls : int;
      seconds : float;
      nodes : int;
      leaves : int;
      counterexample : float array option;
    }

(* ---------------- sinks ---------------- *)

type sink = Null | Hook of (event -> unit)

let null = Null

let hook f = Hook f

let emit sink ev = match sink with Null -> () | Hook f -> f ev

(* ---------------- serialization ---------------- *)

(* One line per event: its tag, then [key=value] fields in a fixed
   order.  Each layout below is one format, written by [Printf] and read
   back by [Scanf]: ints [%d], strings [%S] (escaped, so no line holds a
   raw newline), booleans [%B] and floats [%h], which read back bit for
   bit, -0, subnormals and infinities included (a NaN stays a NaN). *)
let dequeued : _ format6 = "dequeued node=%d depth=%d frontier=%d"
let analyzed : _ format6 = "analyzed node=%d status=%S lb=%h seconds=%s"

let lp_solved : _ format6 =
  "lp node=%d warm_hits=%d warm_misses=%d cold_solves=%d pivots=%d factor_pivots=%d"

let dual_closed : _ format6 = "dual_closed node=%d"
let split : _ format6 = "split node=%d decision=%S left=%d right=%d"
let pruned : _ format6 = "pruned node=%d"
let stuck : _ format6 = "stuck node=%d"
let retried : _ format6 = "retried node=%d analyzer=%S attempt=%d reason=%S"
let fallback : _ format6 = "fallback node=%d analyzer=%S reason=%S"
let absorbed : _ format6 = "absorbed node=%d analyzer=%S reason=%S"
let certified : _ format6 = "certified node=%d kind=%S exact=%B"

let verdict : _ format6 =
  "verdict verdict=%S calls=%d seconds=%s nodes=%d leaves=%d counterexample=%s"

(* A duration as an exact token of one width: [%.16e] carries the 17
   significant digits binary64 needs, so any finite seconds from 1e-99
   to 1e99 print as 22 bytes and an event's length does not vary with
   timing.  [Scanf]'s [%e] does not read [nan] back, so the layouts take
   it as a [%s] token for [float_of_string]. *)
let seconds_token = Printf.sprintf "%.16e"

(* A counterexample as one token: [none], or its [%h] coordinates
   joined by commas. *)
let counterexample_token = function
  | None -> "none"
  | Some x -> String.concat "," (Array.to_list (Array.map (Printf.sprintf "%h") x))

let counterexample_of_token = function
  | "none" -> None
  | "" -> Some [||]
  | s -> Some (Array.of_list (List.map float_of_string (String.split_on_char ',' s)))

let event_to_string = function
  | Dequeued { node; depth; frontier } -> Printf.sprintf dequeued node depth frontier
  | Analyzed { node; status; lb; seconds } ->
      Printf.sprintf analyzed node status lb (seconds_token seconds)
  | Lp_solved { node; warm_hits; warm_misses; cold_solves; pivots; factor_pivots } ->
      Printf.sprintf lp_solved node warm_hits warm_misses cold_solves pivots factor_pivots
  | Dual_closed { node } -> Printf.sprintf dual_closed node
  | Split { node; decision; left; right } ->
      Printf.sprintf split node (Decision.to_string decision) left right
  | Pruned { node } -> Printf.sprintf pruned node
  | Stuck { node } -> Printf.sprintf stuck node
  | Retried { node; analyzer; attempt; reason } ->
      Printf.sprintf retried node analyzer attempt reason
  | Fallback { node; analyzer; reason } -> Printf.sprintf fallback node analyzer reason
  | Absorbed { node; analyzer; reason } -> Printf.sprintf absorbed node analyzer reason
  | Certified { node; kind; exact } -> Printf.sprintf certified node kind exact
  | Verdict { verdict = v; calls; seconds; nodes; leaves; counterexample } ->
      Printf.sprintf verdict v calls (seconds_token seconds) nodes leaves
        (counterexample_token counterexample)

let event_of_string line =
  let scan layout k = Scanf.sscanf line (layout ^^ "%!") k in
  let tag = match String.index_opt line ' ' with Some i -> String.sub line 0 i | None -> line in
  try
    match tag with
    | "dequeued" -> scan dequeued (fun node depth frontier -> Dequeued { node; depth; frontier })
    | "analyzed" ->
        scan analyzed (fun node status lb seconds ->
            Analyzed { node; status; lb; seconds = float_of_string seconds })
    | "lp" ->
        scan lp_solved (fun node warm_hits warm_misses cold_solves pivots factor_pivots ->
            Lp_solved { node; warm_hits; warm_misses; cold_solves; pivots; factor_pivots })
    | "dual_closed" -> scan dual_closed (fun node -> Dual_closed { node })
    | "split" ->
        scan split (fun node decision left right ->
            Split { node; decision = Decision.of_string decision; left; right })
    | "pruned" -> scan pruned (fun node -> Pruned { node })
    | "stuck" -> scan stuck (fun node -> Stuck { node })
    | "retried" ->
        scan retried (fun node analyzer attempt reason -> Retried { node; analyzer; attempt; reason })
    | "fallback" -> scan fallback (fun node analyzer reason -> Fallback { node; analyzer; reason })
    | "absorbed" -> scan absorbed (fun node analyzer reason -> Absorbed { node; analyzer; reason })
    | "certified" -> scan certified (fun node kind exact -> Certified { node; kind; exact })
    | "verdict" ->
        scan verdict (fun verdict calls seconds nodes leaves counterexample ->
            Verdict
              {
                verdict;
                calls;
                seconds = float_of_string seconds;
                nodes;
                leaves;
                counterexample = counterexample_of_token counterexample;
              })
    | _ -> failwith "unknown event"
  with Scanf.Scan_failure _ | Failure _ | End_of_file | Invalid_argument _ ->
    failwith (Printf.sprintf "Trace.event_of_string: malformed event %S" line)

(* ---------------- aggregation ---------------- *)

type aggregate = {
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

let empty_aggregate =
  {
    events = 0;
    analyzer_calls = 0;
    analyzer_seconds = 0.0;
    branchings = 0;
    tree_size = 0;
    tree_leaves = 0;
    elapsed_seconds = 0.0;
    pruned = 0;
    heuristic_failures = 0;
    retries = 0;
    fallback_bounds = 0;
    faults_absorbed = 0;
    max_frontier = 0;
    max_depth = 0;
    lp_warm_hits = 0;
    lp_warm_misses = 0;
    lp_cold_solves = 0;
    lp_pivots = 0;
    lp_factor_pivots = 0;
    lp_hit_pivots = 0;
    lp_hit_solves = 0;
    dual_closures = 0;
    certs_emitted = 0;
    certs_unavailable = 0;
    cert_exact_checks = 0;
    verdict = None;
  }

let count acc ev =
  let acc = { acc with events = acc.events + 1 } in
  match ev with
  | Dequeued { depth; frontier; _ } ->
      { acc with max_frontier = max acc.max_frontier frontier; max_depth = max acc.max_depth depth }
  | Analyzed { seconds; _ } ->
      {
        acc with
        analyzer_calls = acc.analyzer_calls + 1;
        analyzer_seconds = acc.analyzer_seconds +. seconds;
      }
  | Lp_solved { warm_hits; warm_misses; cold_solves; pivots; factor_pivots; _ } ->
      let all_hits = warm_hits > 0 && warm_misses = 0 && cold_solves = 0 in
      {
        acc with
        lp_warm_hits = acc.lp_warm_hits + warm_hits;
        lp_warm_misses = acc.lp_warm_misses + warm_misses;
        lp_cold_solves = acc.lp_cold_solves + cold_solves;
        lp_pivots = acc.lp_pivots + pivots;
        lp_factor_pivots = acc.lp_factor_pivots + factor_pivots;
        lp_hit_pivots = (acc.lp_hit_pivots + if all_hits then pivots + factor_pivots else 0);
        lp_hit_solves = (acc.lp_hit_solves + if all_hits then warm_hits else 0);
      }
  | Dual_closed _ -> { acc with dual_closures = acc.dual_closures + 1 }
  | Split _ -> { acc with branchings = acc.branchings + 1 }
  | Pruned _ -> { acc with pruned = acc.pruned + 1 }
  | Stuck _ -> { acc with heuristic_failures = acc.heuristic_failures + 1 }
  | Retried _ -> { acc with retries = acc.retries + 1 }
  | Fallback _ -> { acc with fallback_bounds = acc.fallback_bounds + 1 }
  | Absorbed _ -> { acc with faults_absorbed = acc.faults_absorbed + 1 }
  | Certified { kind; exact; _ } ->
      let acc =
        if exact then { acc with cert_exact_checks = acc.cert_exact_checks + 1 } else acc
      in
      if kind = "unavailable" then { acc with certs_unavailable = acc.certs_unavailable + 1 }
      else { acc with certs_emitted = acc.certs_emitted + 1 }
  | Verdict { verdict; seconds; nodes; leaves; _ } ->
      {
        acc with
        verdict = Some verdict;
        elapsed_seconds = acc.elapsed_seconds +. seconds;
        tree_size = acc.tree_size + nodes;
        tree_leaves = acc.tree_leaves + leaves;
      }

let aggregate events = List.fold_left count empty_aggregate events

let pp_aggregate fmt a =
  let share =
    if a.elapsed_seconds > 0.0 then 100.0 *. a.analyzer_seconds /. a.elapsed_seconds else 0.0
  in
  Format.fprintf fmt
    "%d calls (%.3fs in analyzer, %.0f%% of %.3fs), %d splits, tree %d/%d, frontier peak %d, \
     depth %d"
    a.analyzer_calls a.analyzer_seconds share a.elapsed_seconds a.branchings a.tree_size
    a.tree_leaves a.max_frontier a.max_depth;
  if a.pruned > 0 then Format.fprintf fmt ", %d pruned" a.pruned;
  if a.heuristic_failures > 0 then Format.fprintf fmt ", %d heuristic failures" a.heuristic_failures;
  if a.retries > 0 then Format.fprintf fmt ", %d retries" a.retries;
  if a.fallback_bounds > 0 then Format.fprintf fmt ", %d fallback bounds" a.fallback_bounds;
  if a.faults_absorbed > 0 then Format.fprintf fmt ", %d faults absorbed" a.faults_absorbed;
  let solves = a.lp_warm_hits + a.lp_warm_misses + a.lp_cold_solves in
  if solves > 0 then begin
    Format.fprintf fmt ", LP %d warm / %d miss / %d cold (%d pivots, %d refactor" a.lp_warm_hits
      a.lp_warm_misses a.lp_cold_solves a.lp_pivots a.lp_factor_pivots;
    let per total n = if n = 0 then "-" else Printf.sprintf "%.1f" (float_of_int total /. float_of_int n) in
    Format.fprintf fmt "; %s per warm hit, %s per other solve)"
      (per a.lp_hit_pivots a.lp_hit_solves)
      (per (a.lp_pivots + a.lp_factor_pivots - a.lp_hit_pivots) (solves - a.lp_hit_solves))
  end;
  if a.dual_closures > 0 then
    Format.fprintf fmt ", %d closed by carried multipliers" a.dual_closures;
  if a.certs_emitted > 0 || a.certs_unavailable > 0 then
    Format.fprintf fmt ", %d certified / %d uncertified (%d exact checks)" a.certs_emitted
      a.certs_unavailable a.cert_exact_checks;
  match a.verdict with None -> () | Some v -> Format.fprintf fmt ", verdict %s" v
