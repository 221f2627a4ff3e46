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

(* Floats print with enough digits to round-trip binary64 exactly; the
   three non-finite values, which JSON cannot represent as numbers, are
   encoded as strings the parser recognizes. *)
let float_token v =
  if Float.is_nan v then "\"nan\""
  else if v = infinity then "\"inf\""
  else if v = neg_infinity then "\"-inf\""
  else Printf.sprintf "%.17g" v

(* A duration as an exact token of one width: [%.16e] carries the 17
   significant digits binary64 needs, so any finite seconds from 1e-99
   to 1e99 print as 22 bytes and an event's length does not vary with
   timing.  Parsed by [float_of_token] like any other float. *)
let seconds_token v = if Float.is_finite v then Printf.sprintf "%.16e" v else float_token v

let float_of_token = function
  | "nan" -> nan
  | "inf" -> infinity
  | "-inf" -> neg_infinity
  | s -> float_of_string s

let event_to_json = function
  | Dequeued { node; depth; frontier } ->
      Printf.sprintf {|{"ev":"dequeued","node":%d,"depth":%d,"frontier":%d}|} node depth frontier
  | Analyzed { node; status; lb; seconds } ->
      Printf.sprintf {|{"ev":"analyzed","node":%d,"status":%S,"lb":%s,"seconds":%s}|} node status
        (float_token lb) (seconds_token seconds)
  | Lp_solved { node; warm_hits; warm_misses; cold_solves; pivots; factor_pivots } ->
      Printf.sprintf
        ({|{"ev":"lp","node":%d,"warm_hits":%d,"warm_misses":%d,"cold_solves":%d,|}
        ^^ {|"pivots":%d,"factor_pivots":%d}|})
        node warm_hits warm_misses cold_solves pivots factor_pivots
  | Dual_closed { node } -> Printf.sprintf {|{"ev":"dual_closed","node":%d}|} node
  | Split { node; decision; left; right } ->
      Printf.sprintf {|{"ev":"split","node":%d,"decision":%S,"left":%d,"right":%d}|} node
        (Decision.to_string decision) left right
  | Pruned { node } -> Printf.sprintf {|{"ev":"pruned","node":%d}|} node
  | Stuck { node } -> Printf.sprintf {|{"ev":"stuck","node":%d}|} node
  | Retried { node; analyzer; attempt; reason } ->
      Printf.sprintf {|{"ev":"retried","node":%d,"analyzer":%S,"attempt":%d,"reason":%S}|} node
        analyzer attempt reason
  | Fallback { node; analyzer; reason } ->
      Printf.sprintf {|{"ev":"fallback","node":%d,"analyzer":%S,"reason":%S}|} node analyzer reason
  | Absorbed { node; analyzer; reason } ->
      Printf.sprintf {|{"ev":"absorbed","node":%d,"analyzer":%S,"reason":%S}|} node analyzer reason
  | Certified { node; kind; exact } ->
      Printf.sprintf {|{"ev":"certified","node":%d,"kind":%S,"exact":%b}|} node kind exact
  | Verdict { verdict; calls; seconds; nodes; leaves; counterexample } ->
      Printf.sprintf
        {|{"ev":"verdict","verdict":%S,"calls":%d,"seconds":%s,"nodes":%d,"leaves":%d%s}|} verdict
        calls (seconds_token seconds) nodes leaves
        (match counterexample with
        | None -> ""
        | Some x ->
            Printf.sprintf {|,"counterexample":[%s]|}
              (String.concat "," (Array.to_list (Array.map float_token x))))

(* Minimal parser for the flat one-line objects emitted above: string
   keys mapping to quoted strings, bare number tokens, or arrays of
   those. *)
let parse_flat line =
  let n = String.length line in
  let pos = ref 0 in
  let fail msg = failwith (Printf.sprintf "Trace.event_of_json: %s in %S" msg line) in
  let skip_ws () = while !pos < n && (line.[!pos] = ' ' || line.[!pos] = '\t') do incr pos done in
  let expect c =
    skip_ws ();
    if !pos >= n || line.[!pos] <> c then fail (Printf.sprintf "expected %c" c);
    incr pos
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let closed = ref false in
    while not !closed do
      if !pos >= n then fail "unterminated string";
      (match line.[!pos] with
      | '"' -> closed := true
      | '\\' ->
          if !pos + 1 >= n then fail "dangling escape";
          incr pos;
          Buffer.add_char buf
            (match line.[!pos] with
            | 'n' -> '\n'
            | 't' -> '\t'
            | 'r' -> '\r'
            | c -> c)
      | c -> Buffer.add_char buf c);
      incr pos
    done;
    Buffer.contents buf
  in
  let parse_bare () =
    skip_ws ();
    let start = !pos in
    while !pos < n && (match line.[!pos] with ',' | '}' | ']' | ' ' -> false | _ -> true) do
      incr pos
    done;
    if !pos = start then fail "empty value";
    String.sub line start (!pos - start)
  in
  let parse_scalar () =
    skip_ws ();
    if !pos < n && line.[!pos] = '"' then parse_string () else parse_bare ()
  in
  (* Comma-separated items up to [close], the opening bracket consumed. *)
  let parse_seq close item =
    let rec go acc =
      let acc = item () :: acc in
      skip_ws ();
      if !pos < n && line.[!pos] = ',' then (incr pos; go acc)
      else (expect close; List.rev acc)
    in
    skip_ws ();
    if !pos < n && line.[!pos] = close then (incr pos; []) else go []
  in
  expect '{';
  parse_seq '}' (fun () ->
      let key = parse_string () in
      expect ':';
      skip_ws ();
      if !pos < n && line.[!pos] = '[' then (incr pos; (key, `List (parse_seq ']' parse_scalar)))
      else (key, `Scalar (parse_scalar ())))

(* Typed accessors over one parsed flat object; every failure, a missing
   key or a malformed number alike, is [Failure]. *)
let accessors line =
  let fields = parse_flat line in
  let fail key = failwith (Printf.sprintf "Trace: missing or mistyped field %S in %S" key line) in
  let str key =
    match List.assoc_opt key fields with
    | Some (`Scalar s) -> s
    | Some (`List _) | None -> fail key
  in
  (* An optional array of floats. *)
  let floats key =
    match List.assoc_opt key fields with
    | Some (`List vs) -> Some (Array.of_list (List.map float_of_token vs))
    | None -> None
    | Some (`Scalar _) -> fail key
  in
  (str, (fun key -> int_of_string (str key)), (fun key -> float_of_token (str key)), floats)

let event_of_json line =
  let str, int, float, floats = accessors line in
  let bool key =
    match str key with
    | "true" -> true
    | "false" -> false
    | v -> failwith (Printf.sprintf "Trace: field %S is not a boolean (%S) in %S" key v line)
  in
  match str "ev" with
  | "dequeued" -> Dequeued { node = int "node"; depth = int "depth"; frontier = int "frontier" }
  | "analyzed" ->
      Analyzed { node = int "node"; status = str "status"; lb = float "lb"; seconds = float "seconds" }
  | "lp" ->
      Lp_solved
        {
          node = int "node";
          warm_hits = int "warm_hits";
          warm_misses = int "warm_misses";
          cold_solves = int "cold_solves";
          pivots = int "pivots";
          factor_pivots = int "factor_pivots";
        }
  | "dual_closed" -> Dual_closed { node = int "node" }
  | "split" ->
      Split
        {
          node = int "node";
          decision = Decision.of_string (str "decision");
          left = int "left";
          right = int "right";
        }
  | "pruned" -> Pruned { node = int "node" }
  | "stuck" -> Stuck { node = int "node" }
  | "retried" ->
      Retried
        { node = int "node"; analyzer = str "analyzer"; attempt = int "attempt"; reason = str "reason" }
  | "fallback" -> Fallback { node = int "node"; analyzer = str "analyzer"; reason = str "reason" }
  | "absorbed" -> Absorbed { node = int "node"; analyzer = str "analyzer"; reason = str "reason" }
  | "certified" -> Certified { node = int "node"; kind = str "kind"; exact = bool "exact" }
  | "verdict" ->
      Verdict
        {
          verdict = str "verdict";
          calls = int "calls";
          seconds = float "seconds";
          nodes = int "nodes";
          leaves = int "leaves";
          counterexample = floats "counterexample";
        }
  | ev -> failwith (Printf.sprintf "Trace.event_of_json: unknown event %S" ev)

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
