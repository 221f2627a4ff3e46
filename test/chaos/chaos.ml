module Engine = Ivan_bab.Engine
module Analyzer = Ivan_analyzer.Analyzer
module Journal = Ivan_resilience.Journal

type workload = {
  name : string;
  net : Ivan_nn.Network.t;
  prop : Ivan_spec.Prop.t;
  analyzer : unit -> Analyzer.t;
  heuristic : Ivan_bab.Heuristic.t;
  config : Engine.config;
  initial_tree : Ivan_spectree.Tree.t option;
}

let workload ~name ~net ~prop ~analyzer ~heuristic ?(config = Engine.default_config) ?initial_tree
    () =
  { name; net; prop; analyzer; heuristic; config; initial_tree }

type golden = { run : Engine.run; journal : string; boundaries : (int * int) list }

(* The clean reference run.  The journal writer's [emit] snoops every
   append: the byte offset of the frame's end and the engine's
   analyzer-call counter at that instant, which is exactly the state a
   process killed right after that append would have persisted. *)
let golden w =
  let buf = Buffer.create 4096 in
  let boundaries = ref [] in
  let eng = ref None in
  let jw =
    Journal.create
      ~emit:(fun s ->
        Buffer.add_string buf s;
        let calls = match !eng with None -> 0 | Some e -> Engine.calls e in
        boundaries := (Buffer.length buf, calls) :: !boundaries)
      ()
  in
  let e =
    Engine.create ~analyzer:(w.analyzer ()) ~heuristic:w.heuristic ~config:w.config ~journal:jw
      ?initial_tree:w.initial_tree ~net:w.net ~prop:w.prop ()
  in
  eng := Some e;
  let run = Engine.run e in
  { run; journal = Buffer.contents buf; boundaries = List.rev !boundaries }

type failure = { workload : string; schedule : string; reason : string }

type report = {
  workloads : int;
  schedules : int;
  resumed : int;
  fresh_restarts : int;
  reworked_nodes : int;
  failures : failure list;
}

let empty_report =
  { workloads = 0; schedules = 0; resumed = 0; fresh_restarts = 0; reworked_nodes = 0;
    failures = [] }

let merge a b =
  {
    workloads = a.workloads + b.workloads;
    schedules = a.schedules + b.schedules;
    resumed = a.resumed + b.resumed;
    fresh_restarts = a.fresh_restarts + b.fresh_restarts;
    reworked_nodes = a.reworked_nodes + b.reworked_nodes;
    failures = a.failures @ b.failures;
  }

(* ------------------------------------------------------------------ *)
(* Equivalence *)

let verdict_name = function
  | Engine.Proved -> "proved"
  | Engine.Disproved _ -> "disproved"
  | Engine.Exhausted -> "exhausted"

let compare_runs (g : Engine.run) (r : Engine.run) =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  (match (g.Engine.verdict, r.Engine.verdict) with
  | Engine.Proved, Engine.Proved | Engine.Exhausted, Engine.Exhausted -> ()
  | Engine.Disproved x, Engine.Disproved y ->
      if x <> y then err "counterexample vectors differ"
  | gv, rv -> err "verdict: golden %s, resumed %s" (verdict_name gv) (verdict_name rv));
  (* The run statistics compared whole, less the wall-clock fields. *)
  let deterministic (s : Engine.stats) = { s with analyzer_seconds = 0.0; elapsed_seconds = 0.0 } in
  let gs = deterministic g.Engine.stats and rs = deterministic r.Engine.stats in
  if gs <> rs then
    err "stats: golden %s; resumed %s"
      (Format.asprintf "%a" Ivan_bab.Trace.pp_aggregate gs)
      (Format.asprintf "%a" Ivan_bab.Trace.pp_aggregate rs);
  (* A resumed run's first nodes run DeepPoly cold where the golden run
     resumed them from their parents: the bounds, and so every node's
     lb, must still be the same bit for bit. *)
  let lbs (run : Engine.run) =
    let module Tree = Ivan_spectree.Tree in
    let acc = ref [] in
    Tree.iter_nodes run.Engine.tree (fun n ->
        acc := (Tree.node_id n, Int64.bits_of_float (Tree.lb n)) :: !acc);
    List.sort compare !acc
  in
  if lbs g <> lbs r then err "node lower bounds differ";
  (* Certificate equivalence is stats-compatible: the counters above
     must match exactly, and the artifact must agree in presence and
     verdict.  A resumed Proved artifact can carry fewer leaf
     certificates (leaf tables are not journaled), never more. *)
  (match (g.Engine.artifact, r.Engine.artifact) with
  | None, None -> ()
  | Some _, None -> err "artifact: golden has one, resumed does not"
  | None, Some _ -> err "artifact: resumed has one, golden does not"
  | Some ga, Some ra ->
      let open Ivan_cert.Cert.Artifact in
      (match (ga.verdict, ra.verdict) with
      | Proved, Proved -> ()
      | Disproved x, Disproved y -> if x <> y then err "artifact counterexamples differ"
      | _ -> err "artifact verdict kinds differ");
      if List.length ra.leaves > List.length ga.leaves then
        err "resumed artifact has more leaf certificates than golden");
  List.rev !errs

(* ------------------------------------------------------------------ *)
(* Trials *)

let fresh_run w =
  Engine.run
    (Engine.create ~analyzer:(w.analyzer ()) ~heuristic:w.heuristic ~config:w.config
       ?initial_tree:w.initial_tree ~net:w.net ~prop:w.prop ())

let resume ?journal w bytes =
  Engine.resume ~analyzer:(w.analyzer ()) ~heuristic:w.heuristic ~config:w.config ?journal
    ~net:w.net ~prop:w.prop bytes

(* The analyzer calls a process killed right after writing [valid_bytes]
   had durably recorded: the counter snapshot at the last boundary
   inside the surviving prefix. *)
let calls_at g valid_bytes =
  List.fold_left (fun acc (off, calls) -> if off <= valid_bytes then calls else acc) 0
    g.boundaries

(* One simulated kill: resume from [bytes], finish, compare.  Returns
   (mismatches, resumed?, reworked nodes). *)
let trial w g bytes =
  let prefix = Journal.scan bytes in
  let has_checkpoint =
    List.exists (fun r -> r.Journal.kind = Journal.Checkpoint) prefix.Journal.records
  in
  if not has_checkpoint then
    (* Nothing actionable survived (at most a Header): the only honest
       recovery is to start over, which must still reach the golden
       verdict. *)
    (compare_runs g.run (fresh_run w), false, 0)
  else
    match resume w bytes with
    | Error msg -> ([ Printf.sprintf "resume failed: %s" msg ], false, 0)
    | Ok (e, info) ->
        let at_resume = Engine.calls e in
        let durable = calls_at g info.Engine.valid_bytes in
        (* Rework: calls the journal had durably recorded but the
           resumed engine will redo.  Every landed Step frame replays,
           the terminal one's verdict included, so there is none. *)
        let rework = durable - at_resume in
        let errs = ref [] in
        if rework < 0 then
          errs :=
            Printf.sprintf "resumed engine claims %d calls, journal only recorded %d" at_resume
              durable
            :: !errs;
        if rework > 0 then
          errs :=
            Printf.sprintf "%d nodes whose Step frames landed were analyzed again" rework :: !errs;
        let run = Engine.run e in
        ((!errs @ compare_runs g.run run : string list), true, max 0 rework)

(* Steps the resumed run of the double kill makes before its own kill. *)
let second_life_steps = 8

(* Kill, resume into a second journal, kill that mid-run, resume again:
   recovery must compose, and neither resume may redo a call whose Step
   frame landed.  Every step flushes its frame, so the second journal
   holds exactly the calls the first resumed engine had made when it was
   abandoned. *)
let double_kill_trial w g =
  let n = List.length g.boundaries in
  if n < 2 then ([], false, 0)
  else
    (* The first life keeps the Header, the Checkpoint and at least one
       Step frame when the run wrote one. *)
    let k1 = min n (max 3 (n / 3)) in
    let bytes1 = String.sub g.journal 0 (fst (List.nth g.boundaries (k1 - 1))) in
    if
      not
        (List.exists
           (fun r -> r.Journal.kind = Journal.Checkpoint)
           (Journal.scan bytes1).Journal.records)
    then ([], false, 0)
    else
      let buf2 = Buffer.create 4096 in
      match resume ~journal:(Journal.to_buffer buf2) w bytes1 with
      | Error msg -> ([ Printf.sprintf "first resume failed: %s" msg ], false, 0)
      | Ok (e, info) ->
          let rework1 = calls_at g info.Engine.valid_bytes - Engine.calls e in
          (* Let the resumed run make some progress, then abandon it —
             the second kill.  Its journal lives on in [buf2]. *)
          let rec step_n i =
            if i > 0 then match Engine.step e with Engine.Running -> step_n (i - 1) | _ -> ()
          in
          step_n second_life_steps;
          let durable = Engine.calls e in
          (match resume w (Buffer.contents buf2) with
          | Error msg -> ([ Printf.sprintf "second resume failed: %s" msg ], true, 0)
          | Ok (e2, _) ->
              let rework2 = durable - Engine.calls e2 in
              let errs =
                List.filter_map
                  (fun (life, rework) ->
                    if rework = 0 then None
                    else Some (Printf.sprintf "%s resume: %d calls redone or invented" life rework))
                  [ ("first", rework1); ("second", rework2) ]
              in
              let run = Engine.run e2 in
              (errs @ compare_runs g.run run, true, max 0 rework1 + max 0 rework2))

let frame_starts g =
  let ends = List.map fst g.boundaries in
  0 :: List.filteri (fun i _ -> i < List.length ends - 1) ends

let run_workload w =
  let g = golden w in
  let total = String.length g.journal in
  let failures = ref [] in
  let schedules = ref 0 in
  let resumed_n = ref 0 in
  let fresh_n = ref 0 in
  let rework_total = ref 0 in
  let record schedule (errs, was_resumed, rework) =
    incr schedules;
    if was_resumed then incr resumed_n else incr fresh_n;
    rework_total := !rework_total + rework;
    List.iter
      (fun reason -> failures := { workload = w.name; schedule; reason } :: !failures)
      errs
  in
  (* Kill at every append boundary (the last one is the intact journal:
     resuming a completed run must reproduce its verdict too). *)
  List.iteri
    (fun i (off, _) ->
      record (Printf.sprintf "kill@append-%d" (i + 1)) (trial w g (String.sub g.journal 0 off)))
    g.boundaries;
  (* Torn write: every byte offset strictly inside the final frame. *)
  let last_start = List.fold_left (fun _ s -> s) 0 (frame_starts g) in
  for cut = last_start + 1 to total - 1 do
    record (Printf.sprintf "torn@%d" cut) (trial w g (String.sub g.journal 0 cut))
  done;
  (* Bit flip: corrupt the first payload byte of every frame — recovery
     must truncate there, and the resumed run must still agree. *)
  List.iter
    (fun start ->
      if start + 13 < total then begin
        let b = Bytes.of_string g.journal in
        Bytes.set b (start + 13) (Char.chr (Char.code (Bytes.get b (start + 13)) lxor 0xFF));
        record (Printf.sprintf "flip@%d" (start + 13)) (trial w g (Bytes.to_string b))
      end)
    (frame_starts g);
  record "double-kill" (double_kill_trial w g);
  {
    workloads = 1;
    schedules = !schedules;
    resumed = !resumed_n;
    fresh_restarts = !fresh_n;
    reworked_nodes = !rework_total;
    failures = List.rev !failures;
  }

let run_matrix ws = List.fold_left (fun acc w -> merge acc (run_workload w)) empty_report ws

let pp_report fmt r =
  Format.fprintf fmt
    "@[<v>chaos matrix: %d workloads, %d schedules (%d resumed, %d fresh restarts), %d reworked \
     nodes, %d failures@]"
    r.workloads r.schedules r.resumed r.fresh_restarts r.reworked_nodes (List.length r.failures);
  List.iter
    (fun f -> Format.fprintf fmt "@,  FAIL %s/%s: %s" f.workload f.schedule f.reason)
    r.failures
