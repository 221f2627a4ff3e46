(* Journal framing, kill recovery, journal resume, and supervised runs. *)

module Journal = Ivan_resilience.Journal
module Supervisor = Ivan_supervise.Supervisor
module Engine = Ivan_bab.Engine
module Heuristic = Ivan_bab.Heuristic
module Trace = Ivan_bab.Trace
module Analyzer = Ivan_analyzer.Analyzer
module Network = Ivan_nn.Network
module Layer = Ivan_nn.Layer

let scan_shape = Alcotest.(triple int int int)

let shape (r : Journal.recovery) =
  (List.length r.records, r.valid_bytes, r.dropped_bytes)

(* --- framing ------------------------------------------------------- *)

let test_roundtrip () =
  let buf = Buffer.create 256 in
  let w = Journal.to_buffer buf in
  Journal.append w Journal.Header "fingerprint";
  Journal.append w Journal.Step "{\"event\":\"dequeued\"}\n";
  Journal.append w Journal.Checkpoint "ivan-checkpoint 3\n...";
  Journal.append w Journal.Step "";
  Journal.close w;
  let bytes = Buffer.contents buf in
  let r = Journal.scan bytes in
  Alcotest.(check scan_shape)
    "all frames recovered, nothing dropped"
    (4, String.length bytes, 0)
    (shape r);
  Alcotest.(check (list (pair string string)))
    "kinds and payloads survive the round trip"
    [
      ("header", "fingerprint");
      ("step", "{\"event\":\"dequeued\"}\n");
      ("checkpoint", "ivan-checkpoint 3\n...");
      ("step", "");
    ]
    (List.map
       (fun (rec_ : Journal.record) ->
         (Journal.kind_name rec_.kind, rec_.payload))
       r.records)

let test_scan_empty () =
  Alcotest.(check scan_shape) "empty input" (0, 0, 0) (shape (Journal.scan ""))

let test_scan_garbage () =
  let garbage = "this is not a journal, not even close........" in
  Alcotest.(check scan_shape)
    "arbitrary bytes are all dropped"
    (0, 0, String.length garbage)
    (shape (Journal.scan garbage))

let frames payloads =
  let buf = Buffer.create 256 in
  let w = Journal.to_buffer buf in
  List.iter (fun (k, p) -> Journal.append w k p) payloads;
  Buffer.contents buf

let test_torn_tail_every_offset () =
  let two =
    frames [ (Journal.Header, "fp"); (Journal.Step, "payload-one") ]
  in
  let three = two ^ Journal.encode_frame Journal.Step "payload-two" in
  (* Cutting anywhere strictly inside the third frame must recover
     exactly the first two and drop the partial bytes. *)
  for cut = String.length two + 1 to String.length three - 1 do
    let r = Journal.scan (String.sub three 0 cut) in
    Alcotest.(check scan_shape)
      (Printf.sprintf "torn at byte %d" cut)
      (2, String.length two, cut - String.length two)
      (shape r)
  done

let test_corrupt_byte_truncates () =
  let one = frames [ (Journal.Header, "fp") ] in
  let three =
    frames
      [
        (Journal.Header, "fp");
        (Journal.Step, "payload-one");
        (Journal.Step, "payload-two");
      ]
  in
  (* Flip one byte of the second frame's payload: CRC must reject it and
     recovery must keep only the first frame. *)
  let b = Bytes.of_string three in
  let off = String.length one + 13 in
  Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0xFF));
  let r = Journal.scan (Bytes.to_string b) in
  Alcotest.(check scan_shape)
    "recovery stops at the corrupt frame"
    (1, String.length one, String.length three - String.length one)
    (shape r)

let test_impossible_length_rejected () =
  let one = frames [ (Journal.Header, "fp") ] in
  (* Hand-build a frame claiming a payload far beyond the cap. *)
  let bogus = Bytes.of_string (Journal.encode_frame Journal.Step "x") in
  Bytes.set bogus 5 '\x7f';
  let r = Journal.scan (one ^ Bytes.to_string bogus) in
  Alcotest.(check int) "only the valid frame survives" 1
    (List.length r.records);
  Alcotest.(check int) "valid prefix length" (String.length one) r.valid_bytes

let test_last_run () =
  let records =
    [
      { Journal.kind = Journal.Header; payload = "a" };
      { Journal.kind = Journal.Step; payload = "1" };
      { Journal.kind = Journal.Header; payload = "b" };
      { Journal.kind = Journal.Step; payload = "2" };
      { Journal.kind = Journal.Checkpoint; payload = "3" };
    ]
  in
  let suffix = Journal.last_run records in
  Alcotest.(check (list string))
    "suffix from the newest header"
    [ "b"; "2"; "3" ]
    (List.map (fun (r : Journal.record) -> r.payload) suffix);
  Alcotest.(check int) "headerless journal is returned whole" 2
    (List.length (Journal.last_run (List.tl (List.tl (List.tl records)))))

let test_writer_close_semantics () =
  let buf = Buffer.create 64 in
  let w = Journal.to_buffer buf in
  Journal.append w Journal.Header "fp";
  Alcotest.(check int) "appends counted" 1 (Journal.appends w);
  Journal.close w;
  Journal.close w;
  (* idempotent *)
  match Journal.append w Journal.Step "late" with
  | () -> Alcotest.fail "append after close must raise"
  | exception Invalid_argument _ -> ()

let test_file_round_trip () =
  let path = Filename.temp_file "ivan_journal" ".wal" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let w = Journal.open_file path in
      Journal.append w Journal.Header "fp";
      Journal.append w Journal.Step "s";
      Journal.close w;
      match Journal.scan_file path with
      | Error msg -> Alcotest.failf "scan_file failed: %s" msg
      | Ok r ->
          Alcotest.(check int) "both frames read back" 2
            (List.length r.records);
          Alcotest.(check int) "no tail" 0 r.dropped_bytes)

let test_scan_file_missing () =
  match Journal.scan_file "/nonexistent/ivan.wal" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "scan_file on a missing path must be Error"

(* --- engine journaling + resume ------------------------------------ *)

let verdict_name = function
  | Engine.Proved -> "proved"
  | Engine.Disproved _ -> "disproved"
  | Engine.Exhausted -> "exhausted"

let journaled_run ?(offset = 1.7) ?(analyzer = Analyzer.zonotope ()) () =
  let net = Fixtures.paper_net () in
  let prop = Fixtures.paper_prop_with_offset offset in
  let buf = Buffer.create 4096 in
  let journal = Journal.to_buffer buf in
  let engine =
    Engine.create ~analyzer ~heuristic:Heuristic.input_smear ~journal ~net ~prop ()
  in
  let run = Engine.run engine in
  Journal.close journal;
  (net, prop, run, Buffer.contents buf)

(* The runs in journal bytes, read by the engine's reader. *)
let journal_runs bytes =
  match Engine.journal_runs bytes with Ok runs -> runs | Error msg -> Alcotest.fail msg

(* The events of the one run in journal bytes. *)
let run_events bytes =
  match journal_runs bytes with
  | [ events ] -> events
  | runs -> Alcotest.failf "%d runs where one was journaled" (List.length runs)

(* The journal a process killed after its [keep]-th frame leaves. *)
let first_frames bytes keep =
  (Journal.scan bytes).Journal.records
  |> List.filteri (fun i _ -> i < keep)
  |> List.map (fun (r : Journal.record) -> Journal.encode_frame r.kind r.payload)
  |> String.concat ""

(* A journaled run is its Header, one Checkpoint of the state it starts
   from, and then only Step frames, the last holding the verdict. *)
let test_journal_structure () =
  let net, prop, run, bytes = journaled_run () in
  let r = Journal.scan bytes in
  Alcotest.(check int) "journal has no torn tail" 0 r.dropped_bytes;
  (match r.records with
  | { Journal.kind = Journal.Header; payload } :: { Journal.kind = Journal.Checkpoint; _ } :: steps
    ->
      Alcotest.(check string)
        "header carries the config fingerprint"
        (Engine.fingerprint ~net ~prop)
        payload;
      Alcotest.(check bool) "only Step frames after the Checkpoint" true
        (List.for_all (fun (s : Journal.record) -> s.kind = Journal.Step) steps);
      Alcotest.(check int) "one Step frame per analyzer call, plus the verdict's"
        (run.stats.analyzer_calls + 1) (List.length steps)
  | _ -> Alcotest.fail "a run must open with a Header and a Checkpoint");
  (match List.rev r.records with
  | { Journal.kind = Journal.Step; _ } :: _ -> ()
  | _ -> Alcotest.fail "terminal frame must be a Step");
  match List.rev (run_events bytes) with
  | Trace.Verdict _ :: earlier ->
      Alcotest.(check bool) "the terminal Step frame carries the one verdict" false
        (List.exists (function Trace.Verdict _ -> true | _ -> false) earlier)
  | _ -> Alcotest.fail "the run's last event must be its verdict"

let test_resume_full_journal () =
  let net, prop, golden, bytes = journaled_run () in
  match
    Engine.resume
      ~analyzer:(Analyzer.zonotope ())
      ~heuristic:Heuristic.input_smear ~net ~prop bytes
  with
  | Error msg -> Alcotest.failf "resume failed: %s" msg
  | Ok (engine, info) ->
      let resumed = Engine.run engine in
      Alcotest.(check string)
        "same verdict" (verdict_name golden.verdict)
        (verdict_name resumed.verdict);
      Alcotest.(check int)
        "same analyzer calls" golden.stats.analyzer_calls
        resumed.stats.analyzer_calls;
      Alcotest.(check int)
        "replay is bookkeeping only: no calls re-made before run"
        golden.stats.analyzer_calls
        (info.replayed_calls
        + (Engine.calls engine - info.replayed_calls));
      Alcotest.(check int) "nothing dropped" 0 info.dropped_bytes

let test_resume_truncated_journal () =
  let net, prop, golden, bytes = journaled_run () in
  (* Kill roughly mid-run: keep the first half of the frames. *)
  let keep = List.length (Journal.scan bytes).Journal.records / 2 in
  match
    Engine.resume
      ~analyzer:(Analyzer.zonotope ())
      ~heuristic:Heuristic.input_smear ~net ~prop (first_frames bytes keep)
  with
  | Error msg -> Alcotest.failf "resume failed: %s" msg
  | Ok (engine, _info) ->
      let resumed = Engine.run engine in
      Alcotest.(check string)
        "killed-and-resumed run reproduces the verdict"
        (verdict_name golden.verdict)
        (verdict_name resumed.verdict);
      Alcotest.(check int)
        "and the analyzer-call count" golden.stats.analyzer_calls
        resumed.stats.analyzer_calls

(* A disproved run's complete journal ends in its terminal Step frame,
   whose verdict carries the counterexample: resuming finishes the run
   [Disproved] with the same vector, bit for bit, and no analyzer
   call. *)
let test_resume_disproved_journal () =
  let net, prop, golden, bytes = journaled_run ~offset:1.3 () in
  let golden_x =
    match golden.verdict with
    | Engine.Disproved x -> x
    | _ -> Alcotest.fail "the paper net with offset 1.3 is violated"
  in
  (match List.rev (Journal.scan bytes).Journal.records with
  | { Journal.kind = Journal.Step; _ } :: _ -> ()
  | _ -> Alcotest.fail "terminal frame must be a Step");
  let calls = ref 0 in
  let base = Analyzer.zonotope () in
  let counting =
    {
      base with
      Analyzer.run =
        (fun net ~prop ~box ~splits ->
          incr calls;
          base.Analyzer.run net ~prop ~box ~splits);
    }
  in
  match Engine.resume ~analyzer:counting ~heuristic:Heuristic.input_smear ~net ~prop bytes with
  | Error msg -> Alcotest.failf "resume failed: %s" msg
  | Ok (engine, _) -> (
      Alcotest.(check bool) "finished on replay" true (Engine.finished engine <> None);
      let resumed = Engine.run engine in
      Alcotest.(check int) "no analyzer call" 0 !calls;
      Alcotest.(check int) "same analyzer calls" golden.stats.analyzer_calls
        resumed.stats.analyzer_calls;
      match resumed.verdict with
      | Engine.Disproved x ->
          Alcotest.(check (array int64))
            "bit-identical counterexample"
            (Array.map Int64.bits_of_float golden_x)
            (Array.map Int64.bits_of_float x)
      | v -> Alcotest.failf "resumed as %s" (verdict_name v))

(* Replay keeps the run clock: a run resumed mid-way from its one
   Checkpoint has spent at least the analyzer seconds its replayed
   steps recorded, so a time budget is not granted afresh. *)
let test_resume_keeps_run_clock () =
  let base = Analyzer.zonotope () in
  let slow =
    {
      base with
      Analyzer.run =
        (fun net ~prop ~box ~splits ->
          let t0 = Ivan_clock.Clock.monotonic () in
          while Ivan_clock.Clock.monotonic () -. t0 < 0.005 do
            ()
          done;
          base.Analyzer.run net ~prop ~box ~splits);
    }
  in
  let net, prop, golden, bytes = journaled_run ~offset:1.55 ~analyzer:slow () in
  let records = (Journal.scan bytes).Journal.records in
  let keep = 3 * List.length records / 4 in
  let replayed_seconds =
    List.fold_left
      (fun acc -> function Trace.Analyzed { seconds; _ } -> acc +. seconds | _ -> acc)
      0.0
      (run_events (first_frames bytes keep))
  in
  if replayed_seconds < 0.01 then
    Alcotest.failf "the kept steps of %d analyzer calls spent only %.4fs"
      golden.stats.analyzer_calls replayed_seconds;
  match
    Engine.resume ~analyzer:slow ~heuristic:Heuristic.input_smear ~net ~prop
      (first_frames bytes keep)
  with
  | Error msg -> Alcotest.failf "resume failed: %s" msg
  | Ok (engine, _) ->
      let resumed = Engine.run engine in
      let elapsed = resumed.stats.elapsed_seconds in
      if elapsed < replayed_seconds then
        Alcotest.failf "resumed run reports %.4fs elapsed, its replayed steps spent %.4fs" elapsed
          replayed_seconds;
      if elapsed < resumed.stats.analyzer_seconds then
        Alcotest.failf "resumed run reports %.4fs elapsed, %.4fs in the analyzer" elapsed
          resumed.stats.analyzer_seconds

(* Granting an exhausted run more budget, with a sink, copies the run
   into the sink under the budget now in force, less the terminal
   [exhausted] Step it continues past: killed after a few steps, that
   sink alone resumes, with no config, to the verdict, tree and call
   count of a run given the larger budget from the start.  The run that
   continues leaves the [exhausted] verdict out of its counters too, so
   its stats are the uninterrupted run's but for the wall clock. *)
let test_resume_budget_override_into_sink () =
  let net = Fixtures.paper_net () in
  let prop = Fixtures.paper_prop_with_offset 1.6 in
  let budget max_analyzer_calls =
    { Engine.default_config with budget = { Engine.max_analyzer_calls; max_seconds = infinity } }
  in
  let create ?journal config =
    Engine.create ~analyzer:(Analyzer.interval ()) ~heuristic:Heuristic.input_smear ~config
      ?journal ~net ~prop ()
  in
  let reference = Engine.run (create (budget 500)) in
  let buf = Buffer.create 4096 in
  let cut = Engine.run (create ~journal:(Journal.to_buffer buf) (budget 3)) in
  Alcotest.(check string) "the journaled run is exhausted" "exhausted" (verdict_name cut.verdict);
  (match
     Engine.resume ~analyzer:(Analyzer.interval ()) ~heuristic:Heuristic.input_smear
       ~config:(budget 500) ~net ~prop (Buffer.contents buf)
   with
  | Error msg -> Alcotest.failf "resume with more budget failed: %s" msg
  | Ok (engine, _) ->
      let timeless (s : Engine.stats) = { s with analyzer_seconds = 0.0; elapsed_seconds = 0.0 } in
      Alcotest.(check bool) "the continued run counts as the uninterrupted one" true
        (timeless (Engine.run engine).stats = timeless reference.stats));
  let buf2 = Buffer.create 4096 in
  (match
     Engine.resume ~analyzer:(Analyzer.interval ()) ~heuristic:Heuristic.input_smear
       ~config:(budget 500) ~journal:(Journal.to_buffer buf2) ~net ~prop (Buffer.contents buf)
   with
  | Error msg -> Alcotest.failf "resume with more budget failed: %s" msg
  | Ok (engine, _) ->
      for _ = 1 to 4 do
        ignore (Engine.step engine)
      done;
      Alcotest.(check bool) "still running when killed" true (Engine.finished engine = None));
  match
    Engine.resume ~analyzer:(Analyzer.interval ()) ~heuristic:Heuristic.input_smear ~net ~prop
      (Buffer.contents buf2)
  with
  | Error msg -> Alcotest.failf "resume of the copy failed: %s" msg
  | Ok (engine, _) ->
      let resumed = Engine.run engine in
      Alcotest.(check string) "same verdict" (verdict_name reference.verdict)
        (verdict_name resumed.verdict);
      Alcotest.(check int) "same analyzer calls" reference.stats.analyzer_calls
        resumed.stats.analyzer_calls;
      Alcotest.(check string) "same tree"
        (Ivan_spectree.Tree.to_string reference.tree)
        (Ivan_spectree.Tree.to_string resumed.tree)

(* A run a Stuck node ended is never continued: that node left the
   frontier unanalyzed by any split, so continuing with a larger budget
   could prove the property over it.  The analyzer cannot bound boxes
   holding (0.3, 0.7), and the heuristic cannot branch such a box below
   the root: the run is stuck at node 1 after two calls. *)
let test_resume_never_continues_stuck () =
  let net = Fixtures.paper_net () in
  let prop = Fixtures.paper_prop_with_offset 1.7 in
  let bad box = Ivan_spec.Box.contains box (Ivan_tensor.Vec.of_list [ 0.3; 0.7 ]) in
  let base = Analyzer.zonotope () in
  let analyzer () =
    {
      base with
      Analyzer.run =
        (fun net ~prop ~box ~splits ->
          let o = base.Analyzer.run net ~prop ~box ~splits in
          if bad box then { o with Analyzer.status = Analyzer.Unknown; lb = -1.0 }
          else { o with Analyzer.status = Analyzer.Verified; lb = Float.max o.Analyzer.lb 0.0 });
    }
  in
  let root = prop.Ivan_spec.Prop.input in
  let heuristic =
    {
      Heuristic.name = "stuck-below-root";
      scores =
        (fun ctx ->
          if bad ctx.Heuristic.box && ctx.Heuristic.box <> root then []
          else Heuristic.input_smear.Heuristic.scores ctx);
    }
  in
  let buf = Buffer.create 4096 in
  let journal = Journal.to_buffer buf in
  let budget max_analyzer_calls = { Engine.max_analyzer_calls; max_seconds = infinity } in
  let config = { Engine.default_config with budget = budget 10 } in
  let run = Engine.run (Engine.create ~analyzer:(analyzer ()) ~heuristic ~config ~journal ~net ~prop ()) in
  Alcotest.(check string) "the journaled run is exhausted" "exhausted" (verdict_name run.verdict);
  Alcotest.(check int) "after two calls" 2 run.stats.analyzer_calls;
  Alcotest.(check int) "stuck once" 1 run.stats.heuristic_failures;
  match
    Engine.resume ~analyzer:(analyzer ()) ~heuristic
      ~config:{ config with budget = budget 500 }
      ~net ~prop (Buffer.contents buf)
  with
  | Error msg -> Alcotest.failf "resume failed: %s" msg
  | Ok (engine, _) ->
      let resumed = Engine.run engine in
      Alcotest.(check string) "a larger budget leaves it exhausted" "exhausted"
        (verdict_name resumed.verdict);
      Alcotest.(check int) "with no further call" 2 resumed.stats.analyzer_calls

(* Same shape as the paper net, first weight tripled. *)
let reweighted_net () =
  Network.make
    [
      Fixtures.dense [| [| 6.0; -1.0 |]; [| 1.0; 1.0 |] |] [| 0.0; 0.0 |];
      Fixtures.dense [| [| 1.0; -2.0 |]; [| -1.0; 1.0 |] |] [| 0.0; 0.0 |];
      Fixtures.dense ~activation:Layer.Identity [| [| 1.0; -1.0 |] |] [| 0.0 |];
    ]

(* The config fingerprint reads the bits: one ulp on one weight, or on
   the offset, changes it; a serialization round trip, bit-exact by
   design, does not.  Dense and conv subjects. *)
let test_fingerprint_bits () =
  List.iter
    (fun (name, net, (prop : Ivan_spec.Prop.t)) ->
      let fp = Engine.fingerprint ~net ~prop in
      Alcotest.(check int) (name ^ ": 32 hex digits") 32 (String.length fp);
      let first = ref true in
      let nudged =
        Network.map_weights
          (fun w ->
            if !first then begin
              first := false;
              Float.succ w
            end
            else w)
          net
      in
      Alcotest.(check bool)
        (name ^ ": one-ulp weight") false
        (String.equal fp (Engine.fingerprint ~net:nudged ~prop));
      Alcotest.(check bool)
        (name ^ ": offset") false
        (String.equal fp
           (Engine.fingerprint ~net ~prop:{ prop with offset = Float.succ prop.offset }));
      let reloaded = Ivan_nn.Serialize.of_string (Ivan_nn.Serialize.to_string net) in
      Alcotest.(check string)
        (name ^ ": serialize round trip") fp
        (Engine.fingerprint ~net:reloaded ~prop))
    (Fixtures.golden_subjects ())

(* Persisted state must never be resumed onto another problem, whether
   it is a full journal or a killed run's prefix: a different offset,
   or a same-shape net with different weights.  The prefix is cut
   three steps into the paper net with offset 1.6; the reweighted net
   with offset 0.2 is violated, and continuing the paper net's search
   on it would report the property proved. *)
let test_resume_wrong_fingerprint () =
  let _net, _prop, _run, journal = journaled_run ~offset:1.7 () in
  let checkpoint =
    let buf = Buffer.create 4096 in
    let engine =
      Engine.create ~analyzer:(Analyzer.lp_triangle ()) ~heuristic:Heuristic.zono_coeff
        ~journal:(Journal.to_buffer buf) ~net:(Fixtures.paper_net ())
        ~prop:(Fixtures.paper_prop_with_offset 1.6) ()
    in
    for _ = 1 to 3 do
      ignore (Engine.step engine)
    done;
    Buffer.contents buf
  in
  let resume ~net ~prop bytes =
    Engine.resume ~analyzer:(Analyzer.lp_triangle ()) ~heuristic:Heuristic.zono_coeff ~net ~prop
      bytes
  in
  (match
     resume ~net:(Fixtures.paper_net ()) ~prop:(Fixtures.paper_prop_with_offset 1.6) checkpoint
   with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "the prefix does not resume on its own problem: %s" msg);
  List.iter
    (fun (state, bytes, offset) ->
      List.iter
        (fun (problem, net, prop) ->
          match resume ~net ~prop bytes with
          | Error _ -> ()
          | Ok _ -> Alcotest.failf "%s resumed against %s must be Error" state problem)
        [
          ("a different offset", Fixtures.paper_net (), Fixtures.paper_prop_with_offset 1.3);
          ("different weights", reweighted_net (), Fixtures.paper_prop_with_offset offset);
          ("different weights and offset", reweighted_net (), Fixtures.paper_prop_with_offset 0.2);
        ])
    [ ("a full journal", journal, 1.7); ("a journal prefix", checkpoint, 1.6) ]

let test_resume_empty_journal () =
  let net = Fixtures.paper_net () in
  let prop = Fixtures.paper_prop_with_offset 1.7 in
  match
    Engine.resume
      ~analyzer:(Analyzer.zonotope ())
      ~heuristic:Heuristic.input_smear ~net ~prop ""
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "resume from an empty journal must be Error"

(* --- reading a journal's runs ------------------------------------- *)

let stats = Alcotest.testable Trace.pp_aggregate ( = )

(* The reader splits runs at Header frames and drops a torn tail; a
   Step frame outside any run, or one that does not decode, is an
   [Error]. *)
let test_journal_runs_input () =
  let frame kind payload = Journal.encode_frame kind payload in
  let step = Trace.event_to_json (Trace.Pruned { node = 3 }) in
  let run = frame Journal.Header "fp" ^ frame Journal.Checkpoint "start" in
  let two = run ^ frame Journal.Step step ^ run in
  Alcotest.(check int) "no bytes, no run" 0 (List.length (journal_runs ""));
  Alcotest.(check (list int)) "two runs, one step in the first" [ 1; 0 ]
    (List.map List.length (journal_runs (two ^ String.sub (frame Journal.Step step) 0 9)));
  let is_error bytes = Result.is_error (Engine.journal_runs bytes) in
  Alcotest.(check bool) "a step before any header" true (is_error (frame Journal.Step step ^ run));
  Alcotest.(check bool) "a malformed step" true (is_error (run ^ frame Journal.Step "{\"ev\":"))

(* A killed check-style run (LP analyzer, resilience policy) resumed
   into a fresh journal: the copy holds the replayed Steps ahead of the
   live ones, so its one run folds to the resumed run's stats, replayed
   calls and splits included. *)
let test_resumed_journal_folds_to_stats () =
  let net = Fixtures.paper_net () in
  let prop = Fixtures.paper_prop_with_offset 1.6 in
  let analyzer () = Analyzer.lp_triangle () in
  let heuristic = Heuristic.zono_coeff in
  let config = { Engine.default_config with policy = Some Analyzer.default_policy } in
  let buf = Buffer.create 4096 in
  let journal = Journal.to_buffer buf in
  let golden =
    Engine.run (Engine.create ~analyzer:(analyzer ()) ~heuristic ~config ~journal ~net ~prop ())
  in
  let bytes = Buffer.contents buf in
  let torn = String.sub bytes 0 (2 * String.length bytes / 3) in
  let copy = Buffer.create 4096 in
  let journal = Journal.to_buffer copy in
  match Engine.resume ~analyzer:(analyzer ()) ~heuristic ~config ~journal ~net ~prop torn with
  | Error msg -> Alcotest.fail msg
  | Ok (engine, info) ->
      let resumed = Engine.run engine in
      Journal.close journal;
      if info.replayed_calls = 0 || info.replayed_calls >= golden.stats.analyzer_calls then
        Alcotest.failf "the torn journal replayed %d of %d calls" info.replayed_calls
          golden.stats.analyzer_calls;
      Alcotest.check stats "the copy folds to the resumed run's stats" resumed.stats
        (Trace.aggregate (run_events (Buffer.contents copy)))

(* An incremental run journaled through [Ivan.config.journal] is two
   runs in one file, N's then N^a's, each folding to its run's stats. *)
let test_incremental_journal_runs () =
  let module Ivan = Ivan_core.Ivan in
  let net = Fixtures.paper_net () in
  let prop = Fixtures.paper_prop_with_offset 1.6 in
  let buf = Buffer.create 4096 in
  let journal = Journal.to_buffer buf in
  let r =
    Ivan.verify_incremental ~analyzer:(Analyzer.lp_triangle ()) ~heuristic:Heuristic.zono_coeff
      ~config:{ Ivan.default_config with journal = Some journal }
      ~net ~updated:(reweighted_net ()) ~prop ()
  in
  Journal.close journal;
  match journal_runs (Buffer.contents buf) with
  | [ original; updated ] ->
      Alcotest.check stats "the first run is N's" r.original.stats (Trace.aggregate original);
      Alcotest.check stats "the second run is N^a's" r.updated.stats (Trace.aggregate updated)
  | runs -> Alcotest.failf "%d runs where two were journaled" (List.length runs)

(* --- supervisor ----------------------------------------------------- *)

let test_supervise_clean_run () =
  let net = Fixtures.paper_net () in
  let prop = Fixtures.paper_prop_with_offset 1.7 in
  let engine =
    Engine.create
      ~analyzer:(Analyzer.zonotope ())
      ~heuristic:Heuristic.input_smear ~net ~prop ()
  in
  let outcome =
    Supervisor.supervise ~limits:Supervisor.default_limits engine
  in
  Alcotest.(check string) "clean verdict" "proved"
    (verdict_name outcome.run.verdict);
  Alcotest.(check int) "no escalations" 0 (List.length outcome.escalations)

let test_supervise_memory_ladder () =
  let net = Fixtures.paper_net () in
  let prop = Fixtures.paper_prop_with_offset 1.7 in
  let buf = Buffer.create 4096 in
  let journal = Journal.to_buffer buf in
  let engine =
    Engine.create
      ~analyzer:(Analyzer.interval ())
      ~heuristic:Heuristic.input_smear ~journal ~net ~prop ()
  in
  let limits =
    { Supervisor.max_major_words = 0.0 (* breached from the first check *); check_every = 1 }
  in
  let outcome = Supervisor.supervise ~limits engine in
  Journal.close journal;
  Alcotest.(check string) "cancelled cleanly" "exhausted"
    (verdict_name outcome.run.verdict);
  let names =
    List.map
      (function
        | Supervisor.Compacted _ -> "compacted"
        | Supervisor.Degraded _ -> "degraded"
        | Supervisor.Cancelled _ -> "cancelled")
      outcome.escalations
  in
  (* Nothing on the ladder is cheaper than interval: the supervisor
     cancels without degrading. *)
  Alcotest.(check bool) "ladder ends in a cancel" true
    (List.mem "cancelled" names);
  Alcotest.(check bool) "no degradation below interval" false
    (List.mem "degraded" names);
  (* The journal must be intact — no torn tail — and resumable even
     after the ladder rebuilt and then cancelled the engine. *)
  let r = Journal.scan (Buffer.contents buf) in
  Alcotest.(check int) "journal flushed cleanly" 0 r.dropped_bytes;
  match
    Engine.resume
      ~analyzer:(Analyzer.interval ())
      ~heuristic:Heuristic.input_smear ~net ~prop (Buffer.contents buf)
  with
  | Error msg -> Alcotest.failf "post-cancel journal not resumable: %s" msg
  | Ok _ -> ()

(* A degraded engine keeps the trace sink it was created with: the
   events after the [Degraded] rung reach the same sink, so the trace
   accounts for every analyzer call and carries the verdict. *)
let test_supervise_degrade_keeps_trace () =
  let net = Fixtures.paper_net () in
  let prop = Fixtures.paper_prop_with_offset 1.55 in
  let trace, events = Fixtures.collect_events () in
  let engine =
    Engine.create
      ~analyzer:(Analyzer.zonotope ())
      ~heuristic:Heuristic.input_smear ~trace ~net ~prop ()
  in
  let limits =
    { Supervisor.max_major_words = 0.0 (* breached from the first check *); check_every = 1 }
  in
  let outcome = Supervisor.supervise ~limits engine in
  Alcotest.(check bool) "the run was degraded" true
    (List.exists
       (function Supervisor.Degraded _ -> true | _ -> false)
       outcome.escalations);
  let agg = Trace.aggregate (events ()) in
  Alcotest.(check bool) "the run's stats are the trace's fold" true (outcome.run.stats = agg);
  Alcotest.(check (option string)) "trace carries the verdict"
    (Some (verdict_name outcome.run.verdict)) agg.Trace.verdict

(* A zonotope engine steps down the ladder to interval, the one rung
   cheaper than zonotope, and then cancels. *)
let test_supervise_zonotope_degrades_to_interval () =
  let net = Fixtures.paper_net () in
  let prop = Fixtures.paper_prop_with_offset 1.55 in
  let engine =
    Engine.create ~analyzer:(Analyzer.zonotope ()) ~heuristic:Heuristic.input_smear ~net ~prop ()
  in
  let limits =
    { Supervisor.max_major_words = 0.0 (* breached from the first check *); check_every = 1 }
  in
  let outcome = Supervisor.supervise ~limits engine in
  Alcotest.(check (list string)) "degraded to interval only" [ "interval" ]
    (List.filter_map
       (function Supervisor.Degraded { analyzer; _ } -> Some analyzer | _ -> None)
       outcome.escalations);
  Alcotest.(check string) "the engine runs interval" "interval"
    (Engine.analyzer engine).Analyzer.name

let test_mb_words () =
  (* 1 MB = 131072 8-byte words. *)
  Alcotest.(check (float 1e-9)) "mb_words" 131072.0 (Supervisor.mb_words 1.0)

let suite =
  [
    Alcotest.test_case "frame round-trip" `Quick test_roundtrip;
    Alcotest.test_case "scan: empty input" `Quick test_scan_empty;
    Alcotest.test_case "scan: garbage input" `Quick test_scan_garbage;
    Alcotest.test_case "scan: torn tail at every offset" `Quick
      test_torn_tail_every_offset;
    Alcotest.test_case "scan: corrupt byte truncates" `Quick
      test_corrupt_byte_truncates;
    Alcotest.test_case "scan: impossible length rejected" `Quick
      test_impossible_length_rejected;
    Alcotest.test_case "last_run picks the newest header" `Quick
      test_last_run;
    Alcotest.test_case "writer close semantics" `Quick
      test_writer_close_semantics;
    Alcotest.test_case "file round trip" `Quick test_file_round_trip;
    Alcotest.test_case "scan_file: missing path" `Quick test_scan_file_missing;
    Alcotest.test_case "engine journal structure" `Quick
      test_journal_structure;
    Alcotest.test_case "resume from a complete journal" `Quick
      test_resume_full_journal;
    Alcotest.test_case "resume from a truncated journal" `Quick
      test_resume_truncated_journal;
    Alcotest.test_case "resume a disproved journal without the analyzer" `Quick
      test_resume_disproved_journal;
    Alcotest.test_case "resume keeps the replayed run clock" `Quick
      test_resume_keeps_run_clock;
    Alcotest.test_case "resume with more budget copies the run into a sink" `Quick
      test_resume_budget_override_into_sink;
    Alcotest.test_case "resume never continues a stuck run" `Quick
      test_resume_never_continues_stuck;
    Alcotest.test_case "resume rejects a foreign fingerprint" `Quick
      test_resume_wrong_fingerprint;
    Alcotest.test_case "fingerprint tracks weight and offset bits" `Quick
      test_fingerprint_bits;
    Alcotest.test_case "resume rejects an empty journal" `Quick
      test_resume_empty_journal;
    Alcotest.test_case "supervise: clean run" `Quick test_supervise_clean_run;
    Alcotest.test_case "supervise: memory escalation ladder" `Quick
      test_supervise_memory_ladder;
    Alcotest.test_case "supervise: degrade keeps the trace sink" `Quick
      test_supervise_degrade_keeps_trace;
    Alcotest.test_case "supervise: zonotope degrades to interval only" `Quick
      test_supervise_zonotope_degrades_to_interval;
    Alcotest.test_case "journal_runs: runs, torn tails and malformed frames" `Quick
      test_journal_runs_input;
    Alcotest.test_case "journal of a resumed run folds to its stats" `Quick
      test_resumed_journal_folds_to_stats;
    Alcotest.test_case "journal of an incremental run holds two runs" `Quick
      test_incremental_journal_runs;
    Alcotest.test_case "mb_words" `Quick test_mb_words;
  ]
