(* One pass: every instance of a workload through its three phases, with
   the correctness gate.  An untraced pass calls the public entry points
   as a user would; a traced pass wraps each layer boundary from outside
   and records spans and counters. *)

module Lp = Ivan_lp.Lp
module Network = Ivan_nn.Network
module Box = Ivan_spec.Box
module Prop = Ivan_spec.Prop
module Splits = Ivan_domains.Splits
module Deeppoly = Ivan_domains.Deeppoly
module Zonotope = Ivan_domains.Zonotope
module Analyzer = Ivan_analyzer.Analyzer
module Encoding = Ivan_analyzer.Encoding
module Tree = Ivan_spectree.Tree
module Cert = Ivan_cert.Cert
module Bab = Ivan_bab.Bab
module Trace = Ivan_bab.Trace
module Heuristic = Ivan_bab.Heuristic
module Journal = Ivan_resilience.Journal
module Ivan = Ivan_core.Ivan
module Effectiveness = Ivan_core.Effectiveness
module Hdelta = Ivan_core.Hdelta
module Prune = Ivan_core.Prune
module Clock = Ivan_clock.Clock

let phases = [| "original"; "baseline"; "ivan" |]

(* Named counters of a traced pass ("bab.steps", "journal.bytes", ...). *)
module Counters = struct
  type t = (string, float) Hashtbl.t

  let create () : t = Hashtbl.create 64

  let get (t : t) k = Option.value ~default:0.0 (Hashtbl.find_opt t k)

  let add t k v = Hashtbl.replace t k (get t k +. v)

  let incr t k = add t k 1.0

  let max t k v = Hashtbl.replace t k (Float.max (get t k) v)
end

(* An analyzer call as a traced pass saw it, kept for the replay. *)
type call = {
  span : int;
  start : float;  (** of the call's span *)
  instance : int;
  net : Network.t;
  prop : Prop.t;
  box : Box.t;
  splits : Splits.t;
  solved_lp : bool;  (** the call reached the LP (no DeepPoly shortcut) *)
}

type result = {
  seconds : float array;  (** wall seconds per phase, summed over instances *)
  scaled : float array;
      (** the same, each phase scaled to the nominal speed by the
          {!Reference} kernel timed just before it *)
  reference : float;  (** mean {!Reference} kernel time, sampled before every phase *)
  calls : int array;  (** analyzer calls per phase *)
  cert_check_s : float;
  attempted : int;  (** BaB runs *)
  failed : int;  (** runs that ended [Exhausted] or failed a check *)
  problems : string list;  (** every failed check, for the report *)
  fingerprint : string list;  (** one line per (instance, phase), sorted *)
  counters : Counters.t;
}

type ctx = {
  w : Workload.t;
  s : Workload.setup;
  traced : bool;
  wal : string;  (** journal file path *)
  counters : Counters.t;
  mutable reference : float list;  (** kernel times sampled so far *)
  mutable calls : call list;  (** of the current run, newest first, until replayed *)
  verified : (int, unit) Hashtbl.t;  (** nodes of the current run proved by a call *)
}

let span ctx name f = if ctx.traced then Spans.with_span name f else f ()

let verdict_name = function
  | Bab.Proved -> "proved"
  | Bab.Disproved _ -> "disproved"
  | Bab.Exhausted -> "exhausted"

let lp_solves = ref 0

(* The layer wrappers of a traced pass. *)

let traced_analyzer ctx (a : Analyzer.t) =
  let inner =
    {
      a with
      Analyzer.run =
        (fun net ~prop ~box ~splits ->
          let before = !lp_solves in
          let o = a.Analyzer.run net ~prop ~box ~splits in
          let solved_lp = !lp_solves > before in
          if not solved_lp then Counters.incr ctx.counters "analyzer.lp_free_calls";
          ctx.calls <-
            { span = -1; start = 0.0; instance = !Spans.instance; net; prop; box; splits; solved_lp }
            :: ctx.calls;
          o);
    }
  in
  Analyzer.instrument
    ~on_run:(fun ~name:_ ~elapsed ~outcome:_ ->
      let span, start = Spans.closed "analyzer.call" ~elapsed in
      Counters.incr ctx.counters "analyzer.calls";
      match ctx.calls with c :: rest -> ctx.calls <- { c with span; start } :: rest | [] -> ())
    inner

let traced_heuristic ctx (h : Heuristic.t) =
  {
    h with
    Heuristic.scores =
      (fun c ->
        Counters.incr ctx.counters "heuristic.calls";
        Spans.with_span "heuristic.call" (fun () -> h.Heuristic.scores c));
  }

let trace_sink ctx =
  if not ctx.traced then Trace.null
  else
    Trace.hook (function
      | Trace.Dequeued { frontier; _ } ->
          Counters.incr ctx.counters "bab.steps";
          Counters.max ctx.counters "bab.max_frontier" (float_of_int frontier)
      | Trace.Analyzed { node; status = "verified"; _ } -> Hashtbl.replace ctx.verified node ()
      | _ -> ())

(* A write-ahead journal over a file sink whose frames are timed. *)
let open_journal ctx =
  let oc = open_out_bin ctx.wal in
  let pending = ref None in
  let emit frame =
    if ctx.traced then pending := Some (Spans.enter "journal.append");
    Counters.add ctx.counters "journal.bytes" (float_of_int (String.length frame));
    output_string oc frame
  in
  let flush () =
    flush oc;
    Option.iter Spans.leave !pending;
    pending := None
  in
  Journal.create ~emit ~flush ~close:(fun () -> close_out oc) ()

let sum_stats ctx (st : Bab.stats) =
  let c = ctx.counters in
  List.iter
    (fun (k, v) -> Counters.add c k (float_of_int v))
    [
      ("bab.tree_nodes", st.Bab.tree_size);
      ("heuristic.stuck", st.Bab.heuristic_failures);
      ("analyzer.retries", st.Bab.retries);
      ("analyzer.fallback_bounds", st.Bab.fallback_bounds);
      ("analyzer.faults_absorbed", st.Bab.faults_absorbed);
      ("lp.pivots", st.Bab.lp_pivots);
      ("lp.warm_hits", st.Bab.lp_warm_hits);
      ("lp.warm_misses", st.Bab.lp_warm_misses);
      ("lp.cold_solves", st.Bab.lp_cold_solves);
      ("cert.emitted", st.Bab.certs_emitted);
      ("cert.unavailable", st.Bab.certs_unavailable);
    ]

let encoding = ref None

(* Replay the abstract passes of every analyzer call of the run just
   finished, as the call made them, and lay them out as the call's child
   spans.  Replaying per run keeps the heap the replay runs on close to
   the one the calls ran on.  The triangle encoding is rebuilt whenever
   the (network, property) pair changes, as the analyzer's own one-slot
   cache does. *)
let replay ctx =
  let counters = ctx.counters in
  let encoding_for net prop =
    match !encoding with
    | Some (n, p, e) when n == net && p == prop -> (e, 0.0)
    | _ ->
        let e, secs = Clock.timed (fun () -> Encoding.Triangle.build net ~prop) in
        encoding := Some (net, prop, e);
        (e, secs)
  in
  List.iter
    (fun c ->
      let cursor = ref c.start in
      let child name secs =
        Spans.add ~instance:c.instance ~id:(Spans.fresh ()) ~name ~parent:c.span ~start:!cursor
          ~stop:(!cursor +. secs) ~replayed:true ();
        cursor := !cursor +. secs
      in
      let timed name counter f =
        let v, secs = Clock.timed f in
        Counters.incr counters counter;
        child name secs;
        v
      in
      match ctx.w.Workload.passes with
      | Workload.Zonotope_pass ->
          ignore (timed "zonotope" "zonotope.calls" (fun () -> Zonotope.analyze c.net ~box:c.box ~splits:c.splits))
      | Workload.Lp_passes -> (
          match timed "deeppoly" "deeppoly.calls" (fun () -> Deeppoly.analyze c.net ~box:c.box ~splits:c.splits) with
          | Deeppoly.Infeasible -> ()
          | Deeppoly.Feasible dp ->
              ignore (timed "zonotope" "zonotope.calls" (fun () -> Zonotope.analyze c.net ~box:c.box ~splits:c.splits));
              if c.solved_lp then begin
                let bounds = Deeppoly.bounds dp in
                let enc, build_s = encoding_for c.net c.prop in
                let specialize () =
                  match enc with
                  | None -> ignore (Encoding.build_lp c.net ~prop:c.prop ~box:c.box ~splits:c.splits ~bounds)
                  | Some e -> (
                      try Encoding.Triangle.specialize e ~box:c.box ~splits:c.splits ~bounds
                      with Encoding.Mismatch ->
                        Counters.incr counters "encoding.mismatches";
                        ignore (Encoding.build_lp c.net ~prop:c.prop ~box:c.box ~splits:c.splits ~bounds))
                in
                let (), secs = Clock.timed specialize in
                child "encoding" (build_s +. secs)
              end))
    (List.rev ctx.calls);
  ctx.calls <- []

(* One phase: the BaB run (timed), then its journal and certificate
   checks (untimed by the phase). *)
let phase ctx ~name ~net ~prop ~problems verify =
  let kernel = Reference.time () in
  ctx.reference <- kernel :: ctx.reference;
  let journal = if ctx.w.Workload.journal then Some (open_journal ctx) else None in
  Hashtbl.reset ctx.verified;
  let run, seconds = Clock.timed (fun () -> span ctx name (fun () -> verify journal)) in
  if ctx.traced then replay ctx;
  let fail fmt = Printf.ksprintf (fun m -> problems := (prop.Prop.name ^ " " ^ name ^ ": " ^ m) :: !problems) fmt in
  let failures = List.length !problems in
  Option.iter
    (fun w ->
      Journal.close w;
      Counters.add ctx.counters "journal.frames" (float_of_int (Journal.appends w));
      match Journal.scan_file ctx.wal with
      | Error e -> fail "journal unreadable: %s" e
      | Ok r ->
          if r.Journal.dropped_bytes <> 0 then fail "journal dropped %d bytes" r.Journal.dropped_bytes;
          if List.length r.Journal.records <> Journal.appends w then
            fail "journal holds %d frames, %d appended" (List.length r.Journal.records)
              (Journal.appends w))
    journal;
  (match run.Bab.verdict with
  | Bab.Disproved x when not (Analyzer.check_concrete net ~prop x) -> fail "counterexample does not reproduce"
  | _ -> ());
  let check_s =
    if not ctx.w.Workload.certify then 0.0
    else
      match (run.Bab.verdict, run.Bab.artifact) with
      | Bab.Exhausted, _ -> 0.0
      | _, None ->
          fail "no proof artifact";
          0.0
      | _, Some a ->
          if ctx.traced then
            Counters.add ctx.counters "cert.artifact_bytes"
              (float_of_int (String.length (Cert.Artifact.to_string a)));
          let checked, s = Clock.timed (fun () -> span ctx "cert.check" (fun () -> Cert.check_artifact a)) in
          (match checked with Ok _ -> () | Error e -> fail "artifact rejected: %s" e);
          s
  in
  sum_stats ctx run.Bab.stats;
  let scaled = seconds *. Reference.scale ~exponent:ctx.w.Workload.slowdown_exponent kernel in
  (run, seconds, scaled, check_s, List.length !problems > failures)

let run ctx =
  let w = ctx.w and s = ctx.s in
  let budget = Workload.budget w in
  let policy = Analyzer.default_policy in
  let analyzer = if ctx.traced then traced_analyzer ctx w.Workload.analyzer else w.Workload.analyzer in
  let heuristic h = if ctx.traced then traced_heuristic ctx h else h in
  let trace = trace_sink ctx in
  let bab ?initial_tree ~heuristic ~net ~prop journal =
    span ctx "bab.run" (fun () ->
        Bab.verify ~analyzer ~heuristic ~trace ~budget ~policy ~certify:w.Workload.certify ?journal
          ?initial_tree ~net ~prop ())
  in
  let config = { Ivan.default_config with Ivan.budget; policy; certify = w.Workload.certify } in
  (* The traced ivan phase makes Algorithm 5's preparation visible: the
     same calls [Ivan.verify_updated] makes for [Full], in spans of their
     own.  Its work fingerprint must equal the untraced pass's. *)
  let traced_ivan ~original ~prop journal =
    let tree = original.Bab.tree in
    let pruned, hdelta =
      Spans.with_span "core.prep" (fun () ->
          let observed = Effectiveness.observe tree in
          let hdelta =
            Hdelta.make ~base:w.Workload.heuristic ~observed ~alpha:config.Ivan.alpha
              ~theta:config.Ivan.theta
          in
          let pruned =
            Prune.prune
              ~trace:(Trace.hook (function Trace.Pruned _ -> Counters.incr ctx.counters "core.pruned" | _ -> ()))
              ~theta:config.Ivan.theta tree
          in
          (pruned, hdelta))
    in
    let seeds = List.map Tree.node_id (Tree.leaves pruned) in
    let run = bab ~initial_tree:pruned ~heuristic:(heuristic hdelta) ~net:s.Workload.updated ~prop journal in
    Counters.add ctx.counters "core.seed_leaves" (float_of_int (List.length seeds));
    Counters.add ctx.counters "core.closed_leaves"
      (float_of_int (List.length (List.filter (Hashtbl.mem ctx.verified) seeds)));
    run
  in
  let seconds = Array.make 3 0.0 and scaled = Array.make 3 0.0 and calls = Array.make 3 0 in
  let cert_check_s = ref 0.0 and attempted = ref 0 and failed = ref 0 in
  let problems = ref [] and fingerprint = ref [] in
  if ctx.traced then Lp.set_solve_hook (Some (fun _ -> incr lp_solves));
  Fun.protect
    ~finally:(fun () -> Lp.set_solve_hook None)
    (fun () ->
      List.iter
        (fun (inst : Workload.instance) ->
          let prop = inst.Workload.prop in
          Spans.instance := inst.Workload.id;
          span ctx "instance" (fun () ->
              let record k (run, secs, scaled_secs, check_s, bad) =
                seconds.(k) <- seconds.(k) +. secs;
                scaled.(k) <- scaled.(k) +. scaled_secs;
                calls.(k) <- calls.(k) + run.Bab.stats.Bab.analyzer_calls;
                cert_check_s := !cert_check_s +. check_s;
                incr attempted;
                if bad || run.Bab.verdict = Bab.Exhausted then incr failed;
                fingerprint :=
                  Printf.sprintf "%s %s %s calls=%d tree=%d pivots=%d" prop.Prop.name phases.(k)
                    (verdict_name run.Bab.verdict) run.Bab.stats.Bab.analyzer_calls
                    run.Bab.stats.Bab.tree_size run.Bab.stats.Bab.lp_pivots
                  :: !fingerprint;
                run
              in
              let net = s.Workload.net and updated = s.Workload.updated in
              let h = heuristic w.Workload.heuristic in
              let original =
                record 0
                  (phase ctx ~name:phases.(0) ~net ~prop ~problems (bab ~heuristic:h ~net ~prop))
              in
              let baseline =
                record 1
                  (phase ctx ~name:phases.(1) ~net:updated ~prop ~problems
                     (bab ~heuristic:h ~net:updated ~prop))
              in
              let ivan =
                record 2
                  (phase ctx ~name:phases.(2) ~net:updated ~prop ~problems (fun journal ->
                       if ctx.traced then traced_ivan ~original ~prop journal
                       else
                         Ivan.verify_updated ~analyzer ~heuristic:w.Workload.heuristic
                           ~config:{ config with Ivan.journal }
                           ~original_run:original ~updated ~prop))
              in
              Counters.add ctx.counters "core.calls_saved"
                (float_of_int (baseline.Bab.stats.Bab.analyzer_calls - ivan.Bab.stats.Bab.analyzer_calls));
              match (baseline.Bab.verdict, ivan.Bab.verdict) with
              | Bab.Proved, Bab.Disproved _ | Bab.Disproved _, Bab.Proved ->
                  incr failed;
                  problems :=
                    Printf.sprintf "%s: ivan says %s, baseline says %s" prop.Prop.name
                      (verdict_name ivan.Bab.verdict) (verdict_name baseline.Bab.verdict)
                    :: !problems
              | _ -> ()))
        s.Workload.instances);
  Spans.instance := -1;
  {
    seconds;
    scaled;
    calls;
    cert_check_s = !cert_check_s;
    attempted = !attempted;
    failed = !failed;
    problems = List.rev !problems;
    fingerprint = List.sort compare !fingerprint;
    reference = List.fold_left ( +. ) 0.0 ctx.reference /. float_of_int (max 1 (List.length ctx.reference));
    counters = ctx.counters;
  }

let create w s ~traced ~wal =
  { w; s; traced; wal; counters = Counters.create (); reference = []; calls = []; verified = Hashtbl.create 256 }

