module Vec = Ivan_tensor.Vec
module Lp = Ivan_lp.Lp
module Network = Ivan_nn.Network
module Box = Ivan_spec.Box
module Prop = Ivan_spec.Prop
module Splits = Ivan_domains.Splits
module Bounds = Ivan_domains.Bounds
module Itv = Ivan_domains.Itv
module Interval_dom = Ivan_domains.Interval_dom
module Zonotope = Ivan_domains.Zonotope
module Deeppoly = Ivan_domains.Deeppoly
module Clock = Ivan_clock.Clock
module Tree = Ivan_spectree.Tree
module Screen = Ivan_cert.Screen

type status = Verified | Counterexample of Vec.t | Unknown

type lp_report = {
  warm_hits : int;
  warm_misses : int;
  cold_solves : int;
  pivots : int;
  factor_pivots : int;
  basis : Lp.Basis.t option;
  deeppoly : Deeppoly.parent option;
  proof : Tree.multipliers option;
  closed : bool;
}

type outcome = {
  status : status;
  lb : float;
  bounds : Bounds.t option;
  zono : Zonotope.analysis option;
  cert : Ivan_cert.Cert.evidence option;
  lp : lp_report option;
}

type t = {
  name : string;
  run : Network.t -> prop:Prop.t -> box:Box.t -> splits:Splits.t -> outcome;
}

let vacuous = { status = Verified; lb = infinity; bounds = None; zono = None; cert = None; lp = None }

let degraded_outcome = { vacuous with status = Unknown; lb = neg_infinity }

let instrument ~on_run t =
  {
    t with
    run =
      (fun net ~prop ~box ~splits ->
        let t0 = Clock.monotonic () in
        let outcome = t.run net ~prop ~box ~splits in
        on_run ~name:t.name ~elapsed:(Clock.monotonic () -. t0) ~outcome;
        outcome);
  }

let check_concrete net ~prop x =
  Box.contains prop.Prop.input x && Prop.margin prop (Network.forward net x) < 0.0

(* Try to promote a candidate point into a genuine counterexample. *)
let concrete_status net ~prop candidate =
  let x = Box.clamp prop.Prop.input candidate in
  if check_concrete net ~prop x then Counterexample x else Unknown

(* ------------------------------------------------------------------ *)
(* Warm-start hint between the BaB engine and the LP-backed analyzers.
   A report goes out in [outcome.lp]; the parent's comes back in through
   this per-domain slot, which the engine fills before a child's call,
   so analyzers without an LP keep their signature.  A node with no
   parent report may instead come with the multipliers that verified it
   in an earlier run.  Domain-local, so parallel runner workers never
   see each other's hints, and consumed on read, so a retry of a failed
   call runs cold. *)

type hint = Parent of lp_report | Own of Tree.multipliers

module Warm = struct
  let hint_slot : hint option ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref None)

  let offer info = Domain.DLS.get hint_slot := Some (Parent info)

  let offer_multipliers m = Domain.DLS.get hint_slot := Some (Own m)

  let clear () = Domain.DLS.get hint_slot := None

  let take_hint () =
    let r = Domain.DLS.get hint_slot in
    let v = !r in
    r := None;
    v
end

(* The keyed multipliers of a verdict certificate. *)
let keyed keys = function
  | Lp.Certificate.Dual y -> { Tree.keys; y; farkas = false }
  | Lp.Certificate.Farkas y -> { Tree.keys; y; farkas = true }

(* One LP solve's report, with the node's DeepPoly run for its children
   to resume from and the solve's multipliers keyed by [keys].  Only
   called after a solve that returned: a solve that raises leaves
   [last_stats] and [basis] at [None]. *)
let lp_report lp ~keys deeppoly =
  Option.map
    (fun s ->
      let hits, misses, cold =
        match s.Lp.warm with
        | Lp.Warm_hit -> (1, 0, 0)
        | Lp.Warm_miss -> (0, 1, 0)
        | Lp.Cold -> (0, 0, 1)
      in
      {
        warm_hits = hits;
        warm_misses = misses;
        cold_solves = cold;
        pivots = s.Lp.pivots;
        factor_pivots = s.Lp.factor_pivots + s.Lp.miss_pivots;
        basis = Lp.basis lp;
        deeppoly = Some deeppoly;
        proof = Option.map (keyed keys) (Lp.last_certificate lp);
        closed = false;
      })
    (Lp.last_stats lp)

(* ------------------------------------------------------------------ *)
(* Interval analyzer *)

let interval_run net ~prop ~box ~splits =
  match Interval_dom.analyze net ~box ~splits with
  | Interval_dom.Infeasible -> vacuous
  | Interval_dom.Feasible bounds ->
      let itv = Bounds.objective_itv bounds ~c:prop.Prop.c ~offset:prop.Prop.offset in
      if itv.Itv.lo >= 0.0 then { status = Verified; lb = itv.Itv.lo; bounds = Some bounds; zono = None; cert = None; lp = None }
      else
        let status = concrete_status net ~prop (Box.center box) in
        { status; lb = itv.Itv.lo; bounds = Some bounds; zono = None; cert = None; lp = None }

let interval () = { name = "interval"; run = interval_run }

(* ------------------------------------------------------------------ *)
(* Zonotope analyzer *)

let zonotope_run net ~prop ~box ~splits =
  match Zonotope.analyze net ~box ~splits with
  | Zonotope.Infeasible -> vacuous
  | Zonotope.Feasible a ->
      let itv = Zonotope.objective_itv a ~c:prop.Prop.c ~offset:prop.Prop.offset in
      if itv.Itv.lo >= 0.0 then
        { status = Verified; lb = itv.Itv.lo; bounds = Some a.Zonotope.bounds; zono = Some a; cert = None; lp = None }
      else
        let candidate = Zonotope.minimizing_input a ~c:prop.Prop.c in
        let status = concrete_status net ~prop candidate in
        { status; lb = itv.Itv.lo; bounds = Some a.Zonotope.bounds; zono = Some a; cert = None; lp = None }

let zonotope () = { name = "zonotope"; run = zonotope_run }

(* ------------------------------------------------------------------ *)
(* DeepPoly-only analyzer: back-substituted bounds without the LP pass.
   Middle rung of the degradation ladder — cheaper and numerically far
   simpler than {!lp_triangle}, tighter than {!interval}. *)

let deeppoly_run net ~prop ~box ~splits =
  match Deeppoly.analyze net ~box ~splits with
  | Deeppoly.Infeasible -> vacuous
  | Deeppoly.Feasible dp ->
      let bounds = Deeppoly.bounds dp in
      let itv = Deeppoly.objective_itv dp ~c:prop.Prop.c ~offset:prop.Prop.offset in
      if itv.Itv.lo >= 0.0 then
        { status = Verified; lb = itv.Itv.lo; bounds = Some bounds; zono = None; cert = None; lp = None }
      else
        let status = concrete_status net ~prop (Box.center box) in
        { status; lb = itv.Itv.lo; bounds = Some bounds; zono = None; cert = None; lp = None }

let deeppoly () = { name = "deeppoly"; run = deeppoly_run }

(* ------------------------------------------------------------------ *)
(* The persistent triangle encoding.

   One encoding per (network, property) pair, rebuilt only when either
   changes — detected by physical equality, which is exactly right for
   the BaB engine (it holds one network and one property for a whole
   run and calls the analyzer once per node).  Per-domain so parallel
   runner workers each hold their own.

   A build starts from the property root's DeepPoly bounds.  On a miss,
   [root ()] hands them over when the missing call is the root call
   itself, so the build does not run that pass again; it is [None] for
   every other first call (an IVAN seed leaf, a sub-box under input
   splitting), whose bounds hold only on its own subproblem, and the
   build then runs the root's DeepPoly. *)

(* [root] for an encoding build: a call's DeepPoly [bounds] when the
   call is the property root, its box the property's input box bit for
   bit and no splits. *)
let root_call ~prop ~box ~splits bounds () =
  let bits v = Array.map Int64.bits_of_float v and input = prop.Prop.input in
  if
    Splits.is_empty splits
    && bits (Box.lo box) = bits (Box.lo input)
    && bits (Box.hi box) = bits (Box.hi input)
  then Some bounds
  else None

let triangle_slot = Domain.DLS.new_key (fun () -> ref None)

let triangle_encoding net prop ~root =
  let r = Domain.DLS.get triangle_slot in
  match !r with
  | Some (n, p, enc) when n == net && p == prop -> enc
  | _ ->
      let enc = Encoding.Triangle.build ?root:(root ()) net ~prop in
      r := Some (net, prop, enc);
      enc

(* ------------------------------------------------------------------ *)
(* LP analyzer with triangle relaxation *)

(* Freeze the LP and pair it with the solver's multipliers, right after
   the solve and before any further mutation of the shared encoding.
   Extraction is float-only and untrusted; the exact checker in
   [Ivan_cert.Cert] decides whether the evidence actually proves
   anything. *)
let evidence_of lp ~const =
  match Lp.last_certificate lp with
  | None -> None
  | Some witness ->
      Some
        {
          Ivan_cert.Cert.const;
          snapshot = Ivan_cert.Cert.Snapshot.of_problem lp;
          witness;
        }

(* The closure: multipliers [m] that verified this node in an earlier
   run, on another network of the same architecture or on this one,
   carried onto the node's specialized LP by row key and evaluated by
   weak duality under the certificate screen's rounding model, on a
   snapshot of the LP that is also the evidence a certificate needs.
   Returns that evidence and the bound it proves ([infinity] for a
   Farkas witness: the node is empty), or [None] when it proves
   nothing and the simplex must run. *)
let closure enc lp ~const (m : Tree.multipliers) =
  Option.bind (Encoding.Triangle.transfer enc ~keys:m.Tree.keys ~y:m.Tree.y) (fun y ->
      let witness = if m.Tree.farkas then Lp.Certificate.Farkas y else Lp.Certificate.Dual y in
      let snapshot = Ivan_cert.Cert.Snapshot.of_problem lp in
      Option.map
        (fun lb -> ({ Ivan_cert.Cert.const; snapshot; witness }, lb))
        (Screen.proves snapshot ~const witness))

(* The box corner a cold solve's crash basis starts from: each input at
   the end that minimizes its coefficient in the zonotope objective,
   the lower end for a zero coefficient or without a zonotope. *)
let crash_corner ~prop ~box zono =
  let d = Box.dim box in
  match zono with
  | None -> Array.make d false
  | Some a ->
      let obj = Zonotope.objective_coeffs a ~c:prop.Prop.c in
      Array.init d (fun j -> obj.(j) < 0.0)

let lp_triangle_run ~warm ~certify net ~prop ~box ~splits =
  (* The hint the engine staged, if any: the parent's report, or the
     node's own multipliers from an earlier run.  DeepPoly resumes from
     the parent's run whatever [warm] says, since the result is the same
     bit for bit; the parent's basis starts the simplex, and the node's
     own multipliers get a try before it, only under [warm]: neither is
     journaled, so a run without them replays exactly.  Taken before
     anything can fail, so a retry runs cold. *)
  let hint = Warm.take_hint () in
  let report, own =
    match hint with
    | Some (Parent r) -> (Some r, None)
    | Some (Own m) -> (None, if warm then Some m else None)
    | None -> (None, None)
  in
  let parent = Option.bind report (fun h -> h.deeppoly) in
  match Deeppoly.analyze ?parent net ~box ~splits with
  | Deeppoly.Infeasible -> vacuous
  | Deeppoly.Feasible dp -> (
      let bounds = Deeppoly.bounds dp in
      (* Taken now, so that the symbolic rows [dp] holds are garbage
         during the LP solve. *)
      let resume_from = Deeppoly.as_parent dp in
      (* Zonotope pass for branching scores (and a second bound). *)
      let zono =
        match Zonotope.analyze net ~box ~splits with
        | Zonotope.Infeasible -> None
        | Zonotope.Feasible a -> Some a
      in
      let dp_itv = Deeppoly.objective_itv dp ~c:prop.Prop.c ~offset:prop.Prop.offset in
      let zono_lb =
        match zono with
        | None -> neg_infinity
        | Some a -> (Zonotope.objective_itv a ~c:prop.Prop.c ~offset:prop.Prop.offset).Itv.lo
      in
      let cheap_lb = Float.max dp_itv.Itv.lo zono_lb in
      (* A shortcut verdict has no LP behind it, hence no certificate:
         under [certify] every node reaches its LP. *)
      if (not certify) && cheap_lb >= 0.0 then
        { status = Verified; lb = cheap_lb; bounds = Some bounds; zono; cert = None; lp = None }
      else
        (* Specialize the persistent per-property encoding to this node.
           Multipliers from an earlier run get the first try: when they
           prove the node on its LP, no simplex runs.  Otherwise solve,
           warm from the parent's basis when one is offered, else cold
           from the crash basis of a concrete forward pass.  A warm miss
           falls back on the crash basis too, so it is built only when a
           solve asks for it. *)
        let basis = if warm then Option.bind report (fun h -> h.basis) else None in
        let solved =
          try
            match triangle_encoding net prop ~root:(root_call ~prop ~box ~splits bounds) with
            | None -> `Solver_failed
            | Some enc -> (
                Encoding.Triangle.specialize enc ~box ~splits ~bounds;
                let lp = Encoding.Triangle.lp enc and const = Encoding.Triangle.const enc in
                let keys = Encoding.Triangle.keys enc in
                match Option.bind own (closure enc lp ~const) with
                | Some (evidence, lb) -> `Closed (keys, evidence, lb)
                | None ->
                    let start () = Encoding.Triangle.crash enc ~upper:(crash_corner ~prop ~box zono) in
                    let r =
                      match basis with
                      | Some b -> Lp.solve_from ~start lp b
                      | None -> Lp.solve ?start:(start ()) lp
                    in
                    `Result (lp, const, keys, r))
          with Encoding.Mismatch | Lp.Iteration_limit | Lp.Numerical_failure _ -> `Solver_failed
        in
        match solved with
        | `Solver_failed ->
            (* Corrupt bounds or numerical failure: fall back on the
               sound cheap bound. *)
            if cheap_lb >= 0.0 then { status = Verified; lb = cheap_lb; bounds = Some bounds; zono; cert = None; lp = None }
            else { status = Unknown; lb = cheap_lb; bounds = Some bounds; zono; cert = None; lp = None }
        | `Closed (keys, (evidence : Ivan_cert.Cert.evidence), lb) -> (
            (* The carried multipliers are this node's proof: its
               certificate under [certify], and its annotation for the
               next run. *)
            let report =
              {
                warm_hits = 0;
                warm_misses = 0;
                cold_solves = 0;
                pivots = 0;
                factor_pivots = 0;
                basis = None;
                deeppoly = Some resume_from;
                proof = Some (keyed keys evidence.witness);
                closed = true;
              }
            in
            let cert = if certify then Some evidence else None in
            match evidence.witness with
            | Lp.Certificate.Farkas _ -> { vacuous with bounds = Some bounds; zono; cert; lp = Some report }
            | Lp.Certificate.Dual _ ->
                { status = Verified; lb = Float.max lb cheap_lb; bounds = Some bounds; zono; cert; lp = Some report })
        | `Result (lp, const, keys, r) -> (
            let report = lp_report lp ~keys resume_from in
            (* Evidence is only captured where it can be used, and before
               the shared encoding is touched again. *)
            let evidence () = if certify then evidence_of lp ~const else None in
            match r with
            | Lp.Infeasible ->
                (* The relaxation is a superset of the true region, so an
                   infeasible relaxation proves the region empty. *)
                { vacuous with bounds = Some bounds; zono; cert = evidence (); lp = report }
            | Lp.Unbounded ->
                (* Cannot happen with a bounded input box, but stay sound. *)
                { status = Unknown; lb = cheap_lb; bounds = Some bounds; zono; cert = None; lp = report }
            | Lp.Optimal { objective; primal; _ } ->
                let lb = Float.max (objective +. const) cheap_lb in
                if lb >= 0.0 then
                  { status = Verified; lb; bounds = Some bounds; zono; cert = evidence (); lp = report }
                else
                  let candidate = Array.sub primal 0 (Box.dim box) in
                  let status = concrete_status net ~prop candidate in
                  { status; lb; bounds = Some bounds; zono; cert = None; lp = report }))

let lp_triangle ?(warm = true) ?(certify = false) () =
  { name = "lp-triangle"; run = lp_triangle_run ~warm ~certify }

(* ------------------------------------------------------------------ *)
(* Exact MILP: big-M indicator encoding of every ambiguous ReLU, solved
   by branch and bound over the phase binaries.  One call decides the
   subproblem exactly (the "one-shot complete verifier" style the paper
   compares against in its §7 MILP discussion).  Each call builds its
   own encoding: it is a one-shot decider, not a BaB analyzer. *)

type milp_outcome = { milp_status : status; milp_lb : float; nodes : int; witness : Vec.t option }

(* A capped, numerically failed or unencodable search: inconclusive
   either way, never a fabricated answer. *)
let milp_inconclusive ~nodes = { milp_status = Unknown; milp_lb = neg_infinity; nodes; witness = None }

let milp_verify ?(max_nodes = 100_000) ?incumbent net ~prop ~box ~splits =
  match Deeppoly.analyze net ~box ~splits with
  | Deeppoly.Infeasible -> { milp_status = Verified; milp_lb = infinity; nodes = 0; witness = None }
  | Deeppoly.Feasible dp -> (
      let bounds = Deeppoly.bounds dp in
      let specialized =
        Option.bind
          (Encoding.Milp.build ?root:(root_call ~prop ~box ~splits bounds ()) net ~prop)
          (fun enc ->
            match Encoding.Milp.specialize enc ~box ~splits ~bounds with
            | () -> Some enc
            | exception Encoding.Mismatch -> None)
      in
      match specialized with
      | None -> milp_inconclusive ~nodes:0
      | Some enc -> (
          let const = Encoding.Milp.const enc in
          (* Verification cutoff: branches that cannot push the objective
             below 0 cannot yield a counterexample, so the search always
             prunes at 0; a caller-supplied incumbent can only tighten
             the cutoff further (this is what "warm starting" amounts
             to). *)
          let cutoff = match incumbent with None -> 0.0 | Some v -> Float.min 0.0 v in
          let result =
            Ivan_lp.Milp.solve ~max_nodes ~incumbent:(cutoff -. const) (Encoding.Milp.lp enc)
              ~integer:(Encoding.Milp.binaries enc)
          in
          let nodes =
            match result with
            | Ivan_lp.Milp.Infeasible s | Node_limit s | Solver_failure s -> s.Ivan_lp.Milp.nodes
            | Optimal { stats; _ } -> stats.Ivan_lp.Milp.nodes
          in
          match result with
          | Ivan_lp.Milp.Infeasible _ ->
              (* Either the region is empty or nothing goes below the
                 cutoff.  With the default cutoff 0 that proves the
                 property; with a negative warm cutoff it only bounds the
                 minimum from below. *)
              let milp_status = if cutoff >= 0.0 then Verified else Unknown in
              { milp_status; milp_lb = cutoff; nodes; witness = None }
          | Ivan_lp.Milp.Node_limit _ | Ivan_lp.Milp.Solver_failure _ -> milp_inconclusive ~nodes
          | Ivan_lp.Milp.Optimal { objective; primal; _ } ->
              let lb = objective +. const in
              let witness = Array.sub primal 0 (Box.dim box) in
              let status =
                if lb >= 0.0 then Verified
                else
                  match concrete_status net ~prop witness with
                  | Counterexample x -> Counterexample x
                  | Verified | Unknown -> Unknown
              in
              { milp_status = status; milp_lb = lb; nodes; witness = Some witness }))

(* ------------------------------------------------------------------ *)
(* Resilience: retry-then-degrade fallback chains *)

type policy = { max_retries : int; node_timeout : float; fallback : bool }

let default_policy = { max_retries = 1; node_timeout = infinity; fallback = true }

type fallback_event =
  | Retried of { analyzer : string; attempt : int; reason : string }
  | Fell_back of { analyzer : string; reason : string }
  | Absorbed of { analyzer : string; reason : string }

(* Conditions the resilience layer must never swallow: they signal the
   process itself is in trouble, not one analyzer call. *)
let fatal_exn = function Out_of_memory | Stack_overflow | Sys.Break -> true | _ -> false

(* An outcome produced under possible faults is only trusted when it
   cannot violate soundness: no NaN bound, [Verified] only with a
   non-negative bound, and counterexamples re-checked concretely (one
   forward pass — cheap next to any analysis). *)
let trustworthy net ~prop o =
  (not (Float.is_nan o.lb))
  &&
  match o.status with
  | Verified -> o.lb >= 0.0
  | Counterexample x -> check_concrete net ~prop x
  | Unknown -> true

let with_fallback ?(notify = fun (_ : fallback_event) -> ()) ~policy primary =
  if policy.max_retries < 0 then invalid_arg "Analyzer.with_fallback: negative max_retries";
  if policy.node_timeout <= 0.0 then invalid_arg "Analyzer.with_fallback: non-positive node_timeout";
  let chain =
    if policy.fallback then List.filter (fun a -> a.name <> primary.name) [ deeppoly (); interval () ]
    else []
  in
  let run net ~prop ~box ~splits =
    (* Monotonic deadline: a wall-clock step (NTP) must not extend or
       shrink a node budget. *)
    let deadline =
      if policy.node_timeout < infinity then Clock.monotonic () +. policy.node_timeout
      else infinity
    in
    let timed_out () = deadline < infinity && Clock.monotonic () >= deadline in
    (* Try one analyzer with up to [max_retries] re-attempts.  The
       timeout is cooperative: analyzers are not preempted mid-call, but
       no further attempt starts past the deadline. *)
    let rec attempt a k =
      let result =
        try `Outcome (a.run net ~prop ~box ~splits)
        with e -> if fatal_exn e then raise e else `Raised (Printexc.to_string e)
      in
      let failure =
        match result with
        | `Outcome o when trustworthy net ~prop o -> None
        | `Outcome _ -> Some "untrustworthy outcome (NaN or unsound bound)"
        | `Raised msg -> Some msg
      in
      match failure with
      | None -> ( match result with `Outcome o -> `Ok o | `Raised _ -> assert false)
      | Some reason ->
          notify (Absorbed { analyzer = a.name; reason });
          if k < policy.max_retries && not (timed_out ()) then begin
            notify (Retried { analyzer = a.name; attempt = k + 1; reason });
            attempt a (k + 1)
          end
          else `Failed reason
    in
    let rec try_chain = function
      | [] -> degraded_outcome
      | a :: rest -> (
          match attempt a 0 with
          | `Ok o ->
              if a.name <> primary.name then
                notify (Fell_back { analyzer = a.name; reason = "degraded from " ^ primary.name });
              o
          | `Failed _ -> if timed_out () then degraded_outcome else try_chain rest)
    in
    try_chain (primary :: chain)
  in
  { name = primary.name; run }
