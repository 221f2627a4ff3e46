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

type status = Verified | Counterexample of Vec.t | Unknown

type outcome = {
  status : status;
  lb : float;
  bounds : Bounds.t option;
  zono : Zonotope.analysis option;
  cert : Ivan_cert.Cert.evidence option;
}

type t = {
  name : string;
  run : Network.t -> prop:Prop.t -> box:Box.t -> splits:Splits.t -> outcome;
}

let vacuous = { status = Verified; lb = infinity; bounds = None; zono = None; cert = None }

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
(* Warm-start side channel between the BaB engine and the LP-backed
   analyzers.

   The engine sits above the analyzer abstraction and only sees
   [outcome]s, while warm-starting needs two extra pieces of plumbing:
   the parent node's simplex basis flowing IN to the next analyzer call,
   and the solved node's basis plus solver statistics flowing OUT.
   Rather than widen every analyzer signature (most analyzers never
   touch an LP), both travel through a per-domain side channel: the
   engine {!Warm.offer}s a hint before calling the analyzer and
   {!Warm.collect}s the report afterwards.  Slots are domain-local
   ([Domain.DLS]), so parallel runner workers verifying different
   properties never see each other's bases, and both slots are consumed
   on read, so a retry of a failed analyzer call runs cold instead of
   reusing a hint that may have contributed to the failure. *)

module Warm = struct
  type lp_info = {
    warm_hits : int;
    warm_misses : int;
    cold_solves : int;
    pivots : int;
    basis : Lp.Basis.t option;
  }

  let hint_slot : Lp.Basis.t option ref Domain.DLS.key =
    Domain.DLS.new_key (fun () -> ref None)

  let info_slot : lp_info option ref Domain.DLS.key =
    Domain.DLS.new_key (fun () -> ref None)

  let offer b = Domain.DLS.get hint_slot := Some b

  let clear () =
    Domain.DLS.get hint_slot := None;
    Domain.DLS.get info_slot := None

  let take_hint () =
    let r = Domain.DLS.get hint_slot in
    let v = !r in
    r := None;
    v

  let record i = Domain.DLS.get info_slot := Some i

  let collect () =
    let r = Domain.DLS.get info_slot in
    let v = !r in
    r := None;
    v
end

(* Report one LP solve's statistics through the side channel.  Only
   called after a solve that returned: a solve that raises leaves
   [last_stats] and [basis] at [None]. *)
let record_lp_info lp =
  match Lp.last_stats lp with
  | None -> ()
  | Some s ->
      let hits, misses, cold =
        match s.Lp.warm with
        | Lp.Warm_hit -> (1, 0, 0)
        | Lp.Warm_miss -> (0, 1, 0)
        | Lp.Cold -> (0, 0, 1)
      in
      Warm.record
        {
          Warm.warm_hits = hits;
          warm_misses = misses;
          cold_solves = cold;
          pivots = s.Lp.pivots;
          basis = Lp.basis lp;
        }

(* ------------------------------------------------------------------ *)
(* Interval analyzer *)

let interval_run net ~prop ~box ~splits =
  match Interval_dom.analyze net ~box ~splits with
  | Interval_dom.Infeasible -> vacuous
  | Interval_dom.Feasible bounds ->
      let itv = Bounds.objective_itv bounds ~c:prop.Prop.c ~offset:prop.Prop.offset in
      if itv.Itv.lo >= 0.0 then { status = Verified; lb = itv.Itv.lo; bounds = Some bounds; zono = None; cert = None }
      else
        let status = concrete_status net ~prop (Box.center box) in
        { status; lb = itv.Itv.lo; bounds = Some bounds; zono = None; cert = None }

let interval () = { name = "interval"; run = interval_run }

(* ------------------------------------------------------------------ *)
(* Zonotope analyzer *)

let zonotope_run net ~prop ~box ~splits =
  match Zonotope.analyze net ~box ~splits with
  | Zonotope.Infeasible -> vacuous
  | Zonotope.Feasible a ->
      let itv = Zonotope.objective_itv a ~c:prop.Prop.c ~offset:prop.Prop.offset in
      if itv.Itv.lo >= 0.0 then
        { status = Verified; lb = itv.Itv.lo; bounds = Some a.Zonotope.bounds; zono = Some a; cert = None }
      else
        let candidate = Zonotope.minimizing_input a ~c:prop.Prop.c in
        let status = concrete_status net ~prop candidate in
        { status; lb = itv.Itv.lo; bounds = Some a.Zonotope.bounds; zono = Some a; cert = None }

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
        { status = Verified; lb = itv.Itv.lo; bounds = Some bounds; zono = None; cert = None }
      else
        let status = concrete_status net ~prop (Box.center box) in
        { status; lb = itv.Itv.lo; bounds = Some bounds; zono = None; cert = None }

let deeppoly () = { name = "deeppoly"; run = deeppoly_run }

(* ------------------------------------------------------------------ *)
(* Persistent-encoding caches.

   One encoding per (network, property) pair, rebuilt only when either
   changes — detected by physical equality, which is exactly right for
   the BaB engine (it holds one network and one property for a whole
   run and calls the analyzer once per node).  Per-domain so parallel
   runner workers each hold their own. *)

let cached build =
  let slot = Domain.DLS.new_key (fun () -> ref None) in
  fun net prop ->
    let r = Domain.DLS.get slot in
    match !r with
    | Some (n, p, enc) when n == net && p == prop -> enc
    | _ ->
        let enc = build net ~prop in
        r := Some (net, prop, enc);
        enc

let triangle_encoding = cached Encoding.Triangle.build

let milp_encoding = cached Encoding.Milp.build

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

let lp_triangle_run ~deeppoly_shortcut ~warm ~certify net ~prop ~box ~splits =
  match Deeppoly.analyze net ~box ~splits with
  | Deeppoly.Infeasible -> vacuous
  | Deeppoly.Feasible dp -> (
      let bounds = Deeppoly.bounds dp in
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
      if deeppoly_shortcut && cheap_lb >= 0.0 then
        { status = Verified; lb = cheap_lb; bounds = Some bounds; zono; cert = None }
      else
        (* Specialize the persistent per-property encoding to this node
           and solve it, warm from the parent's basis when one is
           offered. *)
        let hint = Warm.take_hint () in
        let solved =
          try
            match triangle_encoding net prop with
            | None -> `Solver_failed
            | Some enc ->
                Encoding.Triangle.specialize enc ~box ~splits ~bounds;
                let lp = Encoding.Triangle.lp enc in
                let r = match hint with Some b when warm -> Lp.solve_from lp b | _ -> Lp.solve lp in
                `Result (lp, Encoding.Triangle.const enc, r)
          with Encoding.Mismatch | Lp.Iteration_limit | Lp.Numerical_failure _ -> `Solver_failed
        in
        match solved with
        | `Solver_failed ->
            (* Corrupt bounds or numerical failure: fall back on the
               sound cheap bound. *)
            if cheap_lb >= 0.0 then { status = Verified; lb = cheap_lb; bounds = Some bounds; zono; cert = None }
            else { status = Unknown; lb = cheap_lb; bounds = Some bounds; zono; cert = None }
        | `Result (lp, const, r) -> (
            record_lp_info lp;
            let cert = if certify then evidence_of lp ~const else None in
            match r with
            | Lp.Infeasible ->
                (* The relaxation is a superset of the true region, so an
                   infeasible relaxation proves the region empty. *)
                { vacuous with bounds = Some bounds; zono; cert }
            | Lp.Unbounded ->
                (* Cannot happen with a bounded input box, but stay sound. *)
                { status = Unknown; lb = cheap_lb; bounds = Some bounds; zono; cert = None }
            | Lp.Optimal { objective; primal; _ } ->
                let lb = Float.max (objective +. const) cheap_lb in
                if lb >= 0.0 then { status = Verified; lb; bounds = Some bounds; zono; cert }
                else
                  let candidate = Array.sub primal 0 (Box.dim box) in
                  let status = concrete_status net ~prop candidate in
                  { status; lb; bounds = Some bounds; zono; cert = None }))

let lp_triangle ?(deeppoly_shortcut = true) ?(warm = true) ?(certify = false) () =
  (* A shortcut verdict has no LP behind it, hence no certificate. *)
  let deeppoly_shortcut = deeppoly_shortcut && not certify in
  { name = "lp-triangle"; run = lp_triangle_run ~deeppoly_shortcut ~warm ~certify }

(* ------------------------------------------------------------------ *)
(* Exact MILP analyzer: big-M indicator encoding of every ambiguous
   ReLU, solved by branch and bound over the phase binaries.  One call
   decides the subproblem exactly (the "one-shot complete verifier"
   style the paper compares against in its §7 MILP discussion). *)

type milp_outcome = {
  milp_status : status;
  milp_lb : float;
  nodes : int;
  lp_solves : int;
  witness : Vec.t option;
}

(* A capped, numerically failed or unencodable search: inconclusive
   either way, never a fabricated answer. *)
let milp_inconclusive ~nodes ~lp_solves =
  { milp_status = Unknown; milp_lb = neg_infinity; nodes; lp_solves; witness = None }

let milp_verify ?(max_nodes = 100_000) ?incumbent ?(warm = true) net ~prop ~box ~splits =
  match Deeppoly.analyze net ~box ~splits with
  | Deeppoly.Infeasible ->
      { milp_status = Verified; milp_lb = infinity; nodes = 0; lp_solves = 0; witness = None }
  | Deeppoly.Feasible dp -> (
      let bounds = Deeppoly.bounds dp in
      let specialized =
        Option.bind (milp_encoding net prop) (fun enc ->
            match Encoding.Milp.specialize enc ~box ~splits ~bounds with
            | () -> Some enc
            | exception Encoding.Mismatch -> None)
      in
      match specialized with
      | None -> milp_inconclusive ~nodes:0 ~lp_solves:0
      | Some enc -> (
          let const = Encoding.Milp.const enc in
          (* Verification cutoff: branches that cannot push the objective
             below 0 cannot yield a counterexample, so the search always
             prunes at 0; a caller-supplied incumbent can only tighten
             the cutoff further (this is what "warm starting" amounts
             to). *)
          let cutoff = match incumbent with None -> 0.0 | Some v -> Float.min 0.0 v in
          let result =
            Ivan_lp.Milp.solve ~max_nodes ~incumbent:(cutoff -. const) ~warm (Encoding.Milp.lp enc)
              ~integer:(Encoding.Milp.binaries enc)
          in
          let stats =
            match result with
            | Ivan_lp.Milp.Infeasible s | Node_limit s | Solver_failure s -> s
            | Optimal { stats; _ } -> stats
          in
          Warm.record
            {
              Warm.warm_hits = stats.Ivan_lp.Milp.warm_hits;
              warm_misses = 0;
              cold_solves = stats.Ivan_lp.Milp.lp_solves - stats.Ivan_lp.Milp.warm_hits;
              pivots = stats.Ivan_lp.Milp.simplex_pivots;
              basis = None;
            };
          let nodes = stats.Ivan_lp.Milp.nodes and lp_solves = stats.Ivan_lp.Milp.lp_solves in
          match result with
          | Ivan_lp.Milp.Infeasible _ ->
              (* Either the region is empty or nothing goes below the
                 cutoff.  With the default cutoff 0 that proves the
                 property; with a negative warm cutoff it only bounds the
                 minimum from below. *)
              {
                milp_status = (if cutoff >= 0.0 then Verified else Unknown);
                milp_lb = cutoff;
                nodes;
                lp_solves;
                witness = None;
              }
          | Ivan_lp.Milp.Node_limit _ | Ivan_lp.Milp.Solver_failure _ ->
              milp_inconclusive ~nodes ~lp_solves
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
              { milp_status = status; milp_lb = lb; nodes; lp_solves; witness = Some witness }))

let milp_exact ?(max_nodes = 100_000) ?(warm = true) () =
  let run net ~prop ~box ~splits =
    let o = milp_verify ~max_nodes ~warm net ~prop ~box ~splits in
    { status = o.milp_status; lb = o.milp_lb; bounds = None; zono = None; cert = None }
  in
  { name = "milp-exact"; run }

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

let degraded_outcome = { status = Unknown; lb = neg_infinity; bounds = None; zono = None; cert = None }

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

let with_fallback ?chain ?(notify = fun (_ : fallback_event) -> ()) ~policy primary =
  if policy.max_retries < 0 then invalid_arg "Analyzer.with_fallback: negative max_retries";
  if policy.node_timeout <= 0.0 then invalid_arg "Analyzer.with_fallback: non-positive node_timeout";
  let chain =
    match chain with
    | Some c -> c
    | None ->
        if policy.fallback then
          List.filter (fun a -> a.name <> primary.name) [ deeppoly (); interval () ]
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
