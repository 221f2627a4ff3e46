(* Tests for the analyzers: soundness of verdicts, LP tightness,
   counterexample validity, split exactness. *)

module Vec = Ivan_tensor.Vec
module Rng = Ivan_tensor.Rng
module Network = Ivan_nn.Network
module Box = Ivan_spec.Box
module Prop = Ivan_spec.Prop
module Splits = Ivan_domains.Splits
module Analyzer = Ivan_analyzer.Analyzer
module Lp = Ivan_lp.Lp
module Encoding = Ivan_analyzer.Encoding
module Deeppoly = Ivan_domains.Deeppoly
module Zonotope = Ivan_domains.Zonotope
module Relu_id = Ivan_nn.Relu_id
module Bounds = Ivan_domains.Bounds

let analyzers () = [ Analyzer.interval (); Analyzer.zonotope (); Analyzer.lp_triangle () ]

let run_analyzer (a : Analyzer.t) net prop =
  a.Analyzer.run net ~prop ~box:prop.Prop.input ~splits:Splits.empty

(* The paper's property holds comfortably: every analyzer proves it. *)
let test_paper_property_verified () =
  let net = Fixtures.paper_net () in
  let prop = Fixtures.paper_prop () in
  List.iter
    (fun a ->
      match (run_analyzer a net prop).Analyzer.status with
      | Analyzer.Verified -> ()
      | Analyzer.Counterexample _ | Analyzer.Unknown ->
          Alcotest.failf "%s failed to verify the easy paper property" a.Analyzer.name)
    (analyzers ())

(* A false property must never be "Verified"; the LP analyzer should
   find a concrete counterexample. *)
let test_false_property () =
  let net = Fixtures.paper_net () in
  (* o1 ranges down to -2 on the box; demand o1 >= -1. *)
  let prop = Fixtures.paper_prop_with_offset 1.0 in
  List.iter
    (fun a ->
      match (run_analyzer a net prop).Analyzer.status with
      | Analyzer.Verified -> Alcotest.failf "%s verified a false property" a.Analyzer.name
      | Analyzer.Counterexample x ->
          Alcotest.(check bool)
            (a.Analyzer.name ^ " returns a genuine counterexample")
            true
            (Analyzer.check_concrete net ~prop x)
      | Analyzer.Unknown -> ())
    (analyzers ())

(* Soundness of the reported lower bound: no sampled point goes below. *)
let test_lb_sound () =
  for seed = 1 to 5 do
    let net = Fixtures.random_net ~seed ~dims:[ 3; 6; 4; 2 ] in
    let input = Box.make ~lo:(Vec.zeros 3) ~hi:(Vec.create 3 1.0) in
    let prop = Prop.make ~name:"t" ~input ~c:(Vec.of_list [ 1.0; -1.0 ]) ~offset:0.0 in
    List.iter
      (fun a ->
        let o = run_analyzer a net prop in
        if o.Analyzer.lb < infinity then
          Alcotest.(check bool)
            (a.Analyzer.name ^ " lb sound")
            true
            (Fixtures.check_margin_lb ~seed net prop o.Analyzer.lb))
      (analyzers ())
  done

(* LP with triangle relaxation is at least as tight as pure interval. *)
let test_lp_tighter_than_interval () =
  for seed = 11 to 15 do
    let net = Fixtures.random_net ~seed ~dims:[ 3; 6; 4; 2 ] in
    let input = Box.make ~lo:(Vec.zeros 3) ~hi:(Vec.create 3 1.0) in
    let prop = Prop.make ~name:"t" ~input ~c:(Vec.of_list [ 1.0; -1.0 ]) ~offset:0.0 in
    let lp = run_analyzer (Fixtures.lp_every_node ()) net prop in
    let itv = run_analyzer (Analyzer.interval ()) net prop in
    Alcotest.(check bool) "lp lb >= interval lb" true (lp.Analyzer.lb >= itv.Analyzer.lb -. 1e-6)
  done

(* With every ReLU split, the LP encoding is exact: the minimum over
   all 2^|R| phase patterns equals the true minimum of the objective,
   which for the paper network is exactly -1.5 (at input (0.5, 1)). *)
let test_fully_split_exact () =
  let net = Fixtures.paper_net () in
  let prop = Fixtures.paper_prop_with_offset 0.0 in
  let relus = Network.relu_ids net in
  let lp = Fixtures.lp_every_node () in
  (* Enumerate all 2^4 phase patterns. *)
  let count = Array.length relus in
  let best = ref infinity in
  for mask = 0 to (1 lsl count) - 1 do
    let splits = ref Splits.empty in
    Array.iteri
      (fun i r ->
        let phase = if (mask lsr i) land 1 = 1 then Splits.Pos else Splits.Neg in
        splits := Splits.add r phase !splits)
      relus;
    let o = lp.Analyzer.run net ~prop ~box:prop.Prop.input ~splits:!splits in
    if o.Analyzer.lb < !best then best := o.Analyzer.lb
  done;
  Alcotest.(check (float 1e-6)) "exact min over full split" (-1.5) !best;
  (* Sampling can only overestimate the minimum. *)
  let sampled = Fixtures.approx_min_margin ~seed:7 net prop in
  Alcotest.(check bool) "sampled min above exact" true (sampled >= !best -. 1e-9)

(* Vacuous subproblems: a contradictory phase makes the analyzer return
   Verified with an infinite lb. *)
let test_vacuous_verified () =
  let net = Fixtures.paper_net () in
  (* On [0.2, 1]^2 the relu r[0,1] has pre = i1 + i2 >= 0.4 strictly, so
     assuming its Neg phase empties the region. *)
  let input = Box.make ~lo:(Vec.of_list [ 0.2; 0.2 ]) ~hi:(Vec.of_list [ 1.0; 1.0 ]) in
  let prop = Prop.make ~name:"vacuous" ~input ~c:(Vec.of_list [ 1.0 ]) ~offset:0.0 in
  let r = Ivan_nn.Relu_id.make ~layer:0 ~index:1 in
  let splits = Splits.add r Splits.Neg Splits.empty in
  List.iter
    (fun (a : Analyzer.t) ->
      let o = a.Analyzer.run net ~prop ~box:prop.Prop.input ~splits in
      match o.Analyzer.status with
      | Analyzer.Verified -> Alcotest.(check bool) "lb inf" true (o.Analyzer.lb = infinity)
      | Analyzer.Counterexample _ | Analyzer.Unknown ->
          Alcotest.failf "%s did not detect the empty region" a.Analyzer.name)
    (analyzers ())

(* check_concrete rejects points outside the region and points that
   satisfy psi. *)
let test_check_concrete () =
  let net = Fixtures.paper_net () in
  let prop = Fixtures.paper_prop_with_offset 1.0 in
  (* (0, 1): layer1 post (0, 1); layer2 pre (-2, 1) post (0, 1); o1 = -1.
     margin = -1 + 1 = 0 -> psi holds (>= 0), not a counterexample. *)
  Alcotest.(check bool) "boundary point not a CE" false
    (Analyzer.check_concrete net ~prop (Vec.of_list [ 0.0; 1.0 ]));
  (* Outside the box. *)
  Alcotest.(check bool) "outside box" false
    (Analyzer.check_concrete net ~prop (Vec.of_list [ 2.0; 2.0 ]));
  (* A genuinely violating point for a stricter property: margin at
     (0, 1) is -1 + 0.5 = -0.5 < 0. *)
  let strict = Fixtures.paper_prop_with_offset 0.5 in
  Alcotest.(check bool) "violating point accepted" true
    (Analyzer.check_concrete net ~prop:strict (Vec.of_list [ 0.0; 1.0 ]))

let test_lp_shortcut_consistent () =
  (* With and without the DeepPoly shortcut, the verdict agrees on easy
     verified instances. *)
  let net = Fixtures.paper_net () in
  let prop = Fixtures.paper_prop () in
  let a1 = run_analyzer (Analyzer.lp_triangle ()) net prop in
  let a2 = run_analyzer (Fixtures.lp_every_node ()) net prop in
  match (a1.Analyzer.status, a2.Analyzer.status) with
  | Analyzer.Verified, Analyzer.Verified -> ()
  | _, _ -> Alcotest.fail "shortcut changed the verdict"

(* [lp_triangle] skips the LP on a node DeepPoly proves exactly when
   [certify] is off: the paper property is such a node, so it gets an
   LP report only under [certify]. *)
let test_lp_runs_exactly_under_certify () =
  let net = Fixtures.paper_net () in
  let prop = Fixtures.paper_prop () in
  let deeppoly = run_analyzer (Analyzer.deeppoly ()) net prop in
  Alcotest.(check bool) "DeepPoly proves the node" true (deeppoly.Analyzer.status = Analyzer.Verified);
  let lp certify =
    Analyzer.Warm.clear ();
    let o = run_analyzer (Analyzer.lp_triangle ~certify ()) net prop in
    Alcotest.(check bool) "verified" true (o.Analyzer.status = Analyzer.Verified);
    o.Analyzer.lp
  in
  Alcotest.(check bool) "no LP without certify" true (lp false = None);
  Alcotest.(check bool) "the LP under certify" true (Option.is_some (lp true))

let prop_analyzer_never_unsound =
  QCheck.Test.make ~name:"analyzer verdicts sound on random instances" ~count:15
    QCheck.(make QCheck.Gen.(pair (int_range 1 10_000) (float_range (-2.0) 2.0)))
    (fun (seed, offset) ->
      let net = Fixtures.random_net ~seed ~dims:[ 2; 5; 3; 1 ] in
      let input = Box.make ~lo:(Vec.zeros 2) ~hi:(Vec.create 2 1.0) in
      let prop = Prop.make ~name:"q" ~input ~c:(Vec.of_list [ 1.0 ]) ~offset in
      let sampled_min = Fixtures.approx_min_margin ~seed net prop in
      List.for_all
        (fun (a : Analyzer.t) ->
          let o = a.Analyzer.run net ~prop ~box:input ~splits:Splits.empty in
          match o.Analyzer.status with
          | Analyzer.Verified -> sampled_min >= -1e-6 (* claim must match reality *)
          | Analyzer.Counterexample x -> Analyzer.check_concrete net ~prop x
          | Analyzer.Unknown -> true)
        (analyzers ()))



(* ---------------- MILP exact analyzer ---------------- *)

(* The MILP analyzer decides the paper network's property in one call,
   with the exact minimum -1.5. *)
let test_milp_exact_paper_net () =
  let net = Fixtures.paper_net () in
  let prop = Fixtures.paper_prop_with_offset 0.0 in
  let o =
    Analyzer.milp_verify net ~prop ~box:prop.Prop.input ~splits:Splits.empty
  in
  Alcotest.(check (float 1e-6)) "exact minimum" (-1.5) o.Analyzer.milp_lb;
  (match o.Analyzer.milp_status with
  | Analyzer.Counterexample x ->
      Alcotest.(check bool) "CE genuine" true (Analyzer.check_concrete net ~prop x)
  | Analyzer.Verified | Analyzer.Unknown -> Alcotest.fail "expected a counterexample");
  (* The same property shifted above the minimum verifies in one call. *)
  let proved = Fixtures.paper_prop_with_offset 1.6 in
  let o2 =
    Analyzer.milp_verify net ~prop:proved ~box:proved.Prop.input ~splits:Splits.empty
  in
  Alcotest.(check bool) "verified" true (o2.Analyzer.milp_status = Analyzer.Verified);
  (* Verification cutoff: a verified run reports the cutoff 0, not the
     exact (positive) margin. *)
  Alcotest.(check (float 1e-6)) "cutoff lb" 0.0 o2.Analyzer.milp_lb;
  (* The golden subjects at their roots: status, the bits of [milp_lb]
     and the node count, pinned.  The conv subject's search runs past
     1000 nodes, so it is capped at 20. *)
  let status_name = function
    | Analyzer.Verified -> "verified"
    | Analyzer.Counterexample _ -> "counterexample"
    | Analyzer.Unknown -> "unknown"
  in
  List.iter2
    (fun (name, net, prop) (max_nodes, status, lb_bits, nodes) ->
      let o = Analyzer.milp_verify ?max_nodes net ~prop ~box:prop.Prop.input ~splits:Splits.empty in
      Alcotest.(check string) (name ^ ": status") status (status_name o.Analyzer.milp_status);
      Alcotest.(check int64) (name ^ ": milp_lb bits") lb_bits (Int64.bits_of_float o.Analyzer.milp_lb);
      Alcotest.(check int) (name ^ ": nodes") nodes o.Analyzer.nodes)
    (Fixtures.golden_subjects ())
    [
      (None, "counterexample", 0xbfc1788036975ecaL, 37);
      (None, "verified", 0L, 1);
      (Some 20, "unknown", 0xfff0000000000000L, 20);
    ]

(* MILP and BaB (both complete) decide small random instances, and
   decide them alike. *)
let test_milp_matches_bab () =
  for seed = 61 to 66 do
    let net = Fixtures.random_net ~seed ~dims:[ 2; 4; 3; 1 ] in
    let input = Box.make ~lo:(Vec.zeros 2) ~hi:(Vec.create 2 1.0) in
    let prop = Prop.make ~name:"m" ~input ~c:(Vec.of_list [ 1.0 ]) ~offset:0.3 in
    let milp = Analyzer.milp_verify net ~prop ~box:input ~splits:Splits.empty in
    let bab =
      Ivan_bab.Bab.verify ~analyzer:(Analyzer.lp_triangle ())
        ~heuristic:Ivan_bab.Heuristic.zono_coeff ~net ~prop ()
    in
    match (milp.Analyzer.milp_status, bab.Ivan_bab.Bab.verdict) with
    | Analyzer.Verified, Ivan_bab.Bab.Proved -> ()
    | Analyzer.Counterexample _, Ivan_bab.Bab.Disproved _ -> ()
    | Analyzer.Unknown, _ -> Alcotest.failf "seed %d: MILP did not decide" seed
    | _, Ivan_bab.Bab.Exhausted -> Alcotest.failf "seed %d: BaB did not decide" seed
    | _, _ -> Alcotest.failf "seed %d: MILP and BaB verdicts disagree" seed
  done

(* MILP with split assumptions agrees with the fully-split LP. *)
let test_milp_respects_splits () =
  let net = Fixtures.paper_net () in
  let prop = Fixtures.paper_prop_with_offset 0.0 in
  let r = Ivan_nn.Relu_id.make ~layer:0 ~index:0 in
  List.iter
    (fun phase ->
      let splits = Splits.add r phase Splits.empty in
      let o = Analyzer.milp_verify net ~prop ~box:prop.Prop.input ~splits in
      (* The split subproblem minimum is at least the global minimum. *)
      Alcotest.(check bool) "split min >= global min" true (o.Analyzer.milp_lb >= -1.5 -. 1e-9))
    [ Splits.Pos; Splits.Neg ];
  (* A split of the first golden subject under which the encoding built
     from the node's bounds has other units than the one built from the
     root's: either is exact, so the optimum is the root-built one's,
     -0x1.34b2c835f4db4p-9, up to rounding. *)
  let _, net, prop = List.hd (Fixtures.golden_subjects ()) in
  let splits = Splits.add (Ivan_nn.Relu_id.make ~layer:0 ~index:9) Splits.Neg Splits.empty in
  let o = Analyzer.milp_verify net ~prop ~box:prop.Prop.input ~splits in
  (match o.Analyzer.milp_status with
  | Analyzer.Counterexample x ->
      Alcotest.(check bool) "split CE genuine" true (Analyzer.check_concrete net ~prop x)
  | Analyzer.Verified | Analyzer.Unknown -> Alcotest.fail "expected a counterexample on the split");
  Alcotest.(check (float 1e-15)) "split optimum" (-0x1.34b2c835f4db4p-9) o.Analyzer.milp_lb

(* Warm starting: for instances that end up verified, a positive warm
   margin cannot tighten the 0 cutoff, so node counts are identical (the
   paper's "insignificant speedup").  For falsified instances a negative
   warm margin prunes. *)
let test_milp_warm_start () =
  let net = Fixtures.paper_net () in
  (* Verified case: warm bound is positive -> cutoff unchanged. *)
  let proved = Fixtures.paper_prop_with_offset 1.6 in
  let cold =
    Analyzer.milp_verify net ~prop:proved ~box:proved.Prop.input ~splits:Splits.empty
  in
  let warm =
    Analyzer.milp_verify ~incumbent:0.5 net ~prop:proved ~box:proved.Prop.input
      ~splits:Splits.empty
  in
  Alcotest.(check bool) "both verified" true
    (cold.Analyzer.milp_status = Analyzer.Verified && warm.Analyzer.milp_status = Analyzer.Verified);
  Alcotest.(check int) "identical node counts" cold.Analyzer.nodes warm.Analyzer.nodes;
  (* Falsified case: warm start with the known violating margin. *)
  let falsified = Fixtures.paper_prop_with_offset 1.4 in
  let cold_f =
    Analyzer.milp_verify net ~prop:falsified ~box:falsified.Prop.input ~splits:Splits.empty
  in
  (match cold_f.Analyzer.milp_status with
  | Analyzer.Counterexample x ->
      Alcotest.(check bool) "CE genuine" true (Analyzer.check_concrete net ~prop:falsified x)
  | Analyzer.Verified | Analyzer.Unknown -> Alcotest.fail "expected counterexample");
  let warm_f =
    Analyzer.milp_verify ~incumbent:(-0.1 +. 0.0) net ~prop:falsified ~box:falsified.Prop.input
      ~splits:Splits.empty
  in
  Alcotest.(check bool) "warm explores no more nodes" true
    (warm_f.Analyzer.nodes <= cold_f.Analyzer.nodes)

let test_milp_rejects_leaky () =
  let net =
    Ivan_nn.Builder.dense_net_act ~hidden_activation:(Ivan_nn.Layer.Leaky_relu 0.1)
      ~rng:(Ivan_tensor.Rng.create 1) ~dims:[ 2; 3; 1 ]
  in
  let input = Box.make ~lo:(Vec.zeros 2) ~hi:(Vec.create 2 1.0) in
  let prop = Prop.make ~name:"l" ~input ~c:(Vec.of_list [ 1.0 ]) ~offset:0.0 in
  Alcotest.check_raises "leaky rejected"
    (Invalid_argument "Analyzer.milp_verify: only plain ReLU networks are supported") (fun () ->
      ignore (Analyzer.milp_verify net ~prop ~box:input ~splits:Splits.empty));
  (* Neither one-shot encoding accepts a box of the wrong dimension: a
     3-dim box on the 2-input paper net, with the bounds of its own
     root. *)
  let net = Fixtures.paper_net () in
  let prop = Fixtures.paper_prop_with_offset 0.0 in
  let bounds =
    match Deeppoly.analyze net ~box:prop.Prop.input ~splits:Splits.empty with
    | Deeppoly.Feasible dp -> Deeppoly.bounds dp
    | Deeppoly.Infeasible -> Alcotest.fail "empty paper root"
  in
  let box = Box.make ~lo:(Vec.zeros 3) ~hi:(Vec.create 3 1.0) in
  Alcotest.check_raises "build_lp: wrong box dimension" Encoding.Mismatch (fun () ->
      ignore (Encoding.build_lp net ~prop ~box ~splits:Splits.empty ~bounds));
  Alcotest.check_raises "milp: wrong box dimension" Encoding.Mismatch (fun () ->
      ignore (Encoding.milp net ~prop ~box ~splits:Splits.empty ~bounds))



(* The crash wiring of [lp_triangle] on a golden dense subject.  The
   node splits a first-layer unit to the side the crash corner (each
   input at the end minimizing its zonotope objective coefficient) is
   not on.  With no hint, the crash basis violates the split and the
   dual simplex answers: one cold solve, with the bound of the plain
   solve from the slack basis.  With a hint the solver cannot install,
   the warm miss reaches the same bound. *)
let test_crash_wiring () =
  let _, net, prop = List.hd (Fixtures.golden_subjects ()) in
  let box = prop.Prop.input in
  let corner splits =
    match Zonotope.analyze net ~box ~splits with
    | Zonotope.Infeasible -> None
    | Zonotope.Feasible a ->
        let obj = Zonotope.objective_coeffs a ~c:prop.Prop.c in
        Some (Array.init (Box.dim box) (fun j -> if obj.(j) < 0.0 then Box.hi_at box j else Box.lo_at box j))
  in
  let tri = Option.get (Encoding.Triangle.build net ~prop) in
  (* The node's plain optimum, from the slack basis, when it has one. *)
  let plain splits =
    match Deeppoly.analyze net ~box ~splits with
    | Deeppoly.Infeasible -> None
    | Deeppoly.Feasible dp -> (
        Encoding.Triangle.specialize tri ~box ~splits ~bounds:(Deeppoly.bounds dp);
        let lp = Encoding.Triangle.lp tri in
        match Lp.solve lp with
        | Lp.Optimal s -> Some (s.Lp.objective +. Encoding.Triangle.const tri)
        | _ -> None)
  in
  let violating (r : Relu_id.t) =
    List.find_map
      (fun phase ->
        let splits = Splits.add r phase Splits.empty in
        match corner splits with
        | None -> None
        | Some x ->
            let pre = (Network.forward_trace net x).Network.pre.(r.Relu_id.layer).(r.Relu_id.index) in
            let outside = if phase = Splits.Neg then pre > 1e-6 else pre < -1e-6 in
            if outside then Option.map (fun v -> (splits, v)) (plain splits) else None)
      [ Splits.Neg; Splits.Pos ]
  in
  let splits, expected =
    match
      List.find_map
        (fun (r : Relu_id.t) -> if r.Relu_id.layer = 0 then violating r else None)
        (Array.to_list (Network.relu_ids net))
    with
    | Some found -> found
    | None -> Alcotest.fail "no node whose crash corner violates its split"
  in
  let a = Fixtures.lp_every_node () in
  let run () =
    let o = a.Analyzer.run net ~prop ~box ~splits in
    match o.Analyzer.lp with
    | Some info -> (o, info)
    | None -> Alcotest.fail "no LP report"
  in
  Analyzer.Warm.clear ();
  let o, info = run () in
  let tolerance = 1e-6 *. (1.0 +. Float.abs expected) in
  Alcotest.(check int) "one cold solve" 1 info.Analyzer.cold_solves;
  Alcotest.(check (float tolerance)) "plain bound" expected o.Analyzer.lb;
  let empty = Lp.Basis.make ~basics:[||] ~statuses:[||] in
  Analyzer.Warm.offer { info with Analyzer.basis = Some empty; deeppoly = None };
  let o, info = run () in
  Alcotest.(check int) "one warm miss" 1 info.Analyzer.warm_misses;
  Alcotest.(check (float tolerance)) "plain bound after the miss" expected o.Analyzer.lb

(* A net the triangle LP does not decide at its root (the property
   takes 9 calls of ReLU-splitting BaB), and a node runner that stages
   [hint] (or clears the channel) and returns the outcome with the LP
   report, absent when DeepPoly finds the node empty. *)
let split_subject () =
  (Fixtures.random_net ~seed:3 ~dims:[ 2; 8; 8; 1 ], Fixtures.paper_prop_with_offset 0.5)

let run_node (a : Analyzer.t) net prop hint splits =
  (match hint with Some h -> Analyzer.Warm.offer h | None -> Analyzer.Warm.clear ());
  let o = a.Analyzer.run net ~prop ~box:prop.Prop.input ~splits in
  (o, o.Analyzer.lp)

let bits = Int64.bits_of_float

let same_outcome label ((o : Analyzer.outcome), info) ((o' : Analyzer.outcome), info') =
  let layer_bits (l : Bounds.layer) =
    List.map (Array.map bits) [ l.pre_lo; l.pre_hi; l.post_lo; l.post_hi ]
  in
  let bounds_bits o =
    Option.map (fun b -> Array.map layer_bits b.Bounds.layers) o.Analyzer.bounds
  in
  let stats = function
    | None -> None
    | Some (i : Analyzer.lp_report) ->
        Some (i.warm_hits, i.warm_misses, i.cold_solves, i.pivots, i.factor_pivots)
  in
  Alcotest.(check int64) (label ^ ": lb") (bits o.lb) (bits o'.lb);
  Alcotest.(check bool) (label ^ ": status") true (o.status = o'.status);
  Alcotest.(check bool) (label ^ ": bounds") true (bounds_bits o = bounds_bits o');
  Alcotest.(check bool) (label ^ ": LP stats") true (stats info = stats info')

(* Down a BaB path (each step splits the deepest, then the shallowest
   ambiguous unit of the node, both phases), a child offered its
   parent's report comes out exactly as a child offered nothing: with
   [~warm:false] the whole report changes nothing, and with warm starts
   on, the DeepPoly run in it changes nothing beside the basis. *)
let test_deeppoly_hint_changes_nothing () =
  let net, prop = split_subject () in
  let cold = Fixtures.lp_every_node ~warm:false () in
  let warm = Fixtures.lp_every_node () in
  let resumed = ref 0 in
  let rec walk depth splits (info : Analyzer.lp_report) =
    let o, _ = run_node cold net prop None splits in
    match o.Analyzer.bounds with
    | None -> ()
    | Some b -> (
        match Bounds.ambiguous_relus b net ~splits with
        | [] -> ()
        | ambiguous when depth < 3 ->
            let r =
              if depth mod 2 = 0 then List.nth ambiguous (List.length ambiguous - 1)
              else List.hd ambiguous
            in
            List.iter
              (fun phase ->
                let child = Splits.add r phase splits in
                let label = Format.asprintf "%a" Splits.pp child in
                let plain = run_node cold net prop None child in
                same_outcome (label ^ " cold") plain (run_node cold net prop (Some info) child);
                same_outcome (label ^ " warm")
                  (run_node warm net prop (Some { info with deeppoly = None }) child)
                  (run_node warm net prop (Some info) child);
                incr resumed;
                match plain with
                | _, Some child_info when phase = Splits.Pos -> walk (depth + 1) child child_info
                | _ -> ())
              [ Splits.Pos; Splits.Neg ]
        | _ -> ())
  in
  (match run_node cold net prop None Splits.empty with
  | _, Some info -> walk 0 Splits.empty info
  | _, None -> Alcotest.fail "no LP report at the root");
  Alcotest.(check bool) "children checked" true (!resumed >= 4)

(* An analyzer retry under [with_fallback] finds the hint taken by the
   failed attempt, so it runs cold: the offered basis would have
   warm-started the child. *)
let test_retry_runs_cold () =
  let net, prop = split_subject () in
  let inner = Fixtures.lp_every_node () in
  let root, root_info = run_node inner net prop None Splits.empty in
  let info = match root_info with Some i -> i | None -> Alcotest.fail "no LP report at the root" in
  let r =
    match root.Analyzer.bounds with
    | Some b -> (
        match Bounds.ambiguous_relus b net ~splits:Splits.empty with
        | r :: _ -> r
        | [] -> Alcotest.fail "root has no ambiguous unit")
    | None -> Alcotest.fail "root is empty"
  in
  let child = Splits.add r Splits.Pos Splits.empty in
  let cold_solves = function
    | _, Some (i : Analyzer.lp_report) -> i.cold_solves
    | _, None -> Alcotest.fail "no LP report at the child"
  in
  Alcotest.(check int) "offered basis starts the solve" 0
    (cold_solves (run_node inner net prop (Some info) child));
  let failed = ref false in
  let flaky =
    {
      inner with
      Analyzer.run =
        (fun net ~prop ~box ~splits ->
          let o = inner.Analyzer.run net ~prop ~box ~splits in
          if !failed then o
          else begin
            failed := true;
            failwith "injected"
          end);
    }
  in
  let hardened = Analyzer.with_fallback ~policy:Analyzer.default_policy flaky in
  let retried = run_node hardened net prop (Some info) child in
  Alcotest.(check bool) "first attempt failed" true !failed;
  Alcotest.(check int) "retry solves cold" 1 (cold_solves retried);
  same_outcome "retry" (run_node inner net prop None child) retried

(* A node's LP is the same whichever call builds the persistent
   encoding.  The first LP call on a (network, property) pair builds it,
   from the root call's own DeepPoly bounds when that call is the root,
   else from a DeepPoly run of the root: a split child's or a sub-box's
   bounds hold only on that subproblem.  The nodes checked are ones the
   LP certifies and whose own bounds, seeding the encoding, would give a
   different LP.
   Node first then root, and root first then node, give the same
   outcomes bit for bit, and the node's certified snapshot is the
   encoding built from the property root, specialized to the node. *)
let test_root_bounds_seed_only_the_root () =
  let net = Fixtures.random_net ~seed:4 ~dims:[ 2; 8; 8; 1 ] in
  let prop = Fixtures.paper_prop_with_offset 0.5 in
  let a = Analyzer.lp_triangle ~certify:true () in
  let input = prop.Prop.input in
  (* A copy of the property misses the analyzer's one-slot cache. *)
  let fresh () = Prop.make ~name:prop.Prop.name ~input ~c:prop.Prop.c ~offset:prop.Prop.offset in
  (* A digest of the snapshot's bytes. *)
  let fingerprint (s : Ivan_cert.Cert.Snapshot.t) = Digest.to_hex (Digest.string (Marshal.to_string s [])) in
  let call prop (box, splits) =
    Analyzer.Warm.clear ();
    let o = a.Analyzer.run net ~prop ~box ~splits in
    ( bits o.Analyzer.lb,
      Option.map
        (fun (e : Ivan_cert.Cert.evidence) -> fingerprint e.snapshot)
        o.Analyzer.cert )
  in
  let bounds (box, splits) =
    match Deeppoly.analyze net ~box ~splits with
    | Deeppoly.Feasible dp -> Some (Deeppoly.bounds dp)
    | Deeppoly.Infeasible -> None
  in
  let root = (input, Splits.empty) in
  let root_ambiguous = Bounds.ambiguous_relus (Option.get (bounds root)) net ~splits:Splits.empty in
  let snapshot_of ?root ((box, splits) as node) =
    let tri = Option.get (Encoding.Triangle.build ?root net ~prop) in
    Encoding.Triangle.specialize tri ~box ~splits ~bounds:(Option.get (bounds node));
    fingerprint (Ivan_cert.Cert.Snapshot.of_problem (Encoding.Triangle.lp tri))
  in
  let expected node = snapshot_of node in
  let wanted node =
    Option.is_some (snd (call (fresh ()) node))
    && Option.is_some (bounds node)
    && snapshot_of ?root:(bounds node) node <> expected node
  in
  let check label node =
    let first = fresh () in
    let node_first = call first node in
    let root_after = call first root in
    let second = fresh () in
    let root_first = call second root in
    let node_after = call second node in
    let same what (lb, snap) (lb', snap') =
      Alcotest.(check int64) (label ^ ": " ^ what ^ " lb") lb lb';
      Alcotest.(check (option string)) (label ^ ": " ^ what ^ " snapshot") snap snap'
    in
    same "node" node_first node_after;
    same "root" root_after root_first;
    Alcotest.(check (option string)) (label ^ ": built from the root") (Some (expected node)) (snd node_first)
  in
  let children =
    List.concat_map
      (fun r -> List.map (fun phase -> (input, Splits.add r phase Splits.empty)) [ Splits.Pos; Splits.Neg ])
      root_ambiguous
  in
  let halves =
    List.concat_map
      (fun j ->
        let lo, hi = Box.split_dim input j in
        [ (lo, Splits.empty); (hi, Splits.empty) ])
      (List.init (Box.dim input) Fun.id)
  in
  (match List.find_opt wanted children with
  | Some node -> check "split child" node
  | None -> Alcotest.fail "no split child to check");
  match List.find_opt wanted halves with
  | Some node -> check "sub-box" node
  | None -> Alcotest.fail "no sub-box to check"

(* ---------------- closure by carried multipliers ---------------- *)

module Tree = Ivan_spectree.Tree

(* One call with the node's own multipliers [own] staged (or nothing):
   the outcome and its LP report. *)
let call ?own (a : Analyzer.t) net prop splits =
  (match own with Some m -> Analyzer.Warm.offer_multipliers m | None -> Analyzer.Warm.clear ());
  let o = a.Analyzer.run net ~prop ~box:prop.Prop.input ~splits in
  match o.Analyzer.lp with Some r -> (o, r) | None -> Alcotest.fail "no LP report"

(* The multipliers a verified call leaves for the next run. *)
let proof_of ((o : Analyzer.outcome), (r : Analyzer.lp_report)) =
  if o.Analyzer.status <> Analyzer.Verified then Alcotest.fail "the LP did not verify the node";
  match r.Analyzer.proof with Some m -> m | None -> Alcotest.fail "no multipliers on a verified node"

(* The paper net (N) and a 2% perturbation of it (N^a).  At offset 1.9
   the property's margin on N is 0.4, and both triangle LPs prove it at
   the root. *)
let transfer_pair () =
  let net = Fixtures.paper_net () in
  (net, Ivan_nn.Perturb.random_relative ~rng:(Rng.create 7) ~fraction:0.02 net)

(* N's root multipliers close N^a's root with no simplex: [Verified],
   0 pivots, and a bound at most the one N^a's own LP proves. *)
let test_transfer_closes_seed_leaf () =
  let net, updated = transfer_pair () in
  let prop = Fixtures.paper_prop_with_offset 1.9 in
  let a = Fixtures.lp_every_node () in
  let m = proof_of (call a net prop Splits.empty) in
  Alcotest.(check bool) "a dual vector" false m.Tree.farkas;
  let o, r = call ~own:m a updated prop Splits.empty in
  let o', r' = call a updated prop Splits.empty in
  Alcotest.(check bool) "closed" true r.Analyzer.closed;
  Alcotest.(check bool) "verified" true (o.Analyzer.status = Analyzer.Verified);
  Alcotest.(check int) "no pivots" 0 (r.Analyzer.pivots + r.Analyzer.factor_pivots);
  Alcotest.(check int) "no solve" 0 (r.Analyzer.warm_hits + r.Analyzer.warm_misses + r.Analyzer.cold_solves);
  Alcotest.(check bool) "the LP proves it too" true (o'.Analyzer.status = Analyzer.Verified && not r'.Analyzer.closed);
  Alcotest.(check bool)
    (Printf.sprintf "closed lb %h within [0, the LP's %h]" o.Analyzer.lb o'.Analyzer.lb)
    true
    (0.0 <= o.Analyzer.lb && o.Analyzer.lb <= o'.Analyzer.lb);
  (* Like a parent's basis, they are a cache that only [warm] reads. *)
  let cold_analyzer = Fixtures.lp_every_node ~warm:false () in
  let _, cold = call ~own:m cold_analyzer updated prop Splits.empty in
  Alcotest.(check bool) "not closed under ~warm:false" false cold.Analyzer.closed;
  Alcotest.(check int) "solved cold" 1 cold.Analyzer.cold_solves;
  (* The carried multipliers become the node's own, keyed by N^a's rows. *)
  match r.Analyzer.proof with
  | Some m' -> Alcotest.(check int) "re-keyed" (Array.length m'.Tree.keys) (Array.length m'.Tree.y)
  | None -> Alcotest.fail "a closed node without multipliers"

(* One input x in [-1, 1] and two ReLUs on x and x - 0.5: splitting the
   first inactive (x <= 0) and the second active (x >= 0.5) leaves each
   unit's own bounds non-empty, so DeepPoly passes the node on to the
   LP, whose rows have no common point. *)
let empty_leaf_net bias =
  Network.make
    [
      Fixtures.dense [| [| 1.0 |]; [| 1.0 |] |] [| 0.0; bias |];
      Fixtures.dense ~activation:Ivan_nn.Layer.Identity [| [| 1.0; 1.0 |] |] [| 0.0 |];
    ]

let test_transfer_farkas () =
  let prop =
    Prop.make ~name:"empty" ~input:(Box.make ~lo:[| -1.0 |] ~hi:[| 1.0 |]) ~c:[| 1.0 |] ~offset:(-5.0)
  in
  let splits =
    Splits.empty
    |> Splits.add (Relu_id.make ~layer:0 ~index:0) Splits.Neg
    |> Splits.add (Relu_id.make ~layer:0 ~index:1) Splits.Pos
  in
  let a = Fixtures.lp_every_node () in
  let m = proof_of (call a (empty_leaf_net (-0.5)) prop splits) in
  Alcotest.(check bool) "a Farkas witness" true m.Tree.farkas;
  let o, r = call ~own:m a (empty_leaf_net (-0.4)) prop splits in
  Alcotest.(check bool) "closed" true r.Analyzer.closed;
  Alcotest.(check int) "no pivots" 0 r.Analyzer.pivots;
  Alcotest.(check bool) "vacuous" true (o.Analyzer.status = Analyzer.Verified && o.Analyzer.lb = infinity);
  (match r.Analyzer.proof with
  | Some m' -> Alcotest.(check bool) "still a Farkas witness" true m'.Tree.farkas
  | None -> Alcotest.fail "a closed node without multipliers");
  (* Where the rows meet again, the witness proves nothing. *)
  let o, r = call ~own:m a (empty_leaf_net 0.5) prop splits in
  Alcotest.(check bool) "not closed on a non-empty leaf" false r.Analyzer.closed;
  Alcotest.(check bool) "the LP's verdict" true (o.Analyzer.status <> Analyzer.Verified)

(* Corrupted multipliers never close a node: on N^a's root, where the
   LP proves the property, they fall through to the simplex and reach
   its verdict; at a tighter offset, where the LP does not prove it,
   neither they nor the intact ones yield [Verified]. *)
let test_transfer_adversarial () =
  let net, updated = transfer_pair () in
  let a = Fixtures.lp_every_node () in
  let m = proof_of (call a net (Fixtures.paper_prop_with_offset 1.9) Splits.empty) in
  let nan_at i y = Array.mapi (fun k v -> if k = i then nan else v) y in
  let corrupted =
    [
      ("signs flipped", { m with Tree.y = Array.map Float.neg m.Tree.y });
      ("scaled by 1e6", { m with Tree.y = Array.map (fun v -> v *. 1e6) m.Tree.y });
      ("NaN", { m with Tree.y = Array.map (fun _ -> nan) m.Tree.y });
      ( "one NaN",
        let i = ref 0 in
        Array.iteri (fun k v -> if v <> 0.0 then i := k) m.Tree.y;
        { m with Tree.y = nan_at !i m.Tree.y } );
      ("keys permuted", { m with Tree.keys = Array.of_list (List.rev (Array.to_list m.Tree.keys)) });
      ("keys shifted", { m with Tree.keys = Array.map (fun k -> k + 1) m.Tree.keys });
      ("too short", { m with Tree.y = Array.sub m.Tree.y 1 (Array.length m.Tree.y - 1) });
    ]
  in
  let proved = Fixtures.paper_prop_with_offset 1.9 in
  let plain, _ = call a updated proved Splits.empty in
  List.iter
    (fun (label, m') ->
      let o, r = call ~own:m' a updated proved Splits.empty in
      Alcotest.(check bool) (label ^ ": falls through") false r.Analyzer.closed;
      Alcotest.(check bool) (label ^ ": solved") true
        (r.Analyzer.warm_hits + r.Analyzer.warm_misses + r.Analyzer.cold_solves = 1);
      Alcotest.(check bool) (label ^ ": the LP's verdict") true (o.Analyzer.status = plain.Analyzer.status))
    corrupted;
  let tight = Fixtures.paper_prop_with_offset 1.45 in
  let plain, _ = call a updated tight Splits.empty in
  Alcotest.(check bool) "the LP does not prove the tight property" true
    (plain.Analyzer.status <> Analyzer.Verified);
  List.iter
    (fun (label, m') ->
      let o, r = call ~own:m' a updated tight Splits.empty in
      Alcotest.(check bool) (label ^ ": not closed") false r.Analyzer.closed;
      Alcotest.(check bool) (label ^ ": not verified") true (o.Analyzer.status <> Analyzer.Verified))
    (("intact", m) :: corrupted)

let suite =
  let q = QCheck_alcotest.to_alcotest in
  [
    ("paper property verified", `Quick, test_paper_property_verified);
    ("false property", `Quick, test_false_property);
    ("lb sound", `Quick, test_lb_sound);
    ("lp tighter than interval", `Quick, test_lp_tighter_than_interval);
    ("fully split exact", `Quick, test_fully_split_exact);
    ("vacuous verified", `Quick, test_vacuous_verified);
    ("check concrete", `Quick, test_check_concrete);
    ("lp shortcut consistent", `Quick, test_lp_shortcut_consistent);
    ("lp runs exactly under certify", `Quick, test_lp_runs_exactly_under_certify);
    q prop_analyzer_never_unsound;
    ("milp exact on paper net", `Quick, test_milp_exact_paper_net);
    ("milp matches bab", `Quick, test_milp_matches_bab);
    ("milp respects splits", `Quick, test_milp_respects_splits);
    ("milp warm start", `Quick, test_milp_warm_start);
    ("milp rejects leaky", `Quick, test_milp_rejects_leaky);
    ("crash basis wiring", `Quick, test_crash_wiring);
    ("deeppoly hint changes nothing", `Quick, test_deeppoly_hint_changes_nothing);
    ("retry runs cold", `Quick, test_retry_runs_cold);
    ("root bounds seed only the root", `Quick, test_root_bounds_seed_only_the_root);
    ("transfer closes a seed leaf", `Quick, test_transfer_closes_seed_leaf);
    ("transfer of a farkas witness", `Quick, test_transfer_farkas);
    ("transfer of corrupted multipliers", `Quick, test_transfer_adversarial);
    QCheck_alcotest.to_alcotest
      ~rand:(Random.State.make [| Encoding_oracle.Oracle.seed |])
      (Encoding_oracle.Oracle.test ~count:Encoding_oracle.Oracle.tier1_count);
    QCheck_alcotest.to_alcotest
      ~rand:(Random.State.make [| Encoding_oracle.Oracle.seed |])
      (Encoding_oracle.Oracle.crash_test ~count:Encoding_oracle.Oracle.crash_tier1_count);
    QCheck_alcotest.to_alcotest
      ~rand:(Random.State.make [| Encoding_oracle.Oracle.seed |])
      (Encoding_oracle.Oracle.transfer_test ~count:Encoding_oracle.Oracle.transfer_tier1_count);
  ]
