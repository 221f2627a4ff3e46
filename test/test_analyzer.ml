(* Tests for the analyzers: soundness of verdicts, LP tightness,
   counterexample validity, split exactness. *)

module Vec = Ivan_tensor.Vec
module Rng = Ivan_tensor.Rng
module Network = Ivan_nn.Network
module Box = Ivan_spec.Box
module Prop = Ivan_spec.Prop
module Splits = Ivan_domains.Splits
module Analyzer = Ivan_analyzer.Analyzer

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
    let lp = run_analyzer (Analyzer.lp_triangle ~deeppoly_shortcut:false ()) net prop in
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
  let lp = Analyzer.lp_triangle ~deeppoly_shortcut:false () in
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
  let a1 = run_analyzer (Analyzer.lp_triangle ~deeppoly_shortcut:true ()) net prop in
  let a2 = run_analyzer (Analyzer.lp_triangle ~deeppoly_shortcut:false ()) net prop in
  match (a1.Analyzer.status, a2.Analyzer.status) with
  | Analyzer.Verified, Analyzer.Verified -> ()
  | _, _ -> Alcotest.fail "shortcut changed the verdict"

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
  Alcotest.(check (float 1e-6)) "cutoff lb" 0.0 o2.Analyzer.milp_lb

(* MILP agrees with BaB (which is complete) on random instances. *)
let test_milp_matches_bab () =
  let milp = Analyzer.milp_exact () in
  for seed = 61 to 66 do
    let net = Fixtures.random_net ~seed ~dims:[ 2; 4; 3; 1 ] in
    let input = Box.make ~lo:(Vec.zeros 2) ~hi:(Vec.create 2 1.0) in
    let prop = Prop.make ~name:"m" ~input ~c:(Vec.of_list [ 1.0 ]) ~offset:0.3 in
    let milp_out = milp.Analyzer.run net ~prop ~box:input ~splits:Splits.empty in
    let bab =
      Ivan_bab.Bab.verify ~analyzer:(Analyzer.lp_triangle ())
        ~heuristic:Ivan_bab.Heuristic.zono_coeff ~net ~prop ()
    in
    match (milp_out.Analyzer.status, bab.Ivan_bab.Bab.verdict) with
    | Analyzer.Verified, Ivan_bab.Bab.Proved -> ()
    | Analyzer.Counterexample _, Ivan_bab.Bab.Disproved _ -> ()
    | Analyzer.Unknown, _ | _, Ivan_bab.Bab.Exhausted -> ()
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
    [ Splits.Pos; Splits.Neg ]

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
    (Invalid_argument "Analyzer.milp: only plain ReLU networks are supported") (fun () ->
      ignore (Analyzer.milp_verify net ~prop ~box:input ~splits:Splits.empty))



(* ---------------- Grad / PGD falsification ---------------- *)

module Attack = Ivan_analyzer.Attack
module Grad = Ivan_nn.Grad

(* Gradient matches finite differences away from ReLU kinks. *)
let test_gradient_finite_difference () =
  let rng = Rng.create 301 in
  for seed = 1 to 5 do
    let net = Fixtures.random_net ~seed ~dims:[ 3; 5; 4; 2 ] in
    let c = Vec.of_list [ 1.0; -0.5 ] in
    let x = Array.init 3 (fun _ -> Rng.uniform rng 0.1 0.9) in
    let g = Grad.objective_gradient net ~c x in
    let f v = Vec.dot c (Network.forward net v) in
    let h = 1e-6 in
    for j = 0 to 2 do
      let xp = Vec.copy x and xm = Vec.copy x in
      xp.(j) <- xp.(j) +. h;
      xm.(j) <- xm.(j) -. h;
      let fd = (f xp -. f xm) /. (2.0 *. h) in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d dim %d grad %.4f fd %.4f" seed j g.(j) fd)
        true
        (Float.abs (g.(j) -. fd) < 1e-3)
    done
  done

let test_gradient_dim_check () =
  let net = Fixtures.paper_net () in
  Alcotest.check_raises "dims"
    (Invalid_argument "Grad.objective_gradient: objective dimension mismatch") (fun () ->
      ignore (Grad.objective_gradient net ~c:(Vec.zeros 3) (Vec.zeros 2)))

(* PGD finds the known violation of the paper network's tight property
   and never "finds" one for a true property. *)
let test_pgd_finds_violation () =
  let net = Fixtures.paper_net () in
  let falsified = Fixtures.paper_prop_with_offset 1.3 in
  (match Attack.pgd ~rng:(Rng.create 302) net ~prop:falsified with
  | Some x ->
      Alcotest.(check bool) "genuine CE" true (Analyzer.check_concrete net ~prop:falsified x)
  | None -> Alcotest.fail "PGD missed an easy violation");
  let proved = Fixtures.paper_prop_with_offset 2.0 in
  match Attack.pgd ~rng:(Rng.create 303) net ~prop:proved with
  | None -> ()
  | Some _ -> Alcotest.fail "PGD claimed a CE for a true property"

(* best_margin upper-bounds the true minimum and improves on the naive
   centre evaluation. *)
let test_pgd_best_margin () =
  let net = Fixtures.paper_net () in
  let prop = Fixtures.paper_prop_with_offset 0.0 in
  let margin, x = Attack.best_margin ~rng:(Rng.create 304) net ~prop in
  Alcotest.(check bool) "achievable" true
    (Float.abs (Prop.margin prop (Network.forward net x) -. margin) < 1e-9);
  Alcotest.(check bool) "above the true min" true (margin >= -1.5 -. 1e-9);
  Alcotest.(check bool) "close to the true min" true (margin < -1.3)

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
    q prop_analyzer_never_unsound;
    ("milp exact on paper net", `Quick, test_milp_exact_paper_net);
    ("milp matches bab", `Quick, test_milp_matches_bab);
    ("milp respects splits", `Quick, test_milp_respects_splits);
    ("milp warm start", `Quick, test_milp_warm_start);
    ("milp rejects leaky", `Quick, test_milp_rejects_leaky);
    QCheck_alcotest.to_alcotest
      ~rand:(Random.State.make [| Encoding_oracle.Oracle.seed |])
      (Encoding_oracle.Oracle.test ~count:Encoding_oracle.Oracle.tier1_count);
    ("gradient finite difference", `Quick, test_gradient_finite_difference);
    ("gradient dim check", `Quick, test_gradient_dim_check);
    ("pgd finds violation", `Quick, test_pgd_finds_violation);
    ("pgd best margin", `Quick, test_pgd_best_margin);
  ]
