(* Tests for the abstract domains: interval, zonotope, DeepPoly —
   soundness against sampled executions, precision ordering, split
   handling, infeasibility detection. *)

module Vec = Ivan_tensor.Vec
module Rng = Ivan_tensor.Rng
module Network = Ivan_nn.Network
module Relu_id = Ivan_nn.Relu_id
module Box = Ivan_spec.Box
module Itv = Ivan_domains.Itv
module Splits = Ivan_domains.Splits
module Bounds = Ivan_domains.Bounds
module Interval_dom = Ivan_domains.Interval_dom
module Zonotope = Ivan_domains.Zonotope
module Deeppoly = Ivan_domains.Deeppoly

let unit_box d = Box.make ~lo:(Vec.zeros d) ~hi:(Vec.create d 1.0)

(* The interval of a one-output network's output: its objective [1 · y]. *)
let output_itv b = Bounds.objective_itv b ~c:[| 1.0 |] ~offset:0.0

(* ---------------- Itv ---------------- *)

let test_itv_ops () =
  let a = Itv.make (-1.0) 2.0 in
  let b = Itv.make 0.5 1.0 in
  Alcotest.(check (float 1e-12)) "add lo" (-0.5) (Itv.add a b).Itv.lo;
  Alcotest.(check (float 1e-12)) "scale neg hi" 2.0 (Itv.scale (-2.0) a).Itv.hi

let test_itv_invalid () =
  Alcotest.check_raises "lo > hi" (Invalid_argument "Itv.make: lo > hi") (fun () ->
      ignore (Itv.make 1.0 0.0))

(* ---------------- Splits ---------------- *)

let test_splits_basic () =
  let r0 = Relu_id.make ~layer:0 ~index:0 in
  let s = Splits.add r0 Splits.Pos Splits.empty in
  Alcotest.(check bool) "mem" true (Splits.mem r0 s);
  Alcotest.(check bool) "find" true (Splits.find r0 s = Some Splits.Pos);
  Alcotest.(check int) "cardinal" 1 (Splits.cardinal s);
  Alcotest.check_raises "double split" (Invalid_argument "Splits.add: r[0,0] already split")
    (fun () -> ignore (Splits.add r0 Splits.Neg s))

(* ---------------- soundness harness ---------------- *)

(* For each sampled input consistent with the splits, the trace's pre
   and post activations must lie within the claimed bounds. *)
let check_bounds_sound ~seed net box splits (bounds : Bounds.t) =
  let rng = Rng.create seed in
  let violations = ref 0 in
  let checked = ref 0 in
  for _ = 1 to 500 do
    let x = Box.sample ~rng box in
    let tr = Network.forward_trace net x in
    (* Respect the split assumptions: skip samples that violate them. *)
    let consistent =
      List.for_all
        (fun ((r : Relu_id.t), phase) ->
          let v = tr.Network.pre.(r.Relu_id.layer).(r.Relu_id.index) in
          match phase with Splits.Pos -> v >= 0.0 | Splits.Neg -> v < 0.0)
        (Splits.bindings splits)
    in
    if consistent then begin
      incr checked;
      Array.iteri
        (fun li layer ->
          Array.iteri
            (fun idx v ->
              if
                v < layer.Bounds.pre_lo.(idx) -. 1e-6 || v > layer.Bounds.pre_hi.(idx) +. 1e-6
              then incr violations)
            tr.Network.pre.(li);
          Array.iteri
            (fun idx v ->
              if
                v < layer.Bounds.post_lo.(idx) -. 1e-6 || v > layer.Bounds.post_hi.(idx) +. 1e-6
              then incr violations)
            tr.Network.post.(li))
        bounds.Bounds.layers
    end
  done;
  (!violations, !checked)

let random_case seed =
  let net = Fixtures.random_net ~seed ~dims:[ 3; 6; 5; 2 ] in
  let box = unit_box 3 in
  (net, box)

let test_interval_sound () =
  for seed = 1 to 5 do
    let net, box = random_case seed in
    match Interval_dom.analyze net ~box ~splits:Splits.empty with
    | Interval_dom.Infeasible -> Alcotest.fail "unexpected infeasible"
    | Interval_dom.Feasible bounds ->
        let violations, checked = check_bounds_sound ~seed net box Splits.empty bounds in
        Alcotest.(check int) "no violations" 0 violations;
        Alcotest.(check bool) "checked some points" true (checked > 0)
  done

let test_zonotope_sound () =
  for seed = 1 to 5 do
    let net, box = random_case seed in
    match Zonotope.analyze net ~box ~splits:Splits.empty with
    | Zonotope.Infeasible -> Alcotest.fail "unexpected infeasible"
    | Zonotope.Feasible a ->
        let violations, _ = check_bounds_sound ~seed net box Splits.empty a.Zonotope.bounds in
        Alcotest.(check int) "no violations" 0 violations
  done

let test_deeppoly_sound () =
  for seed = 1 to 5 do
    let net, box = random_case seed in
    match Deeppoly.analyze net ~box ~splits:Splits.empty with
    | Deeppoly.Infeasible -> Alcotest.fail "unexpected infeasible"
    | Deeppoly.Feasible a ->
        let violations, _ = check_bounds_sound ~seed net box Splits.empty (Deeppoly.bounds a) in
        Alcotest.(check int) "no violations" 0 violations
  done

(* On the first layer (a pure affine image of the box) the zonotope is
   exact, hence equal to the interval bounds, and on deeper layers the
   zonotope's *second* affine image retains input correlations that
   intervals lose: verify on a network where the correlation matters
   (y = x - x is exactly 0 for zonotopes, [-1, 1] for intervals). *)
let test_zonotope_exactness_vs_interval () =
  let net, box = random_case 11 in
  (match
     ( Interval_dom.analyze net ~box ~splits:Splits.empty,
       Zonotope.analyze net ~box ~splits:Splits.empty )
   with
  | Interval_dom.Feasible ib, Zonotope.Feasible za ->
      let il = ib.Bounds.layers.(0) and zl = za.Zonotope.bounds.Bounds.layers.(0) in
      for j = 0 to Vec.dim il.Bounds.pre_lo - 1 do
        Alcotest.(check (float 1e-9)) "first layer pre lo equal" il.Bounds.pre_lo.(j)
          zl.Bounds.pre_lo.(j);
        Alcotest.(check (float 1e-9)) "first layer pre hi equal" il.Bounds.pre_hi.(j)
          zl.Bounds.pre_hi.(j)
      done
  | _, _ -> Alcotest.fail "unexpected infeasible");
  (* Cancellation network: two identity-activation layers computing
     y = (x) then (x - x). *)
  let open Ivan_nn in
  let l1 =
    Layer.make
      (Layer.Dense { weights = Ivan_tensor.Mat.of_arrays [| [| 1.0 |]; [| 1.0 |] |]; bias = [| 0.0; 0.0 |] })
      Layer.Identity
  in
  let l2 =
    Layer.make
      (Layer.Dense { weights = Ivan_tensor.Mat.of_arrays [| [| 1.0; -1.0 |] |]; bias = [| 0.0 |] })
      Layer.Identity
  in
  let cancel = Network.make [ l1; l2 ] in
  let b = Box.make ~lo:(Vec.of_list [ -1.0 ]) ~hi:(Vec.of_list [ 1.0 ]) in
  match
    ( Interval_dom.analyze cancel ~box:b ~splits:Splits.empty,
      Zonotope.analyze cancel ~box:b ~splits:Splits.empty )
  with
  | Interval_dom.Feasible ib, Zonotope.Feasible za ->
      Alcotest.(check (float 1e-12)) "interval lo -2" (-2.0) (output_itv ib).Itv.lo;
      Alcotest.(check (float 1e-12)) "zonotope lo 0" 0.0 (output_itv za.Zonotope.bounds).Itv.lo;
      Alcotest.(check (float 1e-12)) "zonotope hi 0" 0.0 (output_itv za.Zonotope.bounds).Itv.hi
  | _, _ -> Alcotest.fail "unexpected infeasible"

(* DeepPoly objective backsubstitution is sound and at least as tight as
   its own output-layer interval combination. *)
let test_deeppoly_objective () =
  for seed = 21 to 25 do
    let net, box = random_case seed in
    let c = Vec.of_list [ 1.0; -1.0 ] in
    match Deeppoly.analyze net ~box ~splits:Splits.empty with
    | Deeppoly.Infeasible -> Alcotest.fail "unexpected infeasible"
    | Deeppoly.Feasible a ->
        let itv = Deeppoly.objective_itv a ~c ~offset:0.0 in
        let naive = Bounds.objective_itv (Deeppoly.bounds a) ~c ~offset:0.0 in
        Alcotest.(check bool) "tighter than naive" true
          (itv.Itv.lo >= naive.Itv.lo -. 1e-9 && itv.Itv.hi <= naive.Itv.hi +. 1e-9);
        (* soundness against samples *)
        let rng = Rng.create seed in
        for _ = 1 to 300 do
          let x = Box.sample ~rng box in
          let y = Network.forward net x in
          let v = Vec.dot c y in
          Alcotest.(check bool) "within" true (v >= itv.Itv.lo -. 1e-6 && v <= itv.Itv.hi +. 1e-6)
        done
  done

(* Splitting a ReLU must refine the bounds on the corresponding side. *)
let find_ambiguous net box =
  match Deeppoly.analyze net ~box ~splits:Splits.empty with
  | Deeppoly.Infeasible -> None
  | Deeppoly.Feasible a -> (
      match Bounds.ambiguous_relus (Deeppoly.bounds a) net ~splits:Splits.empty with
      | [] -> None
      | r :: _ -> Some r)

let test_split_refines () =
  let net, box = random_case 31 in
  match find_ambiguous net box with
  | None -> Alcotest.fail "fixture has no ambiguous relu"
  | Some r -> (
      let splits = Splits.add r Splits.Pos Splits.empty in
      match (Deeppoly.analyze net ~box ~splits:Splits.empty, Deeppoly.analyze net ~box ~splits) with
      | Deeppoly.Feasible base, Deeppoly.Feasible pos ->
          let pre_base = Bounds.pre_itv (Deeppoly.bounds base) r in
          let pre_pos = Bounds.pre_itv (Deeppoly.bounds pos) r in
          Alcotest.(check bool) "pos split clips lb to 0" true (pre_pos.Itv.lo >= 0.0);
          Alcotest.(check bool) "pos split within base" true (pre_pos.Itv.hi <= pre_base.Itv.hi +. 1e-9)
      | _, _ -> Alcotest.fail "unexpected infeasible")

let test_split_soundness_on_consistent_points () =
  let net, box = random_case 32 in
  match find_ambiguous net box with
  | None -> Alcotest.fail "fixture has no ambiguous relu"
  | Some r ->
      List.iter
        (fun phase ->
          let splits = Splits.add r phase Splits.empty in
          match Zonotope.analyze net ~box ~splits with
          | Zonotope.Infeasible -> Alcotest.fail "split side unexpectedly empty"
          | Zonotope.Feasible a ->
              let violations, checked = check_bounds_sound ~seed:32 net box splits a.Zonotope.bounds in
              Alcotest.(check int) "no violations on consistent points" 0 violations;
              Alcotest.(check bool) "some consistent points" true (checked > 0))
        [ Splits.Pos; Splits.Neg ]

(* Forcing an impossible phase must be reported as infeasible. *)
let stable_relu_with_sign net box =
  match Deeppoly.analyze net ~box ~splits:Splits.empty with
  | Deeppoly.Infeasible -> None
  | Deeppoly.Feasible a ->
      let bounds = Deeppoly.bounds a in
      let found = ref None in
      Array.iteri
        (fun li layer ->
          match Ivan_nn.Layer.negative_slope (Ivan_nn.Layer.activation (Network.layers net).(li)) with
          | None -> ()
          | Some _ ->
              Array.iteri
                (fun idx lo ->
                  if !found = None then
                    if lo > 0.01 then found := Some (Relu_id.make ~layer:li ~index:idx, Splits.Neg)
                    else if layer.Bounds.pre_hi.(idx) < -0.01 then
                      found := Some (Relu_id.make ~layer:li ~index:idx, Splits.Pos))
                layer.Bounds.pre_lo)
        bounds.Bounds.layers;
      !found

let test_infeasible_detection () =
  (* Search a few seeds for a network with a stable relu. *)
  let rec go seed =
    if seed > 60 then Alcotest.fail "no stable relu found in fixtures"
    else
      let net, box = random_case seed in
      match stable_relu_with_sign net box with
      | None -> go (seed + 1)
      | Some (r, impossible_phase) ->
          let splits = Splits.add r impossible_phase Splits.empty in
          (match Interval_dom.analyze net ~box ~splits with
          | Interval_dom.Infeasible -> ()
          | Interval_dom.Feasible _ -> Alcotest.fail "interval missed infeasibility");
          (match Zonotope.analyze net ~box ~splits with
          | Zonotope.Infeasible -> ()
          | Zonotope.Feasible _ -> Alcotest.fail "zonotope missed infeasibility");
          (match Deeppoly.analyze net ~box ~splits with
          | Deeppoly.Infeasible -> ()
          | Deeppoly.Feasible _ -> Alcotest.fail "deeppoly missed infeasibility")
  in
  go 41

let test_zonotope_relu_terms () =
  let net, box = random_case 51 in
  match Zonotope.analyze net ~box ~splits:Splits.empty with
  | Zonotope.Infeasible -> Alcotest.fail "unexpected infeasible"
  | Zonotope.Feasible a ->
      let ambiguous =
        Bounds.ambiguous_relus a.Zonotope.bounds net ~splits:Splits.empty |> List.length
      in
      Alcotest.(check int) "one term per ambiguous relu"
        (Box.dim box + ambiguous)
        a.Zonotope.nterms;
      (* scores are non-negative and only nonzero for term-bearing relus *)
      let c = Vec.of_list [ 1.0; 0.0 ] in
      let coeffs = Zonotope.objective_coeffs a ~c in
      Ivan_nn.Relu_id.Map.iter
        (fun r _ ->
          Alcotest.(check bool) "score >= 0" true (Zonotope.relu_score_from_coeffs a coeffs r >= 0.0))
        a.Zonotope.relu_terms

let test_degenerate_box () =
  (* A zero-width box: all domains collapse to the single forward run. *)
  let net = Fixtures.paper_net () in
  let x = Vec.of_list [ 0.5; 0.5 ] in
  let box = Box.make ~lo:x ~hi:x in
  let y = Network.forward net x in
  (match Interval_dom.analyze net ~box ~splits:Splits.empty with
  | Interval_dom.Feasible b ->
      Alcotest.(check (float 1e-9)) "interval exact" y.(0) (output_itv b).Itv.lo
  | Interval_dom.Infeasible -> Alcotest.fail "infeasible");
  (match Deeppoly.analyze net ~box ~splits:Splits.empty with
  | Deeppoly.Feasible a ->
      Alcotest.(check (float 1e-9)) "deeppoly exact" y.(0) (output_itv (Deeppoly.bounds a)).Itv.lo
  | Deeppoly.Infeasible -> Alcotest.fail "infeasible")

let prop_domains_sound_random =
  QCheck.Test.make ~name:"all domains sound on random nets" ~count:20
    QCheck.(make QCheck.Gen.(int_range 100 10_000))
    (fun seed ->
      let net = Fixtures.random_net ~seed ~dims:[ 2; 4; 3; 1 ] in
      let box = unit_box 2 in
      let sound bounds =
        let v, _ = check_bounds_sound ~seed net box Splits.empty bounds in
        v = 0
      in
      let i_ok =
        match Interval_dom.analyze net ~box ~splits:Splits.empty with
        | Interval_dom.Feasible b -> sound b
        | Interval_dom.Infeasible -> false
      in
      let z_ok =
        match Zonotope.analyze net ~box ~splits:Splits.empty with
        | Zonotope.Feasible a -> sound a.Zonotope.bounds
        | Zonotope.Infeasible -> false
      in
      let d_ok =
        match Deeppoly.analyze net ~box ~splits:Splits.empty with
        | Deeppoly.Feasible a -> sound (Deeppoly.bounds a)
        | Deeppoly.Infeasible -> false
      in
      i_ok && z_ok && d_ok)



(* ---------------- Differential bounds (Diff) ---------------- *)

module Diff = Ivan_domains.Diff
module Quant = Ivan_nn.Quant
module Perturb = Ivan_nn.Perturb

let test_diff_identical_networks () =
  let net, box = random_case 71 in
  match Diff.output_difference net net ~box with
  | None -> Alcotest.fail "unexpected empty region"
  | Some { Diff.lo; hi } ->
      (* Affine parts cancel exactly; only the (duplicated) relu error
         symbols remain, so bounds are symmetric around 0. *)
      Array.iteri
        (fun i l ->
          Alcotest.(check bool) "contains 0" true (l <= 1e-9 && hi.(i) >= -1e-9);
          Alcotest.(check (float 1e-9)) "symmetric" (Float.abs l) (Float.abs hi.(i)))
        lo

let test_diff_sound () =
  let net, box = random_case 72 in
  let rng = Rng.create 72 in
  let perturbed = Perturb.random_relative ~rng ~fraction:0.05 net in
  match Diff.output_difference net perturbed ~box with
  | None -> Alcotest.fail "unexpected empty region"
  | Some { Diff.lo; hi } ->
      for _ = 1 to 400 do
        let x = Box.sample ~rng box in
        let d = Vec.sub (Network.forward net x) (Network.forward perturbed x) in
        Array.iteri
          (fun i v ->
            Alcotest.(check bool) "within diff bounds" true
              (v >= lo.(i) -. 1e-6 && v <= hi.(i) +. 1e-6))
          d
      done

let test_diff_shape_mismatch () =
  let a = Fixtures.random_net ~seed:1 ~dims:[ 2; 3; 1 ] in
  let b = Fixtures.random_net ~seed:2 ~dims:[ 3; 3; 1 ] in
  Alcotest.check_raises "shapes" (Invalid_argument "Diff.output_difference: network shapes differ")
    (fun () -> ignore (Diff.output_difference a b ~box:(unit_box 2)))

(* ---------------- golden DeepPoly bounds ---------------- *)

module Prop = Ivan_spec.Prop

(* MD5 of the exact bit patterns of every bound of an analysis and of
   its back-substituted objective interval. *)
let deeppoly_digest net (prop : Prop.t) ~splits =
  match Deeppoly.analyze net ~box:prop.Prop.input ~splits with
  | Deeppoly.Infeasible -> "infeasible"
  | Deeppoly.Feasible a ->
      let buf = Buffer.create 4096 in
      let add x = Buffer.add_string buf (Printf.sprintf "%Lx " (Int64.bits_of_float x)) in
      Array.iter
        (fun (l : Bounds.layer) -> List.iter (Array.iter add) [ l.pre_lo; l.pre_hi; l.post_lo; l.post_hi ])
        (Deeppoly.bounds a).Bounds.layers;
      let itv = Deeppoly.objective_itv a ~c:prop.Prop.c ~offset:prop.Prop.offset in
      add itv.Itv.lo;
      add itv.Itv.hi;
      Digest.to_hex (Digest.string (Buffer.contents buf))

(* Recorded from the dense back-substitution kernel.  The sparse kernel
   performs the same float operations on every nonzero entry in the same
   order, so the bounds must match bit for bit: at the root, and with
   the first root-ambiguous ReLU split active and the second inactive. *)
let golden_deeppoly =
  [
    "dense-8x24x24x3 root 0d866d482e00f3f2e5184af58d3a6592";
    "dense-8x24x24x3 split 8137d2a10f53de0c0c15b11c1e586a27";
    "dense-16x32x32x32x5 root a877f7ca07a2dab27b83bcecef44a937";
    "dense-16x32x32x32x5 split 2838105a28cfcfea8e93feb6b00b96d4";
    "conv-cifar-deep-shape root cb027dccd3af1058af950433013edb90";
    "conv-cifar-deep-shape split 61a724b703f94ab6dfdf8ff9ee0e9c9c";
  ]

let test_deeppoly_golden () =
  let observed =
    List.concat_map
      (fun (name, net, (prop : Prop.t)) ->
        let root = deeppoly_digest net prop ~splits:Splits.empty in
        let splits =
          match Deeppoly.analyze net ~box:prop.Prop.input ~splits:Splits.empty with
          | Deeppoly.Infeasible -> Alcotest.failf "%s: root infeasible" name
          | Deeppoly.Feasible a -> (
              match Bounds.ambiguous_relus (Deeppoly.bounds a) net ~splits:Splits.empty with
              | r1 :: r2 :: _ -> Splits.add r2 Splits.Neg (Splits.add r1 Splits.Pos Splits.empty)
              | _ -> Alcotest.failf "%s: fewer than two ambiguous ReLUs" name)
        in
        [
          Printf.sprintf "%s root %s" name root;
          Printf.sprintf "%s split %s" name (deeppoly_digest net prop ~splits);
        ])
      (Fixtures.golden_subjects ())
  in
  Alcotest.(check (list string)) "bound bit patterns" golden_deeppoly observed

(* ---------------- golden zonotope analyses ---------------- *)

(* MD5 of the exact bit patterns of everything an analysis returns:
   per-layer bounds, the output forms, the ReLU term map and [nterms]. *)
let zonotope_digest net box ~splits =
  match Zonotope.analyze net ~box ~splits with
  | Zonotope.Infeasible -> "infeasible"
  | Zonotope.Feasible a ->
      let buf = Buffer.create 65536 in
      let add x = Buffer.add_string buf (Printf.sprintf "%Lx " (Int64.bits_of_float x)) in
      Array.iter
        (fun (l : Bounds.layer) -> List.iter (Array.iter add) [ l.pre_lo; l.pre_hi; l.post_lo; l.post_hi ])
        a.Zonotope.bounds.Bounds.layers;
      Array.iter add a.Zonotope.output_center;
      Array.iter (Array.iter add) a.Zonotope.output_gen;
      Relu_id.Map.iter
        (fun r t -> Buffer.add_string buf (Printf.sprintf "%d.%d:%d " r.Relu_id.layer r.Relu_id.index t))
        a.Zonotope.relu_terms;
      Buffer.add_string buf (string_of_int a.Zonotope.nterms);
      Digest.to_hex (Digest.string (Buffer.contents buf))

(* The cases of one subject: the root, the lower half of the box split
   on input 0, and for nets with splittable units the first two
   root-ambiguous units split Pos and Neg, and a Neg split of the
   deepest root-stable active unit (an empty region). *)
let zonotope_cases net (prop : Prop.t) =
  let box = prop.Prop.input in
  let root_bounds =
    match Zonotope.analyze net ~box ~splits:Splits.empty with
    | Zonotope.Infeasible -> Alcotest.fail "root infeasible"
    | Zonotope.Feasible a -> a.Zonotope.bounds
  in
  let half, _ = Box.split_dim box 0 in
  let relu_cases =
    if Network.num_relus net = 0 then []
    else
      let split =
        match Bounds.ambiguous_relus root_bounds net ~splits:Splits.empty with
        | r1 :: r2 :: _ -> Splits.add r2 Splits.Neg (Splits.add r1 Splits.Pos Splits.empty)
        | _ -> Alcotest.fail "fewer than two ambiguous units"
      in
      let active =
        Array.fold_left
          (fun acc r -> if (Bounds.pre_itv root_bounds r).Itv.lo > 0.0 then Some r else acc)
          None (Network.relu_ids net)
      in
      let empty =
        match active with
        | Some r -> Splits.add r Splits.Neg Splits.empty
        | None -> Alcotest.fail "no stably active unit"
      in
      [ ("split", box, split); ("empty", box, empty) ]
  in
  [ ("root", box, Splits.empty); ("half", half, Splits.empty) ] @ relu_cases

(* Recorded from the kernel that allocates a fresh generator matrix per
   layer.  Any kernel must perform the same float operations on every
   possibly-nonzero entry in the same order, so all of it must match
   bit for bit. *)
let golden_zonotope =
  [
    "dense-8x24x24x3 root 82877521a289a74247bcf96a5210944b";
    "dense-8x24x24x3 half 866baa49fba579b561b848e2ca6be6c9";
    "dense-8x24x24x3 split 92e449cdca5a17b79c9fb61931da17ab";
    "dense-8x24x24x3 empty infeasible";
    "dense-16x32x32x32x5 root 5f65664476fd71e0f1b16deb7494c6aa";
    "dense-16x32x32x32x5 half c3c7a07fdfa2a6e040975d8e7420c25b";
    "dense-16x32x32x32x5 split 9af6bca77565eee0b0e64ad4666c9233";
    "dense-16x32x32x32x5 empty infeasible";
    "conv-cifar-deep-shape root 2b751db9f7fb26e96d9bf06c2541f5e9";
    "conv-cifar-deep-shape half a408dd5be9835244e731ba54d1d74bbd";
    "conv-cifar-deep-shape split 189d50b3b2396efdcdf62d4c538f146d";
    "conv-cifar-deep-shape empty infeasible";
    "acas-shape-5x6x50 root 9144e467de8b1b7926bbf708b90db824";
    "acas-shape-5x6x50 half ffeefe51f106e44cfefedde0ffbd4815";
    "acas-shape-5x6x50 split f9473815cd0468dbc0667749a598d8e2";
    "acas-shape-5x6x50 empty infeasible";
    "leaky-8x24x24x3 root b8d16824e83fb30c94bbb4cb3d294fb8";
    "leaky-8x24x24x3 half a3316ac5386afe5c07c3b987c779a1ff";
    "leaky-8x24x24x3 split 1543a87d3a4b979a894459404b9007ae";
    "leaky-8x24x24x3 empty infeasible";
    "sigmoid-tanh-6x16x16x3 root 613b54dab9c4af1853083c20b2e171ae";
    "sigmoid-tanh-6x16x16x3 half 33512b40fafd7eb2890c2c07aecd6e35";
  ]

let test_zonotope_golden () =
  let observed =
    List.concat_map
      (fun (name, net, prop) ->
        List.map
          (fun (case, box, splits) ->
            Printf.sprintf "%s %s %s" name case (zonotope_digest net box ~splits))
          (zonotope_cases net prop))
      (Fixtures.zonotope_subjects ())
  in
  Alcotest.(check (list string)) "analysis bit patterns" golden_zonotope observed

let suite =
  let q = QCheck_alcotest.to_alcotest in
  [
    ("itv ops", `Quick, test_itv_ops);
    ("itv invalid", `Quick, test_itv_invalid);
    ("splits basic", `Quick, test_splits_basic);
    ("interval sound", `Quick, test_interval_sound);
    ("zonotope sound", `Quick, test_zonotope_sound);
    ("deeppoly sound", `Quick, test_deeppoly_sound);
    ("zonotope exactness vs interval", `Quick, test_zonotope_exactness_vs_interval);
    ("deeppoly objective", `Quick, test_deeppoly_objective);
    ("split refines", `Quick, test_split_refines);
    ("split soundness", `Quick, test_split_soundness_on_consistent_points);
    ("infeasible detection", `Quick, test_infeasible_detection);
    ("zonotope relu terms", `Quick, test_zonotope_relu_terms);
    ("degenerate box", `Quick, test_degenerate_box);
    q prop_domains_sound_random;
    ("diff identical networks", `Quick, test_diff_identical_networks);
    ("diff sound", `Quick, test_diff_sound);
    ("diff shape mismatch", `Quick, test_diff_shape_mismatch);
    ("deeppoly golden bounds", `Quick, test_deeppoly_golden);
    ("zonotope golden analyses", `Quick, test_zonotope_golden);
    QCheck_alcotest.to_alcotest
      ~rand:(Random.State.make [| Zonotope_oracle.Oracle.seed |])
      (Zonotope_oracle.Oracle.test ~count:Zonotope_oracle.Oracle.tier1_count);
    QCheck_alcotest.to_alcotest
      ~rand:(Random.State.make [| Zonotope_oracle.Oracle.wide_seed |])
      (Zonotope_oracle.Oracle.wide_test ~count:Zonotope_oracle.Oracle.wide_tier1_count);
    QCheck_alcotest.to_alcotest
      ~rand:(Random.State.make [| Deeppoly_oracle.Oracle.seed |])
      (Deeppoly_oracle.Oracle.test ~count:Deeppoly_oracle.Oracle.tier1_count);
    QCheck_alcotest.to_alcotest
      ~rand:(Random.State.make [| Deeppoly_oracle.Oracle.seed |])
      (Deeppoly_oracle.Oracle.resume_test ~count:Deeppoly_oracle.Oracle.tier1_count);
  ]
