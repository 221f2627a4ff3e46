(* Tests for the specification layer: boxes, properties, and the
   VNN-LIB parser/printer. *)

module Vec = Ivan_tensor.Vec
module Rng = Ivan_tensor.Rng
module Box = Ivan_spec.Box
module Prop = Ivan_spec.Prop
module Vnnlib = Ivan_spec.Vnnlib

(* ---------------- Box ---------------- *)

let test_box_basics () =
  let b = Box.make ~lo:(Vec.of_list [ 0.0; -1.0 ]) ~hi:(Vec.of_list [ 1.0; 1.0 ]) in
  Alcotest.(check int) "dim" 2 (Box.dim b);
  Alcotest.(check (float 1e-12)) "width0" 1.0 (Box.width b 0);
  Alcotest.(check (float 1e-12)) "max width" 2.0 (Box.max_width b);
  Alcotest.(check bool) "contains center" true (Box.contains b (Box.center b));
  Alcotest.(check bool) "outside" false (Box.contains b (Vec.of_list [ 2.0; 0.0 ]))

let test_box_invalid () =
  Alcotest.check_raises "lo > hi" (Invalid_argument "Box.make: lo > hi") (fun () ->
      ignore (Box.make ~lo:(Vec.of_list [ 1.0 ]) ~hi:(Vec.of_list [ 0.0 ])))

let test_box_split () =
  let b = Box.make ~lo:(Vec.of_list [ 0.0; 0.0 ]) ~hi:(Vec.of_list [ 2.0; 4.0 ]) in
  let lo_half, hi_half = Box.split_dim b 1 in
  Alcotest.(check (float 1e-12)) "left hi" 2.0 (Box.hi_at lo_half 1);
  Alcotest.(check (float 1e-12)) "right lo" 2.0 (Box.lo_at hi_half 1);
  Alcotest.(check (float 1e-12)) "other dim intact" 2.0 (Box.hi_at lo_half 0)

let test_box_clamp_and_sample () =
  let b = Box.make ~lo:(Vec.of_list [ 0.0; 0.0 ]) ~hi:(Vec.of_list [ 1.0; 1.0 ]) in
  let clamped = Box.clamp b (Vec.of_list [ -5.0; 7.0 ]) in
  Alcotest.(check bool) "clamped inside" true (Box.contains b clamped);
  let rng = Rng.create 1 in
  for _ = 1 to 100 do
    Alcotest.(check bool) "sample inside" true (Box.contains b (Box.sample ~rng b))
  done

let test_box_clip () =
  let b = Box.of_center ~center:(Vec.of_list [ 0.05; 0.95 ]) ~radius:0.1 in
  let clipped = Box.clip ~lo:0.0 ~hi:1.0 b in
  Alcotest.(check (float 1e-12)) "lo clipped" 0.0 (Box.lo_at clipped 0);
  Alcotest.(check (float 1e-12)) "hi clipped" 1.0 (Box.hi_at clipped 1)

(* ---------------- Prop ---------------- *)

let test_prop_margin () =
  let input = Box.make ~lo:(Vec.zeros 1) ~hi:(Vec.create 1 1.0) in
  let p = Prop.make ~name:"m" ~input ~c:(Vec.of_list [ 2.0; -1.0 ]) ~offset:0.5 in
  Alcotest.(check (float 1e-12)) "margin" 1.5 (Prop.margin p (Vec.of_list [ 1.0; 1.0 ]));
  Alcotest.(check bool) "holds" true (Prop.holds_at p (Vec.of_list [ 1.0; 1.0 ]));
  Alcotest.(check bool) "fails" false (Prop.holds_at p (Vec.of_list [ 0.0; 1.0 ]))

let test_prop_robustness () =
  let center = Vec.of_list [ 0.5; 0.5 ] in
  let p =
    Prop.robustness ~name:"r" ~center ~eps:0.1 ~target:1 ~adversary:0 ~num_outputs:3
      ~clip:(Some (0.0, 1.0))
  in
  Alcotest.(check (float 1e-12)) "target margin" 1.0 (Prop.margin p (Vec.of_list [ 1.0; 2.0; 5.0 ]));
  Alcotest.check_raises "self adversary"
    (Invalid_argument "Prop.robustness: target equals adversary") (fun () ->
      ignore
        (Prop.robustness ~name:"x" ~center ~eps:0.1 ~target:1 ~adversary:1 ~num_outputs:3
           ~clip:None))

let test_prop_output_constructors () =
  let input = Box.make ~lo:(Vec.zeros 1) ~hi:(Vec.create 1 1.0) in
  let upper = Prop.output_upper ~name:"u" ~input ~index:1 ~bound:3.0 ~num_outputs:2 in
  Alcotest.(check bool) "below bound holds" true (Prop.holds_at upper (Vec.of_list [ 0.0; 2.0 ]));
  Alcotest.(check bool) "above bound fails" false (Prop.holds_at upper (Vec.of_list [ 0.0; 4.0 ]))

(* ---------------- Vnnlib ---------------- *)

let acas_like_text =
  {|; ACAS-like property
(declare-const X_0 Real)
(declare-const X_1 Real)
(declare-const Y_0 Real)
(declare-const Y_1 Real)
(assert (>= X_0 0.6))
(assert (<= X_0 0.7))
(assert (>= X_1 -0.5))
(assert (<= X_1 0.5))
; unsafe: Y_0 exceeds 3.99
(assert (>= Y_0 3.99))
|}

let test_vnnlib_parse_basic () =
  let p = Vnnlib.parse acas_like_text ~name:"acas-like" in
  Alcotest.(check int) "input dim" 2 (Box.dim p.Prop.input);
  Alcotest.(check (float 1e-12)) "lo0" 0.6 (Box.lo_at p.Prop.input 0);
  Alcotest.(check (float 1e-12)) "hi1" 0.5 (Box.hi_at p.Prop.input 1);
  (* Safety: Y_0 < 3.99, i.e. margin = 3.99 - Y_0. *)
  Alcotest.(check (float 1e-9)) "margin safe" 1.0 (Prop.margin p (Vec.of_list [ 2.99; 0.0 ]));
  Alcotest.(check bool) "unsafe output violates" false
    (Prop.holds_at p (Vec.of_list [ 5.0; 0.0 ]))

let test_vnnlib_linear_combination () =
  let text =
    {|(declare-const X_0 Real)
(declare-const Y_0 Real)
(declare-const Y_1 Real)
(assert (>= X_0 0.0))
(assert (<= X_0 1.0))
(assert (<= (+ (* 1.0 Y_0) (* -1.0 Y_1)) -0.5))
|}
  in
  (* Unsafe: Y_0 - Y_1 <= -0.5; safe: Y_0 - Y_1 > -0.5. *)
  let p = Vnnlib.parse text ~name:"lin" in
  Alcotest.(check bool) "clearly safe point" true (Prop.holds_at p (Vec.of_list [ 1.0; 0.0 ]));
  Alcotest.(check bool) "unsafe point" false (Prop.holds_at p (Vec.of_list [ 0.0; 1.0 ]))

let test_vnnlib_constant_side_flip () =
  let text =
    {|(declare-const X_0 Real)
(declare-const Y_0 Real)
(assert (<= 0.25 X_0))
(assert (>= 0.75 X_0))
(assert (>= Y_0 1.0))
|}
  in
  let p = Vnnlib.parse text ~name:"flip" in
  Alcotest.(check (float 1e-12)) "lo" 0.25 (Box.lo_at p.Prop.input 0);
  Alcotest.(check (float 1e-12)) "hi" 0.75 (Box.hi_at p.Prop.input 0)

let test_vnnlib_roundtrip () =
  let input = Box.make ~lo:(Vec.of_list [ 0.1; -0.2 ]) ~hi:(Vec.of_list [ 0.9; 0.3 ]) in
  let p = Prop.make ~name:"rt" ~input ~c:(Vec.of_list [ 1.0; -2.0; 0.0 ]) ~offset:0.75 in
  let p' = Vnnlib.parse (Vnnlib.print p) ~name:"rt" in
  Alcotest.(check bool) "box equal" true (Box.equal p.Prop.input p'.Prop.input);
  Alcotest.(check bool) "c equal" true (Vec.equal ~eps:1e-12 p.Prop.c p'.Prop.c);
  Alcotest.(check (float 1e-12)) "offset equal" p.Prop.offset p'.Prop.offset

let test_vnnlib_rejects_unsupported () =
  let expect_failure text =
    match Vnnlib.parse text ~name:"bad" with
    | exception Failure _ -> ()
    | _ -> Alcotest.fail "expected Failure"
  in
  (* Disjunction. *)
  expect_failure
    {|(declare-const X_0 Real)
(declare-const Y_0 Real)
(assert (>= X_0 0.0))
(assert (<= X_0 1.0))
(assert (or (>= Y_0 1.0) (<= Y_0 -1.0)))
|};
  (* Two output assertions. *)
  expect_failure
    {|(declare-const X_0 Real)
(declare-const Y_0 Real)
(assert (>= X_0 0.0))
(assert (<= X_0 1.0))
(assert (>= Y_0 1.0))
(assert (<= Y_0 2.0))
|};
  (* Unbounded input. *)
  expect_failure
    {|(declare-const X_0 Real)
(declare-const Y_0 Real)
(assert (>= X_0 0.0))
(assert (>= Y_0 1.0))
|};
  (* Non-linear. *)
  expect_failure
    {|(declare-const X_0 Real)
(declare-const Y_0 Real)
(assert (>= X_0 0.0))
(assert (<= X_0 1.0))
(assert (>= (* Y_0 Y_0) 1.0))
|}

let test_vnnlib_verifies_end_to_end () =
  (* Parse a property and verify it on the paper network. *)
  let net = Fixtures.paper_net () in
  let text =
    {|(declare-const X_0 Real)
(declare-const X_1 Real)
(declare-const Y_0 Real)
(assert (>= X_0 0.0))
(assert (<= X_0 1.0))
(assert (>= X_1 0.0))
(assert (<= X_1 1.0))
; unsafe: o1 drops below -1.6 (never happens: min is -1.5)
(assert (<= Y_0 -1.6))
|}
  in
  let prop = Vnnlib.parse text ~name:"paper-vnnlib" in
  let run =
    Ivan_bab.Bab.verify
      ~analyzer:(Ivan_analyzer.Analyzer.lp_triangle ())
      ~heuristic:Ivan_bab.Heuristic.zono_coeff ~net ~prop ()
  in
  Alcotest.(check bool) "verified" true (run.Ivan_bab.Bab.verdict = Ivan_bab.Bab.Proved)

let suite =
  [
    ("box basics", `Quick, test_box_basics);
    ("box invalid", `Quick, test_box_invalid);
    ("box split", `Quick, test_box_split);
    ("box clamp/sample", `Quick, test_box_clamp_and_sample);
    ("box clip", `Quick, test_box_clip);
    ("prop margin", `Quick, test_prop_margin);
    ("prop robustness", `Quick, test_prop_robustness);
    ("prop output constructors", `Quick, test_prop_output_constructors);
    ("vnnlib parse basic", `Quick, test_vnnlib_parse_basic);
    ("vnnlib linear combination", `Quick, test_vnnlib_linear_combination);
    ("vnnlib constant side flip", `Quick, test_vnnlib_constant_side_flip);
    ("vnnlib roundtrip", `Quick, test_vnnlib_roundtrip);
    ("vnnlib rejects unsupported", `Quick, test_vnnlib_rejects_unsupported);
    ("vnnlib end to end", `Quick, test_vnnlib_verifies_end_to_end);
  ]
