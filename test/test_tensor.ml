(* Unit and property tests for the tensor substrate: Rng, Vec, Mat. *)

module Rng = Ivan_tensor.Rng
module Vec = Ivan_tensor.Vec
module Mat = Ivan_tensor.Mat

let check_float = Alcotest.(check (float 1e-9))

(* ---------------- Rng ---------------- *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seeds_differ () =
  let a = Rng.create 1 and b = Rng.create 2 in
  Alcotest.(check bool) "different seeds differ" true (Rng.bits64 a <> Rng.bits64 b)

let test_rng_int_range () =
  let t = Rng.create 3 in
  for _ = 1 to 1000 do
    let v = Rng.int t 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

let test_rng_int_invalid () =
  let t = Rng.create 3 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound must be positive") (fun () ->
      ignore (Rng.int t 0))

let test_rng_float_range () =
  let t = Rng.create 5 in
  for _ = 1 to 1000 do
    let v = Rng.float t 2.5 in
    Alcotest.(check bool) "in [0, 2.5)" true (v >= 0.0 && v < 2.5)
  done

let test_rng_uniform_range () =
  let t = Rng.create 9 in
  for _ = 1 to 1000 do
    let v = Rng.uniform t (-3.0) 4.0 in
    Alcotest.(check bool) "in [-3, 4)" true (v >= -3.0 && v < 4.0)
  done

let test_rng_gaussian_moments () =
  let t = Rng.create 11 in
  let n = 20_000 in
  let sum = ref 0.0 and sumsq = ref 0.0 in
  for _ = 1 to n do
    let x = Rng.gaussian t in
    sum := !sum +. x;
    sumsq := !sumsq +. (x *. x)
  done;
  let mean = !sum /. float_of_int n in
  let var = (!sumsq /. float_of_int n) -. (mean *. mean) in
  Alcotest.(check bool) "mean near 0" true (Float.abs mean < 0.05);
  Alcotest.(check bool) "variance near 1" true (Float.abs (var -. 1.0) < 0.1)

let test_rng_shuffle_permutation () =
  let t = Rng.create 13 in
  let a = Array.init 50 (fun i -> i) in
  Rng.shuffle t a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 (fun i -> i)) sorted

(* ---------------- Vec ---------------- *)

let test_vec_add_sub () =
  let a = Vec.of_list [ 1.0; 2.0; 3.0 ] and b = Vec.of_list [ 0.5; -1.0; 2.0 ] in
  Alcotest.(check bool) "add" true (Vec.equal (Vec.add a b) (Vec.of_list [ 1.5; 1.0; 5.0 ]));
  Alcotest.(check bool) "sub" true (Vec.equal (Vec.sub a b) (Vec.of_list [ 0.5; 3.0; 1.0 ]))

let test_vec_dims_mismatch () =
  let a = Vec.zeros 2 and b = Vec.zeros 3 in
  Alcotest.check_raises "add mismatch" (Invalid_argument "Vec.add: dimension mismatch (2 vs 3)")
    (fun () -> ignore (Vec.add a b))

let test_vec_dot () =
  let a = Vec.of_list [ 1.0; 2.0; 3.0 ] and b = Vec.of_list [ 4.0; 5.0; 6.0 ] in
  check_float "dot" 32.0 (Vec.dot a b)

let test_vec_norms () =
  let a = Vec.of_list [ 3.0; -4.0 ] in
  check_float "norm2" 5.0 (Vec.norm2 a);
  check_float "norm_inf" 4.0 (Vec.norm_inf a)

let test_vec_relu () =
  let a = Vec.of_list [ -1.0; 0.0; 2.5 ] in
  Alcotest.(check bool) "relu" true (Vec.equal (Vec.relu a) (Vec.of_list [ 0.0; 0.0; 2.5 ]))

let test_vec_argmax () =
  Alcotest.(check int) "argmax" 2 (Vec.argmax (Vec.of_list [ 1.0; 3.0; 7.0; 2.0 ]));
  Alcotest.(check int) "first maximal" 0 (Vec.argmax (Vec.of_list [ 5.0; 5.0 ]))

let test_vec_minmax () =
  let v = Vec.of_list [ 2.0; -7.0; 4.0 ] in
  check_float "max" 4.0 (Vec.max_elt v)

let test_vec_scale_map () =
  let v = Vec.of_list [ 1.0; -2.0 ] in
  Alcotest.(check bool) "map" true (Vec.equal (Vec.map Float.abs v) (Vec.of_list [ 1.0; 2.0 ]))

(* ---------------- Mat ---------------- *)

let test_mat_matvec () =
  let m = Mat.of_arrays [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |]; [| 5.0; 6.0 |] |] in
  let x = Vec.of_list [ 1.0; -1.0 ] in
  Alcotest.(check bool) "matvec" true (Vec.equal (Mat.matvec m x) (Vec.of_list [ -1.0; -1.0; -1.0 ]))

let test_mat_matvec_t () =
  let m = Mat.of_arrays [| [| 1.0; -2.0 |]; [| -3.0; 4.0 |] |] in
  Alcotest.(check bool) "|m|^T x" true
    (Vec.equal (Mat.abs_matvec_t m (Vec.of_list [ 1.0; 2.0 ])) (Vec.of_list [ 7.0; 10.0 ]));
  (* Each entry is the sum of |m_ij| x_i in row order, bit for bit,
     signed zeros included. *)
  let rng = Rng.create 144 in
  let m =
    Mat.init 7 5 (fun i j -> if (i + j) mod 4 = 0 then -0.0 else Rng.uniform rng (-2.0) 2.0)
  in
  let x = Array.init 7 (fun i -> if i = 3 then 0.0 else Rng.uniform rng 0.0 3.0) in
  let expected =
    Array.init 5 (fun j ->
        let acc = ref 0.0 in
        Array.iteri (fun i xi -> if xi <> 0.0 then acc := !acc +. (Float.abs (Mat.get m i j) *. xi)) x;
        !acc)
  in
  Alcotest.(check (list int64)) "abs_matvec_t bits"
    (Array.to_list (Array.map Int64.bits_of_float expected))
    (Array.to_list (Array.map Int64.bits_of_float (Mat.abs_matvec_t m x)))

let test_mat_frobenius () =
  let m = Mat.of_arrays [| [| 3.0; 0.0 |]; [| 0.0; 4.0 |] |] in
  check_float "frobenius" 5.0 (Mat.frobenius_norm m)

let test_mat_row_col () =
  let m = Mat.of_arrays [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  Alcotest.(check bool) "row" true (Vec.equal (Mat.row m 1) (Vec.of_list [ 3.0; 4.0 ]))

let test_mat_ragged () =
  Alcotest.check_raises "ragged" (Invalid_argument "Mat.of_arrays: ragged rows") (fun () ->
      ignore (Mat.of_arrays [| [| 1.0 |]; [| 1.0; 2.0 |] |]))

(* ---------------- Properties ---------------- *)

let vec_gen n = QCheck.Gen.(array_size (return n) (float_bound_inclusive 10.0))

let prop_dot_commutative =
  QCheck.Test.make ~name:"dot commutative" ~count:200
    QCheck.(pair (make (vec_gen 8)) (make (vec_gen 8)))
    (fun (a, b) -> Float.abs (Vec.dot a b -. Vec.dot b a) < 1e-9)

let prop_matvec_linear =
  QCheck.Test.make ~name:"matvec linear in argument" ~count:100
    QCheck.(pair (make (vec_gen 6)) (make (vec_gen 6)))
    (fun (x, y) ->
      let m = Mat.init 4 6 (fun i j -> float_of_int (((i + 1) * (j + 2)) mod 5) -. 2.0) in
      let lhs = Mat.matvec m (Vec.add x y) in
      let rhs = Vec.add (Mat.matvec m x) (Mat.matvec m y) in
      Vec.equal ~eps:1e-6 lhs rhs)

let prop_frobenius_triangle =
  QCheck.Test.make ~name:"frobenius triangle inequality" ~count:100
    QCheck.(pair (make (vec_gen 9)) (make (vec_gen 9)))
    (fun (a, b) ->
      let ma = Mat.init 3 3 (fun i j -> a.((i * 3) + j)) in
      let mb = Mat.init 3 3 (fun i j -> b.((i * 3) + j)) in
      Mat.frobenius_norm (Mat.add ma mb)
      <= Mat.frobenius_norm ma +. Mat.frobenius_norm mb +. 1e-9)

let suite =
  let q = QCheck_alcotest.to_alcotest in
  [
    ("rng deterministic", `Quick, test_rng_deterministic);
    ("rng seeds differ", `Quick, test_rng_seeds_differ);
    ("rng int range", `Quick, test_rng_int_range);
    ("rng int invalid", `Quick, test_rng_int_invalid);
    ("rng float range", `Quick, test_rng_float_range);
    ("rng uniform range", `Quick, test_rng_uniform_range);
    ("rng gaussian moments", `Quick, test_rng_gaussian_moments);
    ("rng shuffle permutation", `Quick, test_rng_shuffle_permutation);
    ("vec add/sub", `Quick, test_vec_add_sub);
    ("vec dim mismatch", `Quick, test_vec_dims_mismatch);
    ("vec dot", `Quick, test_vec_dot);
    ("vec norms", `Quick, test_vec_norms);
    ("vec relu", `Quick, test_vec_relu);
    ("vec argmax", `Quick, test_vec_argmax);
    ("vec min/max", `Quick, test_vec_minmax);
    ("vec scale/map", `Quick, test_vec_scale_map);
    ("mat matvec", `Quick, test_mat_matvec);
    ("mat matvec_t", `Quick, test_mat_matvec_t);
    ("mat frobenius", `Quick, test_mat_frobenius);
    ("mat row/col", `Quick, test_mat_row_col);
    ("mat ragged", `Quick, test_mat_ragged);
    q prop_dot_commutative;
    q prop_matvec_linear;
    q prop_frobenius_triangle;
  ]
