(* Tests for the trusted proof checker: exact dyadic rationals, the
   weak-duality and Farkas checks on hand-built LPs, artifact round
   trips, and adversarial certificate corruption — every forged or
   transplanted certificate must be rejected with a precise error. *)

module Q = Ivan_cert.Q
module Cert = Ivan_cert.Cert
module Screen = Ivan_cert.Screen
module Lp = Ivan_lp.Lp
module Vec = Ivan_tensor.Vec
module Box = Ivan_spec.Box
module Prop = Ivan_spec.Prop
module Quant = Ivan_nn.Quant
module Zoo = Ivan_data.Zoo
module Analyzer = Ivan_analyzer.Analyzer
module Heuristic = Ivan_bab.Heuristic
module Bab = Ivan_bab.Bab
module Trace = Ivan_bab.Trace
module Ivan = Ivan_core.Ivan
module Workload = Ivan_harness.Workload
module Runner = Ivan_harness.Runner
module Encoding = Ivan_analyzer.Encoding
module Deeppoly = Ivan_domains.Deeppoly
module Splits = Ivan_domains.Splits
module Network = Ivan_nn.Network
module Relu_id = Ivan_nn.Relu_id

(* ---------------- Exact dyadic rationals ---------------- *)

let test_q_exactness () =
  (* Exact decoding does not round: the exact sum of the rationals
     behind 0.1 and 0.2 is neither the float 0.3 nor the float
     0.1 +. 0.2 (both are rounded). *)
  let a = Q.of_float 0.1 and b = Q.of_float 0.2 in
  let s = Q.add a b in
  Alcotest.(check bool) "0.1 + 0.2 <> float 0.3" false (Q.equal s (Q.of_float 0.3));
  Alcotest.(check bool) "0.1 + 0.2 <> rounded float sum" false
    (Q.equal s (Q.of_float (0.1 +. 0.2)));
  (* But exactly representable arithmetic is exact. *)
  Alcotest.(check bool) "0.25 + 0.5 = 0.75" true
    (Q.equal (Q.add (Q.of_float 0.25) (Q.of_float 0.5)) (Q.of_float 0.75));
  Alcotest.(check bool) "3 * 0.5 = 1.5" true
    (Q.equal (Q.mul (Q.of_int 3) (Q.of_float 0.5)) (Q.of_float 1.5))

let test_q_subnormals () =
  let tiny = Float.of_string "0x1p-1074" in
  let q = Q.of_float tiny in
  Alcotest.(check int) "positive" 1 (Q.sign q);
  Alcotest.(check bool) "doubling is exact" true
    (Q.equal (Q.add q q) (Q.of_float (Float.of_string "0x1p-1073")));
  Alcotest.(check bool) "smaller than epsilon" true (Q.compare q (Q.of_float epsilon_float) < 0)

let test_q_signs_and_compare () =
  let m = Q.of_float (-1.5) in
  Alcotest.(check int) "negative sign" (-1) (Q.sign m);
  Alcotest.(check bool) "below zero" true (Q.compare m Q.zero < 0);
  Alcotest.(check bool) "neg involution" true (Q.equal (Q.neg (Q.neg m)) m);
  Alcotest.(check bool) "sub to zero" true (Q.is_zero (Q.sub m m));
  Alcotest.(check bool) "both zeros collapse" true (Q.is_zero (Q.of_float (-0.0)));
  Alcotest.(check bool) "ordering" true (Q.compare (Q.of_int (-2)) (Q.of_float (-1.5)) < 0)

let test_q_non_finite () =
  Alcotest.(check bool) "nan" true (Q.of_float_opt Float.nan = None);
  Alcotest.(check bool) "inf" true (Q.of_float_opt Float.infinity = None);
  Alcotest.(check bool) "-inf" true (Q.of_float_opt Float.neg_infinity = None);
  Alcotest.check_raises "of_float nan" (Invalid_argument "Q.of_float: not finite") (fun () ->
      ignore (Q.of_float Float.nan))

let test_q_to_string () =
  Alcotest.(check string) "zero" "0" (Q.to_string Q.zero);
  Alcotest.(check string) "three" "0x3" (Q.to_string (Q.of_int 3));
  Alcotest.(check string) "minus three" "-0x3" (Q.to_string (Q.of_int (-3)));
  (* Floats decode with their full 53-bit mantissa (no normalization). *)
  Alcotest.(check string) "one" "0x400000*2^-22" (Q.to_string (Q.of_float 1.0))

(* ---------------- Hand-built LP checks ---------------- *)

(* min x  s.t.  x >= 3, x in [0, 10]: the row multiplier 1 certifies the
   bound 3 by weak duality. *)
let ge_snapshot () =
  {
    Cert.Snapshot.nvars = 1;
    obj = [| 1.0 |];
    lo = [| 0.0 |];
    hi = [| 10.0 |];
    rows = [| { Cert.Snapshot.idx = [| 0 |]; cf = [| 1.0 |]; cmp = Lp.Ge; rhs = 3.0 } |];
  }

let test_check_dual_hand_built () =
  let s = ge_snapshot () in
  (match Cert.check_dual s ~y:[| 1.0 |] ~threshold:(Q.of_int 3) with
  | Ok bound -> Alcotest.(check bool) "bound is exactly 3" true (Q.equal bound (Q.of_int 3))
  | Error msg -> Alcotest.failf "valid dual rejected: %s" msg);
  (* A weaker multiplier certifies a weaker bound, still soundly. *)
  (match Cert.check_dual s ~y:[| 0.5 |] ~threshold:(Q.of_float 1.5) with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "weaker dual rejected: %s" msg);
  (* ... but not the stronger threshold. *)
  match Cert.check_dual s ~y:[| 0.5 |] ~threshold:(Q.of_int 3) with
  | Ok _ -> Alcotest.fail "threshold 3 certified by a bound of 1.5"
  | Error _ -> ()

let test_check_dual_wrong_sign () =
  let s = ge_snapshot () in
  match Cert.check_dual s ~y:[| -1.0 |] ~threshold:(Q.of_int 0) with
  | Ok _ -> Alcotest.fail "negative multiplier accepted on a Ge row"
  | Error msg ->
      Alcotest.(check bool) "mentions the sign" true
        (String.length msg > 0 && Option.is_some (String.index_opt msg 's'))

let test_implied_bound_infinite_escape () =
  (* Unbounded variable pushed by a reduced cost: the implied bound
     would be -inf, which the checker must refuse to certify. *)
  let s = { (ge_snapshot ()) with Cert.Snapshot.hi = [| Float.infinity |]; obj = [| -1.0 |] } in
  match Cert.implied_bound s ~y:[| 1.0 |] with
  | Ok b -> Alcotest.failf "certified %s against an infinite bound" (Q.to_string b)
  | Error _ -> ()

let test_check_farkas_hand_built () =
  (* x >= 2 with x in [0, 1] is infeasible; multiplier 1 shows it. *)
  let s =
    {
      Cert.Snapshot.nvars = 1;
      obj = [| 0.0 |];
      lo = [| 0.0 |];
      hi = [| 1.0 |];
      rows = [| { Cert.Snapshot.idx = [| 0 |]; cf = [| 1.0 |]; cmp = Lp.Ge; rhs = 2.0 } |];
    }
  in
  (match Cert.check_farkas s ~y:[| 1.0 |] with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "valid Farkas witness rejected: %s" msg);
  (* The zero vector proves nothing. *)
  (match Cert.check_farkas s ~y:[| 0.0 |] with
  | Ok () -> Alcotest.fail "zero Farkas witness accepted"
  | Error _ -> ());
  (* A satisfiable system admits no witness: any admissible y yields a
     non-positive bound. *)
  let sat = { s with Cert.Snapshot.rows = [| { (s.rows.(0)) with Cert.Snapshot.rhs = 0.5 } |] } in
  match Cert.check_farkas sat ~y:[| 1.0 |] with
  | Ok () -> Alcotest.fail "Farkas witness accepted for a feasible system"
  | Error _ -> ()

(* ---------------- Golden certified run ---------------- *)

(* The paper's running example: min of o1 over [0,1]^2 is -1.5, so
   psi = (o1 + 1.6 >= 0) holds — tightly enough that the root LP cannot
   close it alone, forcing at least one split (two certified leaves). *)
let paper_prop ?(hi = 1.0) ?(offset = 1.6) () =
  Prop.make ~name:"paper-cert"
    ~input:(Box.make ~lo:(Vec.of_list [ 0.0; 0.0 ]) ~hi:(Vec.of_list [ hi; 1.0 ]))
    ~c:(Vec.of_list [ 1.0 ]) ~offset

let certified_run ?hi ?offset () =
  let prop = paper_prop ?hi ?offset () in
  let run =
    Bab.verify
      ~analyzer:(Analyzer.lp_triangle ~warm:true ~certify:true ())
      ~heuristic:Heuristic.zono_coeff ~certify:true ~net:(Fixtures.paper_net ()) ~prop ()
  in
  (match run.Bab.verdict with
  | Bab.Proved -> ()
  | _ -> Alcotest.fail "paper property did not prove");
  match run.Bab.artifact with
  | Some a -> (run, a)
  | None -> Alcotest.fail "certified run emitted no artifact"

let expect_invalid name artifact =
  match Cert.check_artifact artifact with
  | Ok _ -> Alcotest.failf "%s: corrupted artifact was accepted" name
  | Error msg ->
      if String.length msg = 0 then Alcotest.failf "%s: empty rejection message" name

let test_golden_run_certifies () =
  let run, artifact = certified_run () in
  Alcotest.(check int) "no cert went missing" 0 run.Bab.stats.Bab.certs_unavailable;
  Alcotest.(check bool) "every leaf certified" true (run.Bab.stats.Bab.certs_emitted >= 1);
  match Cert.check_artifact artifact with
  | Ok report ->
      Alcotest.(check int) "one certificate per tree leaf" report.Cert.leaves
        (List.length artifact.Cert.Artifact.leaves)
  | Error msg -> Alcotest.failf "pristine artifact rejected: %s" msg

let test_artifact_round_trip () =
  let _, artifact = certified_run () in
  let text = Cert.Artifact.to_string artifact in
  let artifact' = Cert.Artifact.of_string text in
  (match Cert.check_artifact artifact' with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "re-parsed artifact rejected: %s" msg);
  Alcotest.(check string) "print/parse/print is stable" text (Cert.Artifact.to_string artifact')

(* A run journal (what prove writes) and a certificate artifact (what
   check --certify writes) are distinct formats: each reader refuses the
   other's file. *)
let test_artifact_rejects_journal () =
  let buf = Buffer.create 4096 in
  ignore
    (Ivan.verify_original ~analyzer:(Analyzer.lp_triangle ()) ~heuristic:Heuristic.zono_coeff
       ~config:{ Ivan.default_config with journal = Some (Ivan_resilience.Journal.to_buffer buf) }
       ~net:(Fixtures.paper_net ()) ~prop:(paper_prop ()));
  match Cert.Artifact.of_string (Buffer.contents buf) with
  | _ -> Alcotest.fail "a run journal parsed as a certificate artifact"
  | exception Failure msg ->
      Alcotest.(check string) "header diagnostic"
        "Cert.Artifact.of_string: missing ivan-cert header" msg

let test_journal_resume_rejects_artifact () =
  let _, artifact = certified_run () in
  match
    Ivan_bab.Engine.resume ~analyzer:(Analyzer.lp_triangle ()) ~heuristic:Heuristic.zono_coeff
      ~net:(Fixtures.paper_net ()) ~prop:(paper_prop ()) (Cert.Artifact.to_string artifact)
  with
  | Ok _ -> Alcotest.fail "a certificate artifact resumed as a journal"
  | Error msg -> Alcotest.(check string) "diagnostic" "Engine.resume: no valid journal frames" msg

(* ---------------- Adversarial mutations ---------------- *)

(* Rewrite the witness multipliers of the [i]th leaf. *)
let mutate_leaf_witness artifact i f =
  let leaves =
    List.mapi
      (fun j (l : Cert.leaf) ->
        if j <> i then l
        else
          let witness =
            match l.Cert.evidence.Cert.witness with
            | Lp.Certificate.Dual y -> Lp.Certificate.Dual (f (Array.copy y))
            | Lp.Certificate.Farkas y -> Lp.Certificate.Farkas (f (Array.copy y))
          in
          { l with Cert.evidence = { l.Cert.evidence with Cert.witness } })
      artifact.Cert.Artifact.leaves
  in
  { artifact with Cert.Artifact.leaves }

let first_nonzero y =
  let rec go i = if i >= Array.length y then None else if y.(i) <> 0.0 then Some i else go (i + 1) in
  go 0

let test_every_leaf_mutation_rejected () =
  (* Corrupting any single leaf certificate — a sign-constrained
     multiplier pushed out of its half-space, or the certificate dropped
     when the snapshot has only equality rows — invalidates the whole
     artifact. *)
  let _, artifact = certified_run () in
  let n = List.length artifact.Cert.Artifact.leaves in
  Alcotest.(check bool) "at least two leaves" true (n >= 2);
  for i = 0 to n - 1 do
    let mutated =
      {
        artifact with
        Cert.Artifact.leaves =
          List.concat
            (List.mapi
               (fun j (l : Cert.leaf) ->
                 if j <> i then [ l ]
                 else
                   match Fault.corrupt_evidence Fault.Cert_perturb_dual l.Cert.evidence with
                   | Some evidence -> [ { l with Cert.evidence } ]
                   | None -> [] (* all-equality snapshot: drop instead *))
               artifact.Cert.Artifact.leaves);
      }
    in
    expect_invalid (Printf.sprintf "corrupted leaf %d" i) mutated
  done

let test_bit_flip_rejected () =
  (* Flip a high exponent bit of one multiplier: the value stays finite
     and sign-admissible but huge, so the exactly recomputed bound
     collapses far below the threshold. *)
  let _, artifact = certified_run () in
  let mutated =
    mutate_leaf_witness artifact 0 (fun y ->
        (match first_nonzero y with
        | Some j -> y.(j) <- Int64.float_of_bits (Int64.logxor (Int64.bits_of_float y.(j)) 0x4000_0000_0000_0000L)
        | None -> ());
        y)
  in
  expect_invalid "exponent bit flip" mutated

let test_deleted_leaf_rejected () =
  let _, artifact = certified_run () in
  let dropped =
    { artifact with Cert.Artifact.leaves = List.tl artifact.Cert.Artifact.leaves }
  in
  (match Cert.check_artifact dropped with
  | Ok _ -> Alcotest.fail "artifact with a deleted leaf accepted"
  | Error msg ->
      Alcotest.(check bool) "names the uncertified leaf" true
        (String.length msg >= 14 && String.sub msg 0 4 = "leaf"))

let test_rekeyed_leaves_rejected () =
  (* Swap the node bindings of the first two certificates: each now
     claims the other leaf's split path, which the fingerprint check
     refuses. *)
  let _, artifact = certified_run () in
  match artifact.Cert.Artifact.leaves with
  | a :: b :: rest ->
      let swapped =
        { a with Cert.node = b.Cert.node } :: { b with Cert.node = a.Cert.node } :: rest
      in
      expect_invalid "re-keyed leaves" { artifact with Cert.Artifact.leaves = swapped }
  | _ -> Alcotest.fail "expected at least two leaves"

let test_transplanted_artifact_rejected () =
  (* Re-key a whole proof to a different property: the certificates'
     snapshots are bound to the original input box bit-for-bit, so
     every leaf check fails on the narrowed box. *)
  let _, artifact = certified_run () in
  let transplanted = { artifact with Cert.Artifact.prop = paper_prop ~hi:0.9 () } in
  expect_invalid "transplanted proof" transplanted

let test_transplanted_evidence_rejected () =
  (* Transplant evidence grown under a narrower box into the wide-box
     proof: the input-binding check rejects each foreign snapshot. *)
  let _, wide = certified_run () in
  let _, narrow = certified_run ~hi:0.9 () in
  match narrow.Cert.Artifact.leaves with
  | foreign :: _ ->
      let leaves =
        List.map
          (fun (l : Cert.leaf) -> { l with Cert.evidence = foreign.Cert.evidence })
          wide.Cert.Artifact.leaves
      in
      expect_invalid "transplanted evidence" { wide with Cert.Artifact.leaves = leaves }
  | [] -> Alcotest.fail "narrow-box run emitted no certificates"

(* ---------------- Float screen ---------------- *)

let leaf_of ?(const = 0.0) snapshot witness =
  { Cert.node = 0; splits = ""; evidence = { Cert.const; snapshot; witness } }

let test_screen_hand_built () =
  (* The bound 3 of [ge_snapshot] clears thresholds below it with room
     to spare; at exactly 3 the float bound leaves no room for its own
     error, so the screen defers to the exact check. *)
  let box = Box.make ~lo:[| 0.0 |] ~hi:[| 10.0 |] in
  let s = ge_snapshot () in
  let dual const = Screen.passes ~box (leaf_of ~const s (Lp.Certificate.Dual [| 1.0 |])) in
  Alcotest.(check bool) "clear margin passes" true (dual (-2.0));
  Alcotest.(check bool) "zero margin is left to the exact check" false (dual (-3.0));
  Alcotest.(check bool) "negative margin never passes" false (dual (-4.0));
  Alcotest.(check bool) "wrong-signed multiplier never passes" false
    (Screen.passes ~box (leaf_of s (Lp.Certificate.Dual [| -1.0 |])));
  Alcotest.(check bool) "box mismatch never passes" false
    (Screen.passes ~box:(Box.make ~lo:[| 0.0 |] ~hi:[| 9.0 |])
       (leaf_of ~const:(-2.0) s (Lp.Certificate.Dual [| 1.0 |])));
  let infeasible = { s with Cert.Snapshot.hi = [| 1.0 |] } in
  Alcotest.(check bool) "Farkas witness passes" true
    (Screen.passes ~box:(Box.make ~lo:[| 0.0 |] ~hi:[| 1.0 |])
       (leaf_of infeasible (Lp.Certificate.Farkas [| 1.0 |])));
  (* Eight products y_i b_i just above -2^-1075 each round to -0, so
     the float bound is the constant 2^-1073 while the exact one is
     about -2^-1073: only the underflow terms keep the screen from
     passing. *)
  let underflowing =
    {
      Cert.Snapshot.nvars = 1;
      obj = [| 0.0 |];
      lo = [| 0.0 |];
      hi = [| 1.0 |];
      rows =
        Array.make 8
          { Cert.Snapshot.idx = [| 0 |]; cf = [| 0.0 |]; cmp = Lp.Ge; rhs = -0x1.fffffep-538 };
    }
  in
  let leaf =
    leaf_of ~const:0x1p-1073 underflowing (Lp.Certificate.Dual (Array.make 8 0x1p-538))
  in
  let box = Box.make ~lo:[| 0.0 |] ~hi:[| 1.0 |] in
  Alcotest.(check bool) "exact check rejects" true (Result.is_error (Cert.check_leaf ~box leaf));
  Alcotest.(check bool) "underflow never passes" false (Screen.passes ~box leaf)

let test_fcn_screen_decides_every_leaf () =
  (* The fcn-mnist certify fixture: every emitted certificate is
     admitted by the float screen alone, without an exact fallback. *)
  let spec = Zoo.fcn_mnist in
  let net = Zoo.train spec in
  let totals = ref Trace.empty_aggregate in
  List.iter
    (fun (inst : Workload.instance) ->
      let run =
        Bab.verify
          ~analyzer:(Analyzer.lp_triangle ~certify:true ())
          ~heuristic:Heuristic.zono_coeff ~certify:true
          ~budget:{ Bab.max_analyzer_calls = 150; max_seconds = 20.0 }
          ~trace:(Trace.hook (fun ev -> totals := Trace.count !totals ev))
          ~net ~prop:inst.Workload.prop ()
      in
      match run.Bab.artifact with
      | Some artifact when run.Bab.verdict = Bab.Proved -> (
          match Cert.check_artifact artifact with
          | Ok _ -> ()
          | Error msg -> Alcotest.failf "artifact rejected: %s" msg)
      | _ -> ())
    (Workload.robustness_instances ~spec ~net ~count:4);
  let a = !totals in
  Alcotest.(check bool) "certificates were emitted" true (a.Trace.certs_emitted > 0);
  Alcotest.(check int) "no certificate unavailable" 0 a.Trace.certs_unavailable;
  Alcotest.(check int) "no exact fallback" 0 a.Trace.cert_exact_checks

let test_crash_start_certificate () =
  (* A root LP answered from the crash basis (refactorization pivots,
     nothing abandoned), and a split node whose crash corner lies outside the
     split, answered by the dual simplex from that infeasible basis:
     each carries a Dual certificate that the float screen and the exact
     check both accept at a margin just above the optimum. *)
  List.iter
    (fun (name, net, prop) ->
      let box = prop.Prop.input in
      let tri = Option.get (Encoding.Triangle.build net ~prop) in
      let lp = Encoding.Triangle.lp tri in
      let upper = Array.init (Box.dim box) (fun j -> j mod 2 = 1) in
      let specialize splits =
        match Deeppoly.analyze net ~box ~splits with
        | Deeppoly.Infeasible -> false
        | Deeppoly.Feasible dp ->
            Encoding.Triangle.specialize tri ~box ~splits ~bounds:(Deeppoly.bounds dp);
            true
      in
      let certified label =
        let start = Option.get (Encoding.Triangle.crash tri ~upper) in
        match Lp.solve ~start lp with
        | Lp.Optimal { objective; certificate = Some witness; _ } ->
            let s = Option.get (Lp.last_stats lp) in
            Alcotest.(check bool) (label ^ ": answered from the crash basis") true
              (s.Lp.factor_pivots > 0 && s.Lp.miss_pivots = 0);
            let const = (1e-6 *. (1.0 +. Float.abs objective)) -. objective in
            let leaf = leaf_of ~const (Cert.Snapshot.of_problem lp) witness in
            Alcotest.(check bool) (label ^ ": screen passes") true (Screen.passes ~box leaf);
            Alcotest.(check bool) (label ^ ": exact check accepts") true
              (Result.is_ok (Cert.check_leaf ~box leaf))
        | _ -> Alcotest.failf "%s: no certified optimum" label
      in
      if not (specialize Splits.empty) then Alcotest.failf "%s: root DeepPoly-infeasible" name;
      certified name;
      (* The first first-layer unit clear of zero at the corner whose
         split to the other side leaves a feasible node LP. *)
      let corner = Array.mapi (fun j up -> if up then Box.hi_at box j else Box.lo_at box j) upper in
      let pre = (Network.forward_trace net corner).Network.pre.(0) in
      let feasible splits =
        specialize splits
        && match Lp.solve lp with Lp.Optimal _ -> true | Lp.Infeasible | Lp.Unbounded -> false
      in
      let node =
        List.find_map
          (fun (r : Relu_id.t) ->
            let v = pre.(r.Relu_id.index) in
            if r.Relu_id.layer <> 0 || Float.abs v <= 1e-3 then None
            else
              let splits = Splits.add r (if v > 0.0 then Splits.Neg else Splits.Pos) Splits.empty in
              if feasible splits then Some r else None)
          (Array.to_list (Network.relu_ids net))
      in
      match node with
      | None -> Alcotest.failf "%s: no feasible split against the corner" name
      | Some r -> certified (Printf.sprintf "%s, split against the corner at unit %d" name r.Relu_id.index))
    (Fixtures.golden_subjects ())

(* ---------------- Determinism across domains ---------------- *)

let test_parallel_certified_runs () =
  (* Certification under the parallel runner: verdicts match the
     sequential run and every emitted artifact passes the checker. *)
  let spec = Zoo.fcn_mnist in
  let net = Zoo.train spec in
  let updated = Quant.network Quant.Int16 net in
  let setting =
    Runner.classifier_setting
      ~config:
        {
          Ivan.default_config with
          budget = { Bab.max_analyzer_calls = 150; max_seconds = 20.0 };
          certify = true;
        }
      ()
  in
  let instances = Workload.robustness_instances ~spec ~net ~count:4 in
  let run domains =
    Runner.run_all ~domains setting ~net ~updated ~techniques:[ Ivan.Full ] instances
  in
  let seq = run 1 and par = run 4 in
  let kind (m : Runner.timed) =
    match m.Runner.run.Bab.verdict with Bab.Proved -> 0 | Bab.Disproved _ -> 1 | Bab.Exhausted -> 2
  in
  let check_measurement label (m : Runner.timed) =
    match m.Runner.run.Bab.artifact with
    | None ->
        (* Only an exhausted run may fail to produce an artifact under
           certify. *)
        Alcotest.(check int) (label ^ " artifact only missing when exhausted") 2 (kind m)
    | Some artifact -> (
        match Cert.check_artifact artifact with
        | Ok _ -> ()
        | Error msg -> Alcotest.failf "%s: artifact rejected: %s" label msg)
  in
  List.iter2
    (fun (a : Runner.comparison) (b : Runner.comparison) ->
      Alcotest.(check int) "verdicts identical across domains" (kind a.Runner.baseline)
        (kind b.Runner.baseline);
      Alcotest.(check int) "emitted counts identical across domains"
        a.Runner.baseline.Runner.run.Bab.stats.Bab.certs_emitted
        b.Runner.baseline.Runner.run.Bab.stats.Bab.certs_emitted;
      check_measurement "seq original" a.Runner.original;
      check_measurement "seq baseline" a.Runner.baseline;
      check_measurement "par baseline" b.Runner.baseline;
      List.iter (fun (_, m) -> check_measurement "seq technique" m) a.Runner.techniques;
      List.iter (fun (_, m) -> check_measurement "par technique" m) b.Runner.techniques)
    seq par

(* Exact evaluation lowers a conv layer to its dense matrix: a certified
   run's counterexample on a small conv net checks, and the same
   artifact under a property the point satisfies is rejected. *)
let test_conv_counterexample_checks () =
  let net =
    Ivan_nn.Builder.conv_net ~rng:(Ivan_tensor.Rng.create 5) ~in_channels:1 ~in_height:4 ~in_width:4
      ~convs:[ { Ivan_nn.Builder.out_channels = 2; kernel = 3; stride = 1; padding = 1 } ]
      ~dense:[ 4; 2 ]
  in
  let d = Network.input_dim net in
  let lo = Array.make d 0.0 and hi = Array.make d 1.0 in
  let c = [| 1.0; -1.0 |] in
  let margin offset x = Prop.margin (Prop.make ~name:"m" ~input:(Box.make ~lo ~hi) ~c ~offset) (Network.forward net x) in
  (* Violated by 0.5 at the box centre. *)
  let offset = -.margin 0.0 (Array.make d 0.5) -. 0.5 in
  let prop = Prop.make ~name:"conv-cex" ~input:(Box.make ~lo ~hi) ~c ~offset in
  let run =
    Bab.verify
      ~analyzer:(Analyzer.lp_triangle ~certify:true ())
      ~heuristic:Heuristic.zono_coeff ~certify:true ~net ~prop ()
  in
  match (run.Bab.verdict, run.Bab.artifact) with
  | Bab.Disproved x, Some artifact -> (
      let artifact = Cert.Artifact.of_string (Cert.Artifact.to_string artifact) in
      (match Cert.check_artifact artifact with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "conv counterexample rejected: %s" msg);
      let satisfied = { prop with Prop.offset = offset -. margin offset x +. 0.25 } in
      match Cert.check_artifact { artifact with Cert.Artifact.prop = satisfied } with
      | Ok _ -> Alcotest.fail "a point the property holds at was accepted as a counterexample"
      | Error _ -> ())
  | _ -> Alcotest.fail "no disproved artifact on a property violated at the centre"

let suite =
  [
    ("q exactness", `Quick, test_q_exactness);
    ("q subnormals", `Quick, test_q_subnormals);
    ("q signs and compare", `Quick, test_q_signs_and_compare);
    ("q non-finite", `Quick, test_q_non_finite);
    ("q to_string", `Quick, test_q_to_string);
    ("check_dual hand-built", `Quick, test_check_dual_hand_built);
    ("check_dual wrong sign", `Quick, test_check_dual_wrong_sign);
    ("implied_bound infinite escape", `Quick, test_implied_bound_infinite_escape);
    ("check_farkas hand-built", `Quick, test_check_farkas_hand_built);
    ("golden run certifies", `Quick, test_golden_run_certifies);
    ("artifact round trip", `Quick, test_artifact_round_trip);
    ("artifact rejects a run journal", `Quick, test_artifact_rejects_journal);
    ("journal resume rejects an artifact", `Quick, test_journal_resume_rejects_artifact);
    ("every leaf mutation rejected", `Quick, test_every_leaf_mutation_rejected);
    ("bit flip rejected", `Quick, test_bit_flip_rejected);
    ("deleted leaf rejected", `Quick, test_deleted_leaf_rejected);
    ("re-keyed leaves rejected", `Quick, test_rekeyed_leaves_rejected);
    ("transplanted artifact rejected", `Quick, test_transplanted_artifact_rejected);
    ("transplanted evidence rejected", `Quick, test_transplanted_evidence_rejected);
    ("parallel certified runs", `Quick, test_parallel_certified_runs);
    ("screen hand-built", `Quick, test_screen_hand_built);
    ("fcn screen decides every leaf", `Quick, test_fcn_screen_decides_every_leaf);
    ("crash start certificate", `Quick, test_crash_start_certificate);
    ("conv counterexample checks", `Quick, test_conv_counterexample_checks);
    QCheck_alcotest.to_alcotest
      ~rand:(Random.State.make [| Screen_oracle.Oracle.seed |])
      (Screen_oracle.Oracle.test ~count:Screen_oracle.Oracle.tier1_count);
  ]
