(* Differential verification: certify that deployment variants stay
   close to the reference model.

   Two levels, mirroring the paper's §7 positioning relative to
   ReluDiff:
   - a fast zonotope differential bound with input-split refinement,
   - complete differential verification on the product network, which
     inherits the whole IVAN machinery — so certifying the *second*
     variant reuses the proof trees of the first.

   Run with:  dune exec examples/differential.exe *)

module Vec = Ivan_tensor.Vec
module Network = Ivan_nn.Network
module Quant = Ivan_nn.Quant
module Box = Ivan_spec.Box
module Diff = Ivan_domains.Diff
module Analyzer = Ivan_analyzer.Analyzer
module Heuristic = Ivan_bab.Heuristic
module Diffverify = Ivan_core.Diffverify
module Zoo = Ivan_data.Zoo

let () =
  let spec = Zoo.fcn_mnist in
  Format.printf "training (or loading) %s...@." spec.Zoo.name;
  let net = Zoo.load_or_train spec in
  (* Certify closeness on a neighbourhood of a test image. *)
  let inputs, _ = Zoo.test_set spec in
  let box = Box.clip ~lo:0.0 ~hi:1.0 (Box.of_center ~center:inputs.(0) ~radius:0.02) in

  (* Level 1: one-shot zonotope differential bound. *)
  Format.printf "@.[zonotope differential bounds, int16 variant]@.";
  let u16 = Quant.network Quant.Int16 net in
  let level1_worst =
    match Diff.output_difference net u16 ~box with
    | None ->
        Format.printf "empty region@.";
        0.1
    | Some { Diff.lo; hi } ->
        let worst =
          Array.fold_left Float.max 0.0
            (Array.mapi (fun i l -> Float.max (Float.abs l) (Float.abs hi.(i))) lo)
        in
        Format.printf "certified: every logit moves by at most %.5f on the whole box@." worst;
        worst
  in

  (* Level 2: complete differential verification of two variants, the
     second incrementally.  A delta below the one-shot bound makes the
     BaB actually work for its verdict. *)
  let delta = 0.75 *. level1_worst in
  let analyzer = Analyzer.lp_triangle () in
  let config =
    {
      Ivan_core.Ivan.default_config with
      budget = { Ivan_bab.Bab.max_analyzer_calls = 100; max_seconds = 10.0 };
    }
  in
  let verdict_name = function
    | Diffverify.Equivalent -> "equivalent"
    | Diffverify.Deviation _ -> "deviates"
    | Diffverify.Unknown -> "unknown"
  in
  Format.printf "@.[complete differential verification, delta = %.3f]@." delta;
  let t0 = Unix.gettimeofday () in
  let first =
    Diffverify.verify ~analyzer ~heuristic:Heuristic.zono_coeff ~config net u16 ~box ~delta
  in
  let t1 = Unix.gettimeofday () in
  Format.printf "int16 variant: %-10s (%d analyzer calls, %.2fs, from scratch)@."
    (verdict_name first.Diffverify.verdict) first.Diffverify.total_calls (t1 -. t0);
  let u8 = Quant.network Quant.Int8 net in
  let scratch =
    Diffverify.verify ~analyzer ~heuristic:Heuristic.zono_coeff ~config net u8 ~box ~delta
  in
  let t2 = Unix.gettimeofday () in
  let second =
    Diffverify.verify_incremental ~analyzer ~heuristic:Heuristic.zono_coeff ~config
      ~previous:first net u8 ~box ~delta
  in
  let t3 = Unix.gettimeofday () in
  Format.printf "int8 variant:  %-10s (%d calls from scratch vs %d incremental, %.2fx)@."
    (verdict_name second.Diffverify.verdict) scratch.Diffverify.total_calls
    second.Diffverify.total_calls
    (float_of_int scratch.Diffverify.total_calls
    /. float_of_int (max 1 second.Diffverify.total_calls));
  ignore (t2, t3)
