(* Fault-matrix sweep: seeds x fault kinds x verification stacks.

   Property checked on every schedule: a verification run under
   injected faults (LP blowups, NaN/inf bounds, latency, transient
   exceptions) never escapes an exception, never flips a decisive
   verdict relative to the fault-free reference run — it may only
   weaken to Exhausted — reports only concretely-genuine
   counterexamples, and always leaves a well-formed specification
   tree.

   Certificate schedules damage proof evidence instead, and
   carried-multiplier schedules damage the multipliers a seed leaf of an
   incremental run tries before its simplex: neither may change a
   verdict.

   Run via the alias:  dune build @fault-matrix *)

module Vec = Ivan_tensor.Vec
module Mat = Ivan_tensor.Mat
module Layer = Ivan_nn.Layer
module Network = Ivan_nn.Network
module Box = Ivan_spec.Box
module Prop = Ivan_spec.Prop
module Analyzer = Ivan_analyzer.Analyzer
module Heuristic = Ivan_bab.Heuristic
module Bab = Ivan_bab.Bab
module Tree = Ivan_spectree.Tree
module Cert = Ivan_cert.Cert

(* The paper's running example (Fig. 2), self-contained: this
   executable builds in its own directory and cannot see test/
   fixtures. *)
let net =
  let dense ?(activation = Layer.Relu) weights bias =
    Layer.make (Layer.Dense { weights = Mat.of_arrays weights; bias }) activation
  in
  Network.make
    [
      dense [| [| 2.0; -1.0 |]; [| 1.0; 1.0 |] |] [| 0.0; 0.0 |];
      dense [| [| 1.0; -2.0 |]; [| -1.0; 1.0 |] |] [| 0.0; 0.0 |];
      dense ~activation:Layer.Identity [| [| 1.0; -1.0 |] |] [| 0.0 |];
    ]

(* psi = (o1 + k >= 0) over [0,1]^2; the exact minimum of o1 is -1.5,
   so k = 1.3 is violated and k = 1.7 holds. *)
let prop offset =
  let input = Box.make ~lo:(Vec.of_list [ 0.0; 0.0 ]) ~hi:(Vec.of_list [ 1.0; 1.0 ]) in
  Prop.make
    ~name:(Printf.sprintf "paper+%g" offset)
    ~input ~c:(Vec.of_list [ 1.0 ]) ~offset

let stacks =
  [
    ("classifier", Analyzer.lp_triangle (), Heuristic.zono_coeff);
    ("acas", Analyzer.zonotope (), Heuristic.input_smear);
  ]

let budget = { Bab.max_analyzer_calls = 300; max_seconds = 20.0 }

let schedules = ref 0
let injected = ref 0
let weakened = ref 0
let failures = ref 0

let fail label fmt =
  Printf.ksprintf
    (fun msg ->
      incr failures;
      Printf.printf "FAIL %-40s %s\n%!" label msg)
    fmt

let run_schedule label analyzer heuristic property reference plan =
  incr schedules;
  match
    Fault.with_lp_faults plan (fun () ->
        Bab.verify
          ~analyzer:(Fault.wrap_analyzer plan analyzer)
          ~heuristic ~budget ~policy:Analyzer.default_policy ~net ~prop:property ())
  with
  | exception e -> fail label "uncaught exception %s" (Printexc.to_string e)
  | faulted -> (
      injected := !injected + Fault.injected plan;
      (match (reference.Bab.verdict, faulted.Bab.verdict) with
      | Bab.Proved, Bab.Proved | Bab.Disproved _, Bab.Disproved _ | Bab.Exhausted, _ -> ()
      | (Bab.Proved | Bab.Disproved _), Bab.Exhausted -> incr weakened
      | _ -> fail label "verdict flipped under faults");
      (match faulted.Bab.verdict with
      | Bab.Disproved x when not (Analyzer.check_concrete net ~prop:property x) ->
          fail label "counterexample does not reproduce concretely"
      | _ -> ());
      if not (Tree.well_formed faulted.Bab.tree) then fail label "malformed tree")

(* Certificate-corruption schedules.  Property checked: injected
   certificate faults can lose certificates (the leaf is counted
   unavailable, the artifact fails the independent checker) but never
   forge one — a corrupted artifact is always rejected, and the verdict
   itself never changes. *)
let certificate_schedules () =
  let property = prop 1.7 in
  let certified ?plan () =
    let analyzer = Analyzer.lp_triangle ~certify:true () in
    let analyzer, wrap =
      match plan with
      | None -> (analyzer, fun f -> f ())
      | Some p -> (Fault.wrap_analyzer p analyzer, Fault.with_lp_faults p)
    in
    wrap (fun () ->
        Bab.verify ~analyzer ~heuristic:Heuristic.zono_coeff ~budget ~certify:true ~net
          ~prop:property ())
  in
  (* Fault-free reference: every leaf certified, artifact checks. *)
  let reference = certified () in
  incr schedules;
  let label = "certificates fault-free" in
  (match reference.Bab.verdict with
  | Bab.Proved -> ()
  | _ -> fail label "reference run did not prove the property");
  (match reference.Bab.artifact with
  | None -> fail label "certified run produced no artifact"
  | Some artifact -> (
      (match Cert.check_artifact artifact with
      | Ok _ -> ()
      | Error msg -> fail label "pristine artifact rejected: %s" msg);
      (* Post-hoc corruption of a checked artifact: both kinds must be
         rejected by the independent checker. *)
      List.iter
        (fun kind ->
          incr schedules;
          let label = Printf.sprintf "certificates corrupt-artifact %s" (Fault.kind_name kind) in
          match Cert.check_artifact (Fault.corrupt_artifact kind artifact) with
          | Ok _ -> fail label "corrupted artifact was accepted"
          | Error _ -> ())
        [ Fault.Cert_perturb_dual; Fault.Cert_drop ]));
  (* In-flight corruption at the analyzer boundary: the engine's
     emission-time self-check must reject damaged evidence (certificates
     are lost, never forged) while the verdict stays Proved. *)
  List.iter
    (fun kind ->
      for seed = 1 to 3 do
        incr schedules;
        let label =
          Printf.sprintf "certificates in-flight %s seed=%d" (Fault.kind_name kind) seed
        in
        let plan = Fault.plan ~analyzer_rate:1.0 ~kinds:[ kind ] ~seed () in
        match certified ~plan () with
        | exception e -> fail label "uncaught exception %s" (Printexc.to_string e)
        | faulted -> (
            injected := !injected + Fault.injected plan;
            (match faulted.Bab.verdict with
            | Bab.Proved -> ()
            | _ -> fail label "certificate fault changed the verdict");
            if faulted.Bab.stats.Bab.certs_unavailable = 0 then
              fail label "no certificate was lost despite rate-1.0 corruption";
            match faulted.Bab.artifact with
            | None -> fail label "certified run produced no artifact"
            | Some artifact -> (
                match Cert.check_artifact artifact with
                | Ok _ -> fail label "artifact with lost certificates was accepted"
                | Error _ -> ()))
      done)
    [ Fault.Cert_perturb_dual; Fault.Cert_drop ]

(* Carried-multiplier schedules.  An incremental run seeds N^a (N with
   every weight moved by up to 1%) with N's certified tree, whose
   verified leaves carry the multipliers that proved them.  Each
   schedule damages every one of them (signs flipped, scaled by 1e6, a
   NaN entry, keys reversed, uniform noise) before the run.  Property
   checked: a damaged multiplier vector is refused (its leaf is solved)
   or closes only what it proves — the verdict, the calls and the tree
   stay those of the run seeded with intact multipliers, and every leaf
   certificate of the artifact still checks. *)
let transfer_schedules () =
  let property = prop 1.6 in
  let updated = Ivan_nn.Perturb.random_relative ~rng:(Ivan_tensor.Rng.create 11) ~fraction:0.01 net in
  let certified ?initial_tree net =
    Bab.verify
      ~analyzer:(Analyzer.lp_triangle ~certify:true ())
      ~heuristic:Heuristic.zono_coeff ~budget ~policy:Analyzer.default_policy ~certify:true
      ?initial_tree ~net ~prop:property ()
  in
  let original = certified net in
  let reference = certified ~initial_tree:original.Bab.tree updated in
  incr schedules;
  if reference.Bab.stats.Bab.dual_closures = 0 then
    fail "multipliers intact" "no seed leaf was closed by its intact multipliers";
  Printf.printf "multipliers intact: %d of %d seed leaves closed, %d calls, tree %d\n"
    reference.Bab.stats.Bab.dual_closures (Tree.num_leaves original.Bab.tree)
    reference.Bab.stats.Bab.analyzer_calls (Tree.size reference.Bab.tree);
  let damages =
    [
      ("signs-flipped", fun _ (m : Tree.multipliers) -> { m with y = Array.map Float.neg m.y });
      ("scaled-1e6", fun _ (m : Tree.multipliers) -> { m with y = Array.map (fun v -> v *. 1e6) m.y });
      ( "nan-entry",
        fun rng (m : Tree.multipliers) ->
          let i = Ivan_tensor.Rng.int rng (max 1 (Array.length m.y)) in
          { m with y = Array.mapi (fun k v -> if k = i then nan else v) m.y } );
      ( "keys-reversed",
        fun _ (m : Tree.multipliers) -> { m with keys = Array.of_list (List.rev (Array.to_list m.keys)) } );
      ( "noise",
        fun rng (m : Tree.multipliers) ->
          { m with y = Array.map (fun _ -> Ivan_tensor.Rng.uniform rng (-1.0) 1.0) m.y } );
    ]
  in
  List.iter
    (fun (name, damage) ->
      for seed = 1 to 3 do
        incr schedules;
        let label = Printf.sprintf "multipliers %s seed=%d" name seed in
        let rng = Ivan_tensor.Rng.create seed in
        let seeded = Tree.copy original.Bab.tree in
        Tree.iter_nodes seeded (fun n ->
            Option.iter
              (fun m ->
                incr injected;
                Tree.set_multipliers n (Some (damage rng m)))
              (Tree.multipliers n));
        match certified ~initial_tree:seeded updated with
        | exception e -> fail label "uncaught exception %s" (Printexc.to_string e)
        | faulted -> (
            (match (reference.Bab.verdict, faulted.Bab.verdict) with
            | Bab.Proved, Bab.Proved | Bab.Disproved _, Bab.Disproved _ -> ()
            | (Bab.Proved | Bab.Disproved _), Bab.Exhausted -> incr weakened
            | _ -> fail label "verdict flipped by damaged multipliers");
            if faulted.Bab.stats.Bab.analyzer_calls <> reference.Bab.stats.Bab.analyzer_calls then
              fail label "%d calls where intact multipliers take %d" faulted.Bab.stats.Bab.analyzer_calls
                reference.Bab.stats.Bab.analyzer_calls;
            if Tree.size faulted.Bab.tree <> Tree.size reference.Bab.tree then
              fail label "tree of %d nodes where intact multipliers build %d" (Tree.size faulted.Bab.tree)
                (Tree.size reference.Bab.tree);
            match faulted.Bab.artifact with
            | None -> fail label "certified run produced no artifact"
            | Some artifact -> (
                match Cert.check_artifact artifact with
                | Ok _ -> ()
                | Error msg -> fail label "artifact rejected: %s" msg))
      done)
    damages

let () =
  List.iter
    (fun (stack, analyzer, heuristic) ->
      List.iter
        (fun offset ->
          let property = prop offset in
          let reference = Bab.verify ~analyzer ~heuristic ~budget ~net ~prop:property () in
          (* Mixed-kind schedules over many seeds. *)
          for seed = 1 to 15 do
            run_schedule
              (Printf.sprintf "%s k=%g mixed seed=%d" stack offset seed)
              analyzer heuristic property reference
              (Fault.plan ~lp_rate:0.15 ~analyzer_rate:0.15 ~seed ());
          done;
          (* Each fault kind in isolation, at a higher rate. *)
          List.iter
            (fun kind ->
              for seed = 1 to 3 do
                run_schedule
                  (Printf.sprintf "%s k=%g %s seed=%d" stack offset (Fault.kind_name kind) seed)
                  analyzer heuristic property reference
                  (Fault.plan ~lp_rate:0.25 ~analyzer_rate:0.25 ~kinds:[ kind ] ~seed ())
              done)
            Fault.all_kinds)
        [ 1.3; 1.7 ])
    stacks;
  certificate_schedules ();
  transfer_schedules ();
  Printf.printf "fault-matrix: %d schedules, %d faults injected, %d weakened to unknown, %d failures\n"
    !schedules !injected !weakened !failures;
  if !failures > 0 then exit 1
