(* Shared test fixtures: small networks and properties with known
   behaviour. *)

module Vec = Ivan_tensor.Vec
module Mat = Ivan_tensor.Mat
module Rng = Ivan_tensor.Rng
module Layer = Ivan_nn.Layer
module Network = Ivan_nn.Network
module Builder = Ivan_nn.Builder
module Box = Ivan_spec.Box
module Prop = Ivan_spec.Prop

let dense ?(activation = Layer.Relu) weights bias =
  Layer.make (Layer.Dense { weights = Mat.of_arrays weights; bias }) activation

(* The paper's running example (Fig. 2): N with weights as printed.
   Layer 1: x1 = relu(2 i1 - i2), x2 = relu(i1 + i2)
   Layer 2: x3 = relu(x1 - 2 x2), x4 = relu(-x1 + x2)
   Output:  o1 = x3 - x4. *)
let paper_net () =
  Network.make
    [
      dense [| [| 2.0; -1.0 |]; [| 1.0; 1.0 |] |] [| 0.0; 0.0 |];
      dense [| [| 1.0; -2.0 |]; [| -1.0; 1.0 |] |] [| 0.0; 0.0 |];
      dense ~activation:Layer.Identity [| [| 1.0; -1.0 |] |] [| 0.0 |];
    ]

(* The paper's property: phi = [0,1]^2, psi = (o1 + 14 >= 0).  o1 is
   bounded well above -14 on this network, so the property holds. *)
let paper_prop () =
  let input = Box.make ~lo:(Vec.of_list [ 0.0; 0.0 ]) ~hi:(Vec.of_list [ 1.0; 1.0 ]) in
  Prop.make ~name:"paper" ~input ~c:(Vec.of_list [ 1.0 ]) ~offset:14.0

(* A tight version of the same property: the exact minimum of o1 over
   [0,1]^2 is -1.5 (attained at (0.5, 1)), so psi = o1 + k >= 0 is true
   iff k >= 1.5. *)
let paper_prop_with_offset k =
  let input = Box.make ~lo:(Vec.of_list [ 0.0; 0.0 ]) ~hi:(Vec.of_list [ 1.0; 1.0 ]) in
  Prop.make ~name:(Printf.sprintf "paper+%g" k) ~input ~c:(Vec.of_list [ 1.0 ]) ~offset:k

(* A random trained-ish network: random weights scaled down so outputs
   stay moderate. *)
let random_net ~seed ~dims =
  let rng = Rng.create seed in
  Builder.dense_net ~rng ~dims

(* Subjects of the golden kernel tests: seeded dense nets and one
   untrained conv net with conv-cifar-deep's shape (3x8x8 input, convs
   3 / 4 stride 2 / 6 / 6 stride 2, dense 24 / 10), each with a
   robustness property in an eps-ball around a seeded centre, target
   the predicted class against the runner-up. *)
let subject name net ~seed ~eps =
  let rng = Rng.create seed in
  let center = Array.init (Network.input_dim net) (fun _ -> Rng.uniform rng 0.0 1.0) in
  let y = Network.forward net center in
  let target = Vec.argmax y in
  let adversary = ref (if target = 0 then 1 else 0) in
  Array.iteri (fun j v -> if j <> target && v > y.(!adversary) then adversary := j) y;
  let prop =
    Prop.robustness ~name ~center ~eps ~target ~adversary:!adversary
      ~num_outputs:(Network.output_dim net) ~clip:(Some (0.0, 1.0))
  in
  (name, net, prop)

let golden_subjects () =
  let stage out_channels stride = { Builder.out_channels; kernel = 3; stride; padding = 1 } in
  let conv =
    Builder.conv_net ~rng:(Rng.create 1006) ~in_channels:3 ~in_height:8 ~in_width:8
      ~convs:[ stage 3 1; stage 4 2; stage 6 1; stage 6 2 ]
      ~dense:[ 24; 10 ]
  in
  [
    subject "dense-8x24x24x3" (random_net ~seed:11 ~dims:[ 8; 24; 24; 3 ]) ~seed:111 ~eps:0.1;
    subject "dense-16x32x32x32x5" (random_net ~seed:12 ~dims:[ 16; 32; 32; 32; 5 ]) ~seed:112 ~eps:0.05;
    subject "conv-cifar-deep-shape" conv ~seed:113 ~eps:0.01;
  ]

(* Subjects of the golden zonotope test: the kernel subjects above plus
   an ACAS-shaped ReLU net (5 -> 6 x 50 -> 5), a leaky-ReLU net and a
   net with one sigmoid and one tanh hidden layer. *)
let zonotope_subjects () =
  let smooth =
    let net =
      Builder.dense_net_act ~hidden_activation:Layer.Sigmoid ~rng:(Rng.create 16)
        ~dims:[ 6; 16; 16; 3 ]
    in
    Network.make
      (List.mapi
         (fun i l -> if i = 1 then Layer.make (Layer.affine l) Layer.Tanh else l)
         (Array.to_list (Network.layers net)))
  in
  golden_subjects ()
  @ [
      subject "acas-shape-5x6x50"
        (random_net ~seed:13 ~dims:[ 5; 50; 50; 50; 50; 50; 50; 5 ])
        ~seed:114 ~eps:0.05;
      subject "leaky-8x24x24x3"
        (Builder.dense_net_act ~hidden_activation:(Layer.Leaky_relu 0.1) ~rng:(Rng.create 15)
           ~dims:[ 8; 24; 24; 3 ])
        ~seed:115 ~eps:0.1;
      subject "sigmoid-tanh-6x16x16x3" smooth ~seed:116 ~eps:0.2;
    ]

(* Sample-based soundness check: every sampled point's objective margin
   must respect a claimed lower bound. *)
let check_margin_lb ?(samples = 200) ~seed net prop lb =
  let rng = Rng.create seed in
  let ok = ref true in
  for _ = 1 to samples do
    let x = Box.sample ~rng prop.Prop.input in
    if Prop.margin prop (Network.forward net x) < lb -. 1e-6 then ok := false
  done;
  !ok

(* Brute-force approximate minimum of the objective over the box. *)
let approx_min_margin ?(samples = 2000) ~seed net prop =
  let rng = Rng.create seed in
  let best = ref infinity in
  for _ = 1 to samples do
    let x = Box.sample ~rng prop.Prop.input in
    best := Float.min !best (Prop.margin prop (Network.forward net x))
  done;
  (* also probe the corners of low-dimensional boxes *)
  let d = Box.dim prop.Prop.input in
  if d <= 12 then begin
    let corners = 1 lsl d in
    for mask = 0 to corners - 1 do
      let x =
        Array.init d (fun j ->
            if (mask lsr j) land 1 = 1 then Box.hi_at prop.Prop.input j
            else Box.lo_at prop.Prop.input j)
      in
      best := Float.min !best (Prop.margin prop (Network.forward net x))
    done
  end;
  !best

(* [closed] is the run [solved] made, but seeded with multipliers that
   closed some of its leaves without a solve: the same verdict, calls,
   and tree text (ids, decisions and shape) once lbs are masked, and per
   node the same lb or, at a closed leaf, one in [0, the LP's]. *)
let check_closed_run label ~(solved : Ivan_bab.Bab.run) ~(closed : Ivan_bab.Bab.run) =
  let module Bab = Ivan_bab.Bab in
  let module Tree = Ivan_spectree.Tree in
  Alcotest.(check bool) (label ^ ": verdict") true (solved.Bab.verdict = closed.Bab.verdict);
  Alcotest.(check int) (label ^ ": calls") solved.Bab.stats.Bab.analyzer_calls
    closed.Bab.stats.Bab.analyzer_calls;
  let masked t =
    String.split_on_char '\n' (Tree.to_string t)
    |> List.map (fun line ->
           match String.split_on_char ' ' line with
           | kind :: id :: _lb :: rest -> String.concat " " (kind :: id :: "_" :: rest)
           | _ -> line)
    |> String.concat "\n"
  in
  Alcotest.(check string) (label ^ ": tree without lbs") (masked solved.Bab.tree)
    (masked closed.Bab.tree);
  let nodes t =
    let acc = ref [] in
    Tree.iter_nodes t (fun n -> acc := n :: !acc);
    List.rev !acc
  in
  let moved = ref 0 in
  List.iter2
    (fun a b ->
      let lp_lb = Tree.lb a and closed_lb = Tree.lb b in
      if Int64.bits_of_float lp_lb <> Int64.bits_of_float closed_lb then begin
        incr moved;
        Alcotest.(check bool)
          (Printf.sprintf "%s: node %d's closed lb %h within [0, the LP's %h]" label
             (Tree.node_id b) closed_lb lp_lb)
          true
          (Tree.is_leaf b && 0.0 <= closed_lb && closed_lb <= lp_lb)
      end)
    (nodes solved.Bab.tree) (nodes closed.Bab.tree);
  Alcotest.(check bool)
    (Printf.sprintf "%s: %d lbs moved, by %d closures" label !moved
       closed.Bab.stats.Bab.dual_closures)
    true
    (!moved <= closed.Bab.stats.Bab.dual_closures)
