(* The benchmark's workloads and the instances a seed generates for them.

   Every workload runs one closed loop on one domain: for each instance,
   verify the original network N from scratch ([original]), verify the
   updated network N^a from scratch ([baseline]), then re-verify N^a with
   IVAN [Full] seeded from the original tree ([ivan]).  Budgets count
   analyzer calls only, so a slower machine never settles different
   instances. *)

module Vec = Ivan_tensor.Vec
module Rng = Ivan_tensor.Rng
module Network = Ivan_nn.Network
module Quant = Ivan_nn.Quant
module Perturb = Ivan_nn.Perturb
module Prop = Ivan_spec.Prop
module Analyzer = Ivan_analyzer.Analyzer
module Heuristic = Ivan_bab.Heuristic
module Bab = Ivan_bab.Bab
module Zoo = Ivan_data.Zoo
module Acas = Ivan_data.Acas

(* The abstract passes one analyzer call makes, so a traced run can
   replay them: the LP analyzer runs DeepPoly, then the zonotope pass,
   then (unless DeepPoly already decides) specializes the LP encoding;
   the zonotope analyzer runs only the zonotope pass. *)
type passes = Lp_passes | Zonotope_pass

type update =
  | Int16
  | Perturb_relative of { fraction : float; seed : int }
      (** one fixed perturbation: a per-seed draw moves every total by
          30% or more, so the update is part of the workload *)

type source =
  | Samples of int list
      (** robustness properties on these test samples, each of which
          must be classified correctly *)
  | Acas_properties of float list  (** every region at these margins *)

type t = {
  name : string;
  spec : Zoo.spec;
  source : source;
  update : update;
  analyzer : Analyzer.t;
  passes : passes;
  heuristic : Heuristic.t;
  max_calls : int;
  certify : bool;
  journal : bool;
  smoke_count : int;  (** instances in a smoke run *)
  slowdown_exponent : float;
      (** how a pass's time follows the {!Reference} kernel's on a busy
          core: time ~ kernel^exponent, fitted by least squares over 15
          passes on the calibration host *)
}

let relu_deep_int16 =
  {
    name = "relu-deep-int16";
    spec = Zoo.conv_cifar_deep;
    (* The first 20 test samples but the three (8, 13, 16) that need
       more than 12 calls: a call costs 0.2-0.6 s on this model. *)
    source = Samples (List.filter (fun i -> not (List.mem i [ 8; 13; 16 ])) (List.init 20 Fun.id));
    update = Int16;
    analyzer = Analyzer.lp_triangle ();
    passes = Lp_passes;
    heuristic = Heuristic.zono_coeff;
    max_calls = 40;
    certify = false;
    journal = false;
    smoke_count = 3;
    slowdown_exponent = 0.9;
  }

let acas_input_int16 =
  {
    name = "acas-input-int16";
    spec = Zoo.acas;
    source = Acas_properties [ 0.2; 0.3 ];
    update = Int16;
    analyzer = Analyzer.zonotope ();
    passes = Zonotope_pass;
    heuristic = Heuristic.input_smear;
    max_calls = 3000;
    certify = false;
    journal = false;
    smoke_count = 3;
    slowdown_exponent = 0.4;
  }

let fcn_perturb_certified =
  {
    name = "fcn-perturb-certified";
    spec = Zoo.fcn_mnist;
    source = Samples (List.init 30 Fun.id);
    update = Perturb_relative { fraction = 0.10; seed = 1 };
    analyzer = Analyzer.lp_triangle ~certify:true ();
    passes = Lp_passes;
    heuristic = Heuristic.zono_coeff;
    max_calls = 400;
    certify = true;
    journal = true;
    smoke_count = 3;
    slowdown_exponent = 0.65;
  }

let all = [ relu_deep_int16; acas_input_int16; fcn_perturb_certified ]

let find name = List.find_opt (fun w -> w.name = name) all

let budget w = { Bab.max_analyzer_calls = w.max_calls; max_seconds = infinity }

type instance = { id : int; prop : Prop.t }

type setup = { net : Network.t; updated : Network.t; instances : instance list }

(* Independent RNG streams derived from one seed, so the order shuffle
   and the ACAS property sampling never shift each other. *)
let stream seed salt = Rng.create ((seed * 0x9E3779B1) lxor salt)

let runner_up y label =
  let best = ref (if label = 0 then 1 else 0) in
  Array.iteri (fun j v -> if j <> label && v > y.(!best) then best := j) y;
  !best

let shuffled ~seed items =
  let a = Array.of_list items in
  Rng.shuffle (stream seed 0x51) a;
  Array.to_list a

(* One robustness property per listed test sample (the paper's
   protocol: true class against the runner-up in the model's Table-1
   eps-ball), in an order the seed shuffles. *)
let robustness_instances spec net ~seed samples =
  let inputs, labels = Zoo.test_set spec in
  List.map
    (fun i ->
      let y = Network.forward net inputs.(i) in
      if Vec.argmax y <> labels.(i) then
        failwith (Printf.sprintf "%s: test sample %d is misclassified" spec.Zoo.name i);
      Prop.robustness
        ~name:(Printf.sprintf "%s-rob-%d" spec.Zoo.name i)
        ~center:inputs.(i) ~eps:spec.Zoo.eps ~target:labels.(i)
        ~adversary:(runner_up y labels.(i))
        ~num_outputs:(Network.output_dim net) ~clip:(Some (0.0, 1.0)))
    samples
  |> shuffled ~seed

(* Every (region, margin) ACAS property; the seed drives the sampling
   that calibrates each bound and shuffles their order. *)
let acas_instances net ~margins ~seed =
  let rng = stream seed 0xAC in
  List.concat_map
    (fun margin ->
      List.map
        (fun p -> { p with Prop.name = Printf.sprintf "%s-m%.2f" p.Prop.name margin })
        (Acas.properties ~net ~margin ~rng))
    margins
  |> shuffled ~seed

let load w =
  let net = Zoo.load_or_train w.spec in
  Network.precompute_dense net;
  net

(* Load N from the (pre-warmed) zoo cache, generate the seed's
   instances and build N^a.  This is everything [setup_s] times. *)
let setup w ~seed ~smoke =
  let net = load w in
  let props =
    match w.source with
    | Samples samples -> robustness_instances w.spec net ~seed samples
    | Acas_properties margins -> acas_instances net ~margins ~seed
  in
  let props = if smoke then List.filteri (fun i _ -> i < w.smoke_count) props else props in
  let updated =
    match w.update with
    | Int16 -> Quant.network Quant.Int16 net
    | Perturb_relative { fraction; seed } ->
        Perturb.random_relative ~rng:(Rng.create seed) ~fraction net
  in
  Network.precompute_dense updated;
  { net; updated; instances = List.mapi (fun id prop -> { id; prop }) props }
