module Rng = Ivan_tensor.Rng
module Network = Ivan_nn.Network
module Builder = Ivan_nn.Builder
module Serialize = Ivan_nn.Serialize
module Sgd = Ivan_train.Sgd

type kind = Acas | Image_classifier

type spec = { name : string; kind : kind; eps : float; seed : int; description : string }

let acas =
  {
    name = "acas";
    kind = Acas;
    eps = 0.0;
    seed = 1001;
    description = "6 x 50 linear layers, 300 neurons, advisory regression";
  }

let fcn_mnist =
  {
    name = "fcn-mnist";
    kind = Image_classifier;
    eps = 0.10;
    seed = 1002;
    description = "2 x 32 linear layers on 1x8x8 synthetic digits";
  }

let conv_mnist =
  {
    name = "conv-mnist";
    kind = Image_classifier;
    eps = 0.06;
    seed = 1003;
    description = "2 conv + 2 linear layers on 1x8x8 synthetic digits";
  }

let conv_cifar =
  {
    name = "conv-cifar";
    kind = Image_classifier;
    eps = 0.05;
    seed = 1004;
    description = "2 conv + 2 linear layers on 3x8x8 synthetic cifar";
  }

let conv_cifar_wide =
  {
    name = "conv-cifar-wide";
    kind = Image_classifier;
    eps = 0.055;
    seed = 1005;
    description = "2 wide conv + 2 linear layers on 3x8x8 synthetic cifar";
  }

let conv_cifar_deep =
  {
    name = "conv-cifar-deep";
    kind = Image_classifier;
    eps = 0.035;
    seed = 1006;
    description = "4 conv + 2 linear layers on 3x8x8 synthetic cifar";
  }

let table1 = [ acas; fcn_mnist; conv_mnist; conv_cifar; conv_cifar_wide; conv_cifar_deep ]

let classifiers = [ fcn_mnist; conv_mnist; conv_cifar; conv_cifar_wide; conv_cifar_deep ]

let stage out_channels = { Builder.out_channels; kernel = 3; stride = 2; padding = 1 }

let architecture spec rng =
  match spec.name with
  | "acas" -> Ivan_nn.Builder.dense_net ~rng ~dims:[ 5; 50; 50; 50; 50; 50; 50; 5 ]
  | "fcn-mnist" -> Builder.dense_net ~rng ~dims:[ 64; 32; 32; 10 ]
  | "conv-mnist" ->
      Builder.conv_net ~rng ~in_channels:1 ~in_height:8 ~in_width:8
        ~convs:[ stage 4; stage 8 ] ~dense:[ 32; 10 ]
  | "conv-cifar" ->
      Builder.conv_net ~rng ~in_channels:3 ~in_height:8 ~in_width:8
        ~convs:[ stage 4; stage 8 ] ~dense:[ 32; 10 ]
  | "conv-cifar-wide" ->
      Builder.conv_net ~rng ~in_channels:3 ~in_height:8 ~in_width:8
        ~convs:[ stage 8; stage 16 ] ~dense:[ 48; 10 ]
  | "conv-cifar-deep" ->
      Builder.conv_net ~rng ~in_channels:3 ~in_height:8 ~in_width:8
        ~convs:
          [
            { Builder.out_channels = 3; kernel = 3; stride = 1; padding = 1 };
            stage 4;
            { Builder.out_channels = 6; kernel = 3; stride = 1; padding = 1 };
            stage 6;
          ]
        ~dense:[ 24; 10 ]
  | other -> invalid_arg (Printf.sprintf "Zoo.architecture: unknown model %s" other)

let image_data spec ~count rng =
  match spec.name with
  | "fcn-mnist" | "conv-mnist" ->
      let d = Synth.mnist_like ~rng ~count in
      (d.Synth.inputs, d.Synth.labels)
  | "conv-cifar" | "conv-cifar-wide" | "conv-cifar-deep" ->
      let d = Synth.cifar_like ~rng ~count in
      (d.Synth.inputs, d.Synth.labels)
  | other -> invalid_arg (Printf.sprintf "Zoo.image_data: not a classifier: %s" other)

(* Dedicated RNG streams: data generation must be reproducible
   independently of how many RNG draws architecture init or SGD
   shuffling consume. *)
let data_rng spec = Rng.create spec.seed

let arch_rng spec = Rng.create (spec.seed lxor 0x5EED_CAFE)

let sgd_rng spec = Rng.create (spec.seed lxor 0x7EA_0001)

let train_count = 600

let test_count = 200

let training_set spec =
  match spec.kind with
  | Acas -> Acas.dataset ~rng:(data_rng spec) ~count:2000
  | Image_classifier -> image_data spec ~count:train_count (data_rng spec)

let test_set spec =
  match spec.kind with
  | Acas -> Acas.dataset ~rng:(Rng.create (spec.seed + 500_000)) ~count:500
  | Image_classifier ->
      (* Same prototypes and sample stream as training (same seed); the
         tail beyond [train_count] is disjoint fresh data. *)
      let inputs, labels = image_data spec ~count:(train_count + test_count) (data_rng spec) in
      (Array.sub inputs train_count test_count, Array.sub labels train_count test_count)

let untrained spec = architecture spec (arch_rng spec)

let train spec =
  let net = architecture spec (arch_rng spec) in
  let inputs, labels = training_set spec in
  let config =
    match spec.kind with
    | Acas -> { Sgd.default_config with epochs = 40; learning_rate = 0.03 }
    | Image_classifier ->
        (* The deep conv stack diverges at the default rate. *)
        let learning_rate = if spec.name = "conv-cifar-deep" then 0.02 else 0.04 in
        { Sgd.default_config with epochs = 30; learning_rate }
  in
  Sgd.train_classifier ~rng:(sgd_rng spec) ~config net ~inputs ~labels

let cache_dir_default () =
  match Sys.getenv_opt "IVAN_ZOO_CACHE" with Some d -> d | None -> "_zoo_cache"

let load_or_train ?cache_dir spec =
  let dir = match cache_dir with Some d -> d | None -> cache_dir_default () in
  let path = Filename.concat dir (spec.name ^ ".net") in
  if Sys.file_exists path then Serialize.of_file path
  else begin
    let net = train spec in
    (try
       if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
       Serialize.to_file path net
     with Sys_error _ -> () (* caching is best-effort *));
    net
  end

let accuracy spec net =
  let inputs, labels = test_set spec in
  Sgd.accuracy net ~inputs ~labels
