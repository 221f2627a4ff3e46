module Vec = Ivan_tensor.Vec
module Mat = Ivan_tensor.Mat
module Rng = Ivan_tensor.Rng
module Layer = Ivan_nn.Layer
module Network = Ivan_nn.Network

type config = {
  epochs : int;
  batch_size : int;
  learning_rate : float;
  momentum : float;
  weight_decay : float;
}

let default_config =
  { epochs = 20; batch_size = 32; learning_rate = 0.05; momentum = 0.9; weight_decay = 0.0 }

(* Mutable mirror of a layer holding parameters, gradient accumulators
   and momentum buffers. *)
type work_layer = {
  spec : Layer.conv_spec option;  (* None for dense *)
  act : Layer.activation;
  w : float array;  (* dense: row-major rows*cols; conv: flat kernel *)
  b : float array;
  gw : float array;
  gb : float array;
  vw : float array;
  vb : float array;
  in_dim : int;
  out_dim : int;
}

let work_of_layer layer =
  match Layer.affine layer with
  | Layer.Dense { weights; bias } ->
      let rows = Mat.rows weights and cols = Mat.cols weights in
      let w = Array.make (rows * cols) 0.0 in
      for i = 0 to rows - 1 do
        for j = 0 to cols - 1 do
          w.((i * cols) + j) <- Mat.get weights i j
        done
      done;
      {
        spec = None;
        act = Layer.activation layer;
        w;
        b = Array.copy bias;
        gw = Array.make (rows * cols) 0.0;
        gb = Array.make rows 0.0;
        vw = Array.make (rows * cols) 0.0;
        vb = Array.make rows 0.0;
        in_dim = cols;
        out_dim = rows;
      }
  | Layer.Conv2d { spec; kernel; bias } ->
      {
        spec = Some spec;
        act = Layer.activation layer;
        w = Array.copy kernel;
        b = Array.copy bias;
        gw = Array.make (Array.length kernel) 0.0;
        gb = Array.make (Array.length bias) 0.0;
        vw = Array.make (Array.length kernel) 0.0;
        vb = Array.make (Array.length bias) 0.0;
        in_dim = Layer.input_dim layer;
        out_dim = Layer.output_dim layer;
      }

let layer_of_work wl =
  let affine =
    match wl.spec with
    | None ->
        let weights = Mat.init wl.out_dim wl.in_dim (fun i j -> wl.w.((i * wl.in_dim) + j)) in
        Layer.Dense { weights; bias = Array.copy wl.b }
    | Some spec -> Layer.Conv2d { spec; kernel = Array.copy wl.w; bias = Array.copy wl.b }
  in
  Layer.make affine wl.act

let kernel_index (spec : Layer.conv_spec) oc ic kh kw =
  (((((oc * spec.in_channels) + ic) * spec.kernel_h) + kh) * spec.kernel_w) + kw

let pixel_index ~height ~width c y x = (((c * height) + y) * width) + x

let forward_work wl x =
  match wl.spec with
  | None ->
      let out = Array.make wl.out_dim 0.0 in
      for i = 0 to wl.out_dim - 1 do
        let base = i * wl.in_dim in
        let acc = ref wl.b.(i) in
        for j = 0 to wl.in_dim - 1 do
          acc := !acc +. (wl.w.(base + j) *. x.(j))
        done;
        out.(i) <- !acc
      done;
      out
  | Some spec ->
      let oh = Layer.conv_out_height spec and ow = Layer.conv_out_width spec in
      let out = Array.make wl.out_dim 0.0 in
      for oc = 0 to spec.out_channels - 1 do
        for oy = 0 to oh - 1 do
          for ox = 0 to ow - 1 do
            let acc = ref wl.b.(oc) in
            for ic = 0 to spec.in_channels - 1 do
              for kh = 0 to spec.kernel_h - 1 do
                for kw = 0 to spec.kernel_w - 1 do
                  let iy = (oy * spec.stride) + kh - spec.padding in
                  let ix = (ox * spec.stride) + kw - spec.padding in
                  if iy >= 0 && iy < spec.in_height && ix >= 0 && ix < spec.in_width then
                    acc :=
                      !acc
                      +. wl.w.(kernel_index spec oc ic kh kw)
                         *. x.(pixel_index ~height:spec.in_height ~width:spec.in_width ic iy ix)
                done
              done
            done;
            out.(pixel_index ~height:oh ~width:ow oc oy ox) <- !acc
          done
        done
      done;
      out

(* Accumulate gradients for one sample.  [x] is the layer input,
   [delta] is dL/d(pre-activation); returns dL/d(input). *)
let backward_work wl x delta =
  match wl.spec with
  | None ->
      let dx = Array.make wl.in_dim 0.0 in
      for i = 0 to wl.out_dim - 1 do
        let d = delta.(i) in
        if d <> 0.0 then begin
          let base = i * wl.in_dim in
          wl.gb.(i) <- wl.gb.(i) +. d;
          for j = 0 to wl.in_dim - 1 do
            wl.gw.(base + j) <- wl.gw.(base + j) +. (d *. x.(j));
            dx.(j) <- dx.(j) +. (wl.w.(base + j) *. d)
          done
        end
      done;
      dx
  | Some spec ->
      let oh = Layer.conv_out_height spec and ow = Layer.conv_out_width spec in
      let dx = Array.make wl.in_dim 0.0 in
      for oc = 0 to spec.out_channels - 1 do
        for oy = 0 to oh - 1 do
          for ox = 0 to ow - 1 do
            let d = delta.(pixel_index ~height:oh ~width:ow oc oy ox) in
            if d <> 0.0 then begin
              wl.gb.(oc) <- wl.gb.(oc) +. d;
              for ic = 0 to spec.in_channels - 1 do
                for kh = 0 to spec.kernel_h - 1 do
                  for kw = 0 to spec.kernel_w - 1 do
                    let iy = (oy * spec.stride) + kh - spec.padding in
                    let ix = (ox * spec.stride) + kw - spec.padding in
                    if iy >= 0 && iy < spec.in_height && ix >= 0 && ix < spec.in_width then begin
                      let src = pixel_index ~height:spec.in_height ~width:spec.in_width ic iy ix in
                      let ki = kernel_index spec oc ic kh kw in
                      wl.gw.(ki) <- wl.gw.(ki) +. (d *. x.(src));
                      dx.(src) <- dx.(src) +. (wl.w.(ki) *. d)
                    end
                  done
                done
              done
            end
          done
        done
      done;
      dx

let zero_grads layers =
  Array.iter
    (fun wl ->
      Array.fill wl.gw 0 (Array.length wl.gw) 0.0;
      Array.fill wl.gb 0 (Array.length wl.gb) 0.0)
    layers

let apply_update cfg layers batch_count =
  let scale = 1.0 /. float_of_int batch_count in
  Array.iter
    (fun wl ->
      let step arr grad vel =
        for k = 0 to Array.length arr - 1 do
          let g = (grad.(k) *. scale) +. (cfg.weight_decay *. arr.(k)) in
          vel.(k) <- (cfg.momentum *. vel.(k)) +. g;
          arr.(k) <- arr.(k) -. (cfg.learning_rate *. vel.(k))
        done
      in
      step wl.w wl.gw wl.vw;
      step wl.b wl.gb wl.vb)
    layers

let softmax logits =
  let m = Vec.max_elt logits in
  let exps = Array.map (fun v -> exp (v -. m)) logits in
  let z = Array.fold_left ( +. ) 0.0 exps in
  Array.map (fun e -> e /. z) exps

(* The training loop; [output_delta logits sample_index] gives
   dL/d(network output) for one sample. *)
let train_loop ~rng ~cfg net ~inputs ~output_delta =
  if Array.length inputs = 0 then invalid_arg "Sgd: empty training set";
  let layers = Array.map work_of_layer (Network.layers net) in
  let count = Array.length inputs in
  let order = Array.init count (fun i -> i) in
  for _epoch = 1 to cfg.epochs do
    Rng.shuffle rng order;
    let pos = ref 0 in
    while !pos < count do
      let batch_end = min count (!pos + cfg.batch_size) in
      let batch_count = batch_end - !pos in
      zero_grads layers;
      for b = !pos to batch_end - 1 do
        let sample = order.(b) in
        let x = inputs.(sample) in
        (* Forward, keeping per-layer inputs and pre-activations. *)
        let layer_inputs = Array.make (Array.length layers) [||] in
        let pres = Array.make (Array.length layers) [||] in
        let current = ref x in
        Array.iteri
          (fun i wl ->
            layer_inputs.(i) <- !current;
            let pre = forward_work wl !current in
            pres.(i) <- pre;
            current := Layer.apply_activation wl.act pre)
          layers;
        (* Backward. *)
        let delta = ref (output_delta !current sample) in
        for i = Array.length layers - 1 downto 0 do
          let wl = layers.(i) in
          let d_pre =
            match Layer.classify wl.act with
            | Layer.Linear_activation -> !delta
            | Layer.Piecewise slope ->
                Array.mapi (fun k d -> if pres.(i).(k) > 0.0 then d else slope *. d) !delta
            | Layer.Smooth { df; f = _ } ->
                Array.mapi (fun k d -> d *. df pres.(i).(k)) !delta
          in
          delta := backward_work wl layer_inputs.(i) d_pre
        done
      done;
      apply_update cfg layers batch_count;
      pos := batch_end
    done
  done;
  Network.make (Array.to_list (Array.map layer_of_work layers))

let train_classifier ~rng ~config net ~inputs ~labels =
  if Array.length inputs <> Array.length labels then
    invalid_arg "Sgd.train_classifier: inputs and labels differ in length";
  let output_delta logits sample =
    let p = softmax logits in
    let d = Array.copy p in
    d.(labels.(sample)) <- d.(labels.(sample)) -. 1.0;
    d
  in
  train_loop ~rng ~cfg:config net ~inputs ~output_delta

let accuracy net ~inputs ~labels =
  if Array.length inputs = 0 then invalid_arg "Sgd.accuracy: empty dataset";
  let correct = ref 0 in
  Array.iteri
    (fun i x -> if Vec.argmax (Network.forward net x) = labels.(i) then incr correct)
    inputs;
  float_of_int !correct /. float_of_int (Array.length inputs)

let cross_entropy net ~inputs ~labels =
  if Array.length inputs = 0 then invalid_arg "Sgd.cross_entropy: empty dataset";
  let acc = ref 0.0 in
  Array.iteri
    (fun i x ->
      let p = softmax (Network.forward net x) in
      acc := !acc -. log (Float.max 1e-12 p.(labels.(i))))
    inputs;
  !acc /. float_of_int (Array.length inputs)
