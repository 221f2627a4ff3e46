module Mat = Ivan_tensor.Mat
module Vec = Ivan_tensor.Vec

(* First layer: both blocks read the shared input; deeper layers are
   block-diagonal. *)
let combine_layers ~first la lb =
  let wa, ba = Layer.dense_affine la in
  let wb, bb = Layer.dense_affine lb in
  let rows_a = Mat.rows wa and rows_b = Mat.rows wb in
  let cols_a = Mat.cols wa and cols_b = Mat.cols wb in
  let weights =
    if first then
      Mat.init (rows_a + rows_b) cols_a (fun i j ->
          if i < rows_a then Mat.get wa i j else Mat.get wb (i - rows_a) j)
    else
      Mat.init (rows_a + rows_b) (cols_a + cols_b) (fun i j ->
          if i < rows_a then if j < cols_a then Mat.get wa i j else 0.0
          else if j >= cols_a then Mat.get wb (i - rows_a) (j - cols_a)
          else 0.0)
  in
  let bias = Array.append ba bb in
  Layer.make (Layer.Dense { weights; bias }) (Layer.activation la)

let product a b =
  if Network.input_dim a <> Network.input_dim b then
    invalid_arg "Product.product: input dimensions differ";
  if Network.num_layers a <> Network.num_layers b then
    invalid_arg "Product.product: layer counts differ";
  let la = Network.layers a and lb = Network.layers b in
  Array.iteri
    (fun i l ->
      if Layer.activation l <> Layer.activation lb.(i) then
        invalid_arg "Product.product: activations differ")
    la;
  Network.make
    (List.init (Array.length la) (fun i -> combine_layers ~first:(i = 0) la.(i) lb.(i)))
