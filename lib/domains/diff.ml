module Vec = Ivan_tensor.Vec
module Network = Ivan_nn.Network
module Box = Ivan_spec.Box

type bound = { lo : Vec.t; hi : Vec.t }

(* The first [Box.dim box] noise symbols of a zonotope analysis are the
   input symbols, identical across analyses of the same box; all later
   symbols are network-specific ReLU error terms and independent. *)
let difference_of_analyses box (a : Zonotope.analysis) (b : Zonotope.analysis) =
  let d = Box.dim box in
  let outputs = Vec.dim a.Zonotope.output_center in
  let lo = Array.make outputs 0.0 and hi = Array.make outputs 0.0 in
  for i = 0 to outputs - 1 do
    let center = a.Zonotope.output_center.(i) -. b.Zonotope.output_center.(i) in
    let ga = a.Zonotope.output_gen.(i) and gb = b.Zonotope.output_gen.(i) in
    let radius = ref 0.0 in
    (* Shared input symbols cancel coefficient-wise... *)
    for t = 0 to d - 1 do
      radius := !radius +. Float.abs (ga.(t) -. gb.(t))
    done;
    (* ...while each network's own ReLU symbols contribute fully. *)
    for t = d to a.Zonotope.nterms - 1 do
      radius := !radius +. Float.abs ga.(t)
    done;
    for t = d to b.Zonotope.nterms - 1 do
      radius := !radius +. Float.abs gb.(t)
    done;
    lo.(i) <- center -. !radius;
    hi.(i) <- center +. !radius
  done;
  { lo; hi }

let output_difference n n' ~box =
  if Network.input_dim n <> Network.input_dim n' || Network.output_dim n <> Network.output_dim n'
  then invalid_arg "Diff.output_difference: network shapes differ";
  if Box.dim box <> Network.input_dim n then
    invalid_arg "Diff.output_difference: box dimension mismatch";
  match
    ( Zonotope.analyze n ~box ~splits:Splits.empty,
      Zonotope.analyze n' ~box ~splits:Splits.empty )
  with
  | Zonotope.Feasible a, Zonotope.Feasible b -> Some (difference_of_analyses box a b)
  | Zonotope.Infeasible, _ | _, Zonotope.Infeasible -> None
