module Vec = Ivan_tensor.Vec
module Mat = Ivan_tensor.Mat
module Network = Ivan_nn.Network
module Relu_id = Ivan_nn.Relu_id
module Box = Ivan_spec.Box
module Prop = Ivan_spec.Prop
module Splits = Ivan_domains.Splits
module Bounds = Ivan_domains.Bounds
module Itv = Ivan_domains.Itv
module Zonotope = Ivan_domains.Zonotope
module Analyzer = Ivan_analyzer.Analyzer
module Decision = Ivan_spectree.Decision

type context = {
  net : Network.t;
  prop : Prop.t;
  box : Box.t;
  splits : Splits.t;
  outcome : Analyzer.outcome;
}

type t = { name : string; scores : context -> (Decision.t * float) list }

let best scored =
  let pick acc (d, s) =
    (* A NaN score compares false against everything, which would make
       the winner depend on list order; treat it as "no score". *)
    if Float.is_nan s then acc
    else
      match acc with
      | None -> Some (d, s)
      | Some (d0, s0) -> if s > s0 || (s = s0 && Decision.compare d d0 < 0) then Some (d, s) else acc
  in
  match List.fold_left pick None scored with None -> None | Some (d, _) -> Some d

let candidates ctx =
  match ctx.outcome.Analyzer.bounds with
  | None -> []
  | Some bounds -> Bounds.ambiguous_relus bounds ctx.net ~splits:ctx.splits

let width_score bounds r =
  let itv = Bounds.pre_itv bounds r in
  Float.min (-.itv.Itv.lo) itv.Itv.hi

let width =
  {
    name = "width";
    scores =
      (fun ctx ->
        match ctx.outcome.Analyzer.bounds with
        | None -> []
        | Some bounds ->
            List.map (fun r -> (Decision.Relu_split r, width_score bounds r)) (candidates ctx));
  }

let zono_coeff =
  {
    name = "zono-coeff";
    scores =
      (fun ctx ->
        match (ctx.outcome.Analyzer.bounds, ctx.outcome.Analyzer.zono) with
        | None, _ -> []
        | Some bounds, None ->
            List.map (fun r -> (Decision.Relu_split r, width_score bounds r)) (candidates ctx)
        | Some _, Some zono ->
            let coeffs = Zonotope.objective_coeffs zono ~c:ctx.prop.Prop.c in
            List.map
              (fun r -> (Decision.Relu_split r, Zonotope.relu_score_from_coeffs zono coeffs r))
              (candidates ctx));
  }

(* Deterministic pseudo-random score from the seed and the ReLU id, so
   the "random" heuristic is still a pure function of (node, relu). *)
let random ~seed =
  {
    name = Printf.sprintf "random-%d" seed;
    scores =
      (fun ctx ->
        List.map
          (fun r ->
            let h = Hashtbl.hash (seed, r.Relu_id.layer, r.Relu_id.index, Splits.cardinal ctx.splits) in
            (Decision.Relu_split r, float_of_int (h land 0xFFFFFF)))
          (candidates ctx));
  }

(* Accumulated absolute influence of each input dimension on the
   objective: |c|^T |W_L| ... |W_1| computed by backward sweeps. *)
let influence net c =
  let count = Network.num_layers net in
  let acc = ref (Vec.map Float.abs c) in
  for li = count - 1 downto 0 do
    let w, _ = Network.layer_dense net li in
    acc := Mat.abs_matvec_t w !acc
  done;
  !acc

let input_smear =
  {
    name = "input-smear";
    scores =
      (fun ctx ->
        let infl = influence ctx.net ctx.prop.Prop.c in
        List.init (Box.dim ctx.box) (fun dim ->
            (Decision.Input_split dim, Box.width ctx.box dim *. infl.(dim))));
  }
