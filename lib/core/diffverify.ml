module Vec = Ivan_tensor.Vec
module Network = Ivan_nn.Network
module Product = Ivan_nn.Product
module Box = Ivan_spec.Box
module Prop = Ivan_spec.Prop
module Bab = Ivan_bab.Bab

type verdict = Equivalent | Deviation of Vec.t | Unknown

type proof = { verdict : verdict; runs : Bab.run list; total_calls : int }

let properties ~outputs ~box ~delta =
  if delta < 0.0 then invalid_arg "Diffverify.properties: negative delta";
  if outputs <= 0 then invalid_arg "Diffverify.properties: need at least one output";
  List.concat_map
    (fun i ->
      let c_upper = Vec.zeros (2 * outputs) in
      (* delta - (y_i - y'_i) >= 0 *)
      c_upper.(i) <- -1.0;
      c_upper.(outputs + i) <- 1.0;
      let c_lower = Vec.map (fun v -> -.v) c_upper in
      [
        Prop.make ~name:(Printf.sprintf "diff-upper-%d" i) ~input:box ~c:c_upper ~offset:delta;
        Prop.make ~name:(Printf.sprintf "diff-lower-%d" i) ~input:box ~c:c_lower ~offset:delta;
      ])
    (List.init outputs (fun i -> i))

(* Combine per-property verdicts; a single counterexample input in the
   product is an input where the pair deviates. *)
let conclude runs =
  let verdict =
    List.fold_left
      (fun acc (run : Bab.run) ->
        match (acc, run.Bab.verdict) with
        | Deviation x, _ -> Deviation x
        | _, Bab.Disproved x -> Deviation x
        | Unknown, _ -> Unknown
        | _, Bab.Exhausted -> Unknown
        | Equivalent, Bab.Proved -> Equivalent)
      Equivalent runs
  in
  {
    verdict;
    runs;
    total_calls = List.fold_left (fun acc r -> acc + r.Bab.stats.Bab.analyzer_calls) 0 runs;
  }

let verify ~analyzer ~heuristic ?(budget = Bab.default_budget) a b ~box ~delta =
  let combined = Product.product a b in
  let props = properties ~outputs:(Network.output_dim a) ~box ~delta in
  conclude (List.map (fun prop -> Bab.verify ~analyzer ~heuristic ~budget ~net:combined ~prop ()) props)

let verify_incremental ~analyzer ~heuristic ?(config = Ivan.default_config) ~previous a b ~box
    ~delta =
  let combined = Product.product a b in
  let props = properties ~outputs:(Network.output_dim a) ~box ~delta in
  if List.length props <> List.length previous.runs then
    invalid_arg "Diffverify.verify_incremental: previous proof has a different shape";
  conclude
    (List.map2
       (fun prop original_run ->
         Ivan.verify_updated ~analyzer ~heuristic ~config ~original_run ~updated:combined ~prop)
       props previous.runs)
