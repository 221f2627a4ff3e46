module Tree = Ivan_spectree.Tree
module Decision = Ivan_spectree.Decision

let lb_clamp = 1e6

let clamp v =
  if Float.is_nan v then nan
  else if v > lb_clamp then lb_clamp
  else if v < -.lb_clamp then -.lb_clamp
  else v

let improvement node =
  match Tree.children node with
  | None -> None
  | Some (l, r) ->
      let lb_n = clamp (Tree.lb node) in
      let lb_l = clamp (Tree.lb l) in
      let lb_r = clamp (Tree.lb r) in
      if Float.is_nan lb_n || Float.is_nan lb_l || Float.is_nan lb_r then None
      else Some (Float.min (lb_l -. lb_n) (lb_r -. lb_n))

module Dmap = Map.Make (struct
  type t = Decision.t

  let compare = Decision.compare
end)

type table = float Dmap.t

let observe tree =
  let sums = ref Dmap.empty in
  Tree.iter_nodes tree (fun n ->
      match (Tree.decision n, improvement n) with
      | Some d, Some imp ->
          let total, count = match Dmap.find_opt d !sums with None -> (0.0, 0) | Some tc -> tc in
          sums := Dmap.add d (total +. imp, count + 1) !sums
      | Some _, None | None, _ -> ());
  Dmap.map (fun (total, count) -> total /. float_of_int count) !sums

let score table d = Dmap.find_opt d table

let max_abs_score table = Dmap.fold (fun _ v acc -> Float.max acc (Float.abs v)) table 0.0
