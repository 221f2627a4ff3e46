module Vec = Ivan_tensor.Vec

type t = { name : string; input : Box.t; c : Vec.t; offset : float }

let make ~name ~input ~c ~offset = { name; input; c = Vec.copy c; offset }

let margin p y = Vec.dot p.c y +. p.offset

let holds_at p y = margin p y >= 0.0

let unit_diff ~plus ~minus ~num_outputs =
  let c = Vec.zeros num_outputs in
  c.(plus) <- c.(plus) +. 1.0;
  c.(minus) <- c.(minus) -. 1.0;
  c

let robustness ~name ~center ~eps ~target ~adversary ~num_outputs ~clip =
  if target = adversary then invalid_arg "Prop.robustness: target equals adversary";
  let ball = Box.of_center ~center ~radius:eps in
  let input = match clip with None -> ball | Some (lo, hi) -> Box.clip ~lo ~hi ball in
  { name; input; c = unit_diff ~plus:target ~minus:adversary ~num_outputs; offset = 0.0 }

let unit_vec ~index ~sign ~num_outputs =
  let c = Vec.zeros num_outputs in
  c.(index) <- sign;
  c

let output_upper ~name ~input ~index ~bound ~num_outputs =
  { name; input; c = unit_vec ~index ~sign:(-1.0) ~num_outputs; offset = bound }

let pp fmt p =
  Format.fprintf fmt "@[<h>%s: forall x in %a. c.y + %g >= 0 with c=%a@]" p.name Box.pp p.input
    p.offset Vec.pp p.c
