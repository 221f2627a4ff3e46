module Box = Ivan_spec.Box
module Splits = Ivan_domains.Splits

type multipliers = { keys : int array; y : float array; farkas : bool }

type node = {
  id : int;
  mutable decision : Decision.t option;
  mutable kids : (node * node) option;
  mutable lb_value : float;
  mutable proof : multipliers option;
  parent_link : node option;
  edge_label : (Decision.t * Decision.side) option;
}

type t = { mutable next_id : int; root_node : node }

let fresh_node t ~parent ~edge =
  let id = t.next_id in
  t.next_id <- id + 1;
  { id; decision = None; kids = None; lb_value = nan; proof = None; parent_link = parent; edge_label = edge }

let create () =
  let root =
    {
      id = 0;
      decision = None;
      kids = None;
      lb_value = nan;
      proof = None;
      parent_link = None;
      edge_label = None;
    }
  in
  { next_id = 1; root_node = root }

let root t = t.root_node

let node_id n = n.id

let is_leaf n = n.kids = None

let decision n = n.decision

let children n = n.kids

let edge n = n.edge_label

let lb n = n.lb_value

let set_lb n v = n.lb_value <- v

let multipliers n = n.proof

let set_multipliers n m = n.proof <- m

let rec path_on p n =
  match n.parent_link with
  | None -> false
  | Some up -> (
      match up.decision with
      | Some d when Decision.equal d p -> true
      | Some _ | None -> path_on p up)

(* Re-splitting the same ReLU on a path is meaningless (its phase is
   already fixed); re-halving the same input dimension is legitimate
   refinement. *)
let repeat_forbidden = function Decision.Relu_split _ -> true | Decision.Input_split _ -> false

let split t n d =
  if not (is_leaf n) then invalid_arg "Tree.split: node is not a leaf";
  if repeat_forbidden d && path_on d n then
    invalid_arg "Tree.split: decision already taken on this path";
  let left = fresh_node t ~parent:(Some n) ~edge:(Some (d, Decision.Left)) in
  let right = fresh_node t ~parent:(Some n) ~edge:(Some (d, Decision.Right)) in
  n.decision <- Some d;
  n.kids <- Some (left, right);
  (left, right)

let rec fold_nodes f acc n =
  let acc = f acc n in
  match n.kids with None -> acc | Some (l, r) -> fold_nodes f (fold_nodes f acc l) r

let leaves t =
  List.rev (fold_nodes (fun acc n -> if is_leaf n then n :: acc else acc) [] t.root_node)

let size t = fold_nodes (fun acc _ -> acc + 1) 0 t.root_node

let num_leaves t = fold_nodes (fun acc n -> if is_leaf n then acc + 1 else acc) 0 t.root_node

let iter_nodes t f = fold_nodes (fun () n -> f n) () t.root_node

let path_decisions n =
  let rec up acc n = match (n.parent_link, n.edge_label) with
    | None, _ -> acc
    | Some p, Some e -> up (e :: acc) p
    | Some _, None -> assert false
  in
  up [] n

let subproblem ~root_box n =
  List.fold_left
    (fun (box, splits) (d, side) ->
      match d with
      | Decision.Relu_split r -> (box, Splits.add r (Decision.relu_phase side) splits)
      | Decision.Input_split dim ->
          let lo_half, hi_half = Box.split_dim box dim in
          ((match side with Decision.Left -> lo_half | Decision.Right -> hi_half), splits))
    (root_box, Splits.empty) (path_decisions n)

let copy t =
  let rec clone parent edge n =
    let fresh =
      {
        id = n.id;
        decision = n.decision;
        kids = None;
        lb_value = n.lb_value;
        proof = n.proof;
        parent_link = parent;
        edge_label = edge;
      }
    in
    (match n.kids with
    | None -> ()
    | Some (l, r) ->
        let cl = clone (Some fresh) l.edge_label l in
        let cr = clone (Some fresh) r.edge_label r in
        fresh.kids <- Some (cl, cr));
    fresh
  in
  { next_id = t.next_id; root_node = clone None None t.root_node }

let well_formed t =
  let ok = ref true in
  let rec check seen n =
    match (n.decision, n.kids) with
    | None, None -> ()
    | Some d, Some (l, r) ->
        if repeat_forbidden d && List.exists (Decision.equal d) seen then ok := false;
        (match (l.edge_label, r.edge_label) with
        | Some (dl, Decision.Left), Some (dr, Decision.Right)
          when Decision.equal dl d && Decision.equal dr d ->
            ()
        | _, _ -> ok := false);
        let seen = d :: seen in
        check seen l;
        check seen r
    | Some _, None | None, Some _ -> ok := false
  in
  check [] t.root_node;
  !ok

(* ---------------- serialization ---------------- *)

let to_string t =
  let buf = Buffer.create 1024 in
  let rec emit n =
    match n.decision with
    | None -> Printf.bprintf buf "leaf %d %h\n" n.id n.lb_value
    | Some d ->
        Printf.bprintf buf "node %d %h %s\n" n.id n.lb_value (Decision.to_string d);
        (match n.kids with
        | Some (l, r) ->
            emit l;
            emit r
        | None -> assert false)
  in
  emit t.root_node;
  Buffer.contents buf

let of_string s =
  let lines = String.split_on_char '\n' s |> List.filter (fun l -> String.trim l <> "") in
  let lines = ref lines in
  let next () =
    match !lines with
    | [] -> failwith "Tree.of_string: unexpected end of input"
    | l :: rest ->
        lines := rest;
        String.trim l
  in
  let max_id = ref 0 in
  let rec parse parent edge =
    let line = next () in
    match String.split_on_char ' ' line with
    | "leaf" :: id :: lbtok :: [] ->
        let id = int_of_string id in
        max_id := max !max_id id;
        {
          id;
          decision = None;
          kids = None;
          lb_value = float_of_string lbtok;
          proof = None;
          parent_link = parent;
          edge_label = edge;
        }
    | "node" :: id :: lbtok :: dtokens ->
        let id = int_of_string id in
        max_id := max !max_id id;
        let d = Decision.of_string (String.concat " " dtokens) in
        let n =
          {
            id;
            decision = Some d;
            kids = None;
            lb_value = float_of_string lbtok;
            proof = None;
            parent_link = parent;
            edge_label = edge;
          }
        in
        let l = parse (Some n) (Some (d, Decision.Left)) in
        let r = parse (Some n) (Some (d, Decision.Right)) in
        n.kids <- Some (l, r);
        n
    | _ -> failwith (Printf.sprintf "Tree.of_string: malformed line %S" line)
  in
  let root = parse None None in
  if !lines <> [] then failwith "Tree.of_string: trailing input";
  { next_id = !max_id + 1; root_node = root }

let pp fmt t =
  let rec go indent n =
    let lbs = if Float.is_nan n.lb_value then "?" else Printf.sprintf "%.4g" n.lb_value in
    (match n.edge_label with
    | None -> Format.fprintf fmt "%s#%d lb=%s" indent n.id lbs
    | Some e -> Format.fprintf fmt "%s%a -> #%d lb=%s" indent Decision.pp_edge e n.id lbs);
    Format.pp_print_newline fmt ();
    match n.kids with
    | None -> ()
    | Some (l, r) ->
        go (indent ^ "  ") l;
        go (indent ^ "  ") r
  in
  go "" t.root_node
