module Tree = Ivan_spectree.Tree

let prune ?(trace = Ivan_bab.Trace.null) ~theta tree =
  (* Normalize improvements by the tree's largest magnitude so theta is
     scale-free. *)
  let max_imp = ref 0.0 in
  Tree.iter_nodes tree (fun n ->
      match Effectiveness.improvement n with
      | Some i -> max_imp := Float.max !max_imp (Float.abs i)
      | None -> ());
  let norm = if !max_imp > 0.0 then !max_imp else 1.0 in
  let bad n =
    match Effectiveness.improvement n with None -> false | Some i -> i /. norm < theta
  in
  (* A node of the pruned tree takes its source's bound and the
     multipliers that verified it, for the next run to try. *)
  let keep nhat n =
    Tree.set_lb nhat (Tree.lb n);
    Tree.set_multipliers nhat (Tree.multipliers n)
  in
  let pruned = Tree.create () in
  keep (Tree.root pruned) (Tree.root tree);
  let q = Queue.create () in
  Queue.add (Tree.root tree, Tree.root pruned) q;
  while not (Queue.is_empty q) do
    let n, nhat = Queue.pop q in
    match (Tree.children n, Tree.decision n) with
    | None, _ | _, None -> ()
    | Some (l, r), Some d ->
        if not (bad n) then begin
          let hl, hr = Tree.split pruned nhat d in
          keep hl l;
          keep hr r;
          Queue.add (l, hl) q;
          Queue.add (r, hr) q
        end
        else begin
          Ivan_bab.Trace.emit trace (Ivan_bab.Trace.Pruned { node = Tree.node_id n });
          (* Equation 8: continue from the child whose LB is closest to
             the parent's (smaller increase); drop the other subtree. *)
          let delta_l = Tree.lb l -. Tree.lb n and delta_r = Tree.lb r -. Tree.lb n in
          let nk = if Float.is_nan delta_r || delta_l <= delta_r then l else r in
          match (Tree.children nk, Tree.decision nk) with
          | None, _ | _, None ->
              (* The kept child is a leaf: nhat stays a leaf, keeping its
                 bound and taking the child's multipliers. *)
              Tree.set_multipliers nhat (Tree.multipliers nk)
          | Some (kl, kr), Some dk ->
              let hl, hr = Tree.split pruned nhat dk in
              keep hl kl;
              keep hr kr;
              Queue.add (kl, hl) q;
              Queue.add (kr, hr) q
        end
  done;
  pruned
