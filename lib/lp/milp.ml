type stats = {
  nodes : int;
  lp_solves : int;
  warm_hits : int;
  warm_misses : int;
}

type result =
  | Optimal of { objective : float; primal : float array; stats : stats }
  | Infeasible of stats
  | Node_limit of stats
  | Solver_failure of stats

let eps_integral = 1e-6

let eps_prune = 1e-9

exception Out_of_nodes

let solve ?(max_nodes = 100_000) ?incumbent p ~integer =
  List.iter
    (fun j ->
      if j < 0 || j >= Lp.num_vars p then invalid_arg "Milp.solve: binary out of range";
      let lo, hi = Lp.get_bounds p j in
      if lo < -.eps_integral || hi > 1.0 +. eps_integral then
        invalid_arg "Milp.solve: binary variables must have bounds within [0, 1]")
    integer;
  let saved = List.map (fun j -> (j, Lp.get_bounds p j)) integer in
  let restore () = List.iter (fun (j, (lo, hi)) -> Lp.set_bounds p j lo hi) saved in
  let best_obj = ref (match incumbent with Some v -> v | None -> infinity) in
  let best_primal = ref None in
  let nodes = ref 0 in
  let lp_solves = ref 0 in
  let warm_hits = ref 0 in
  let warm_misses = ref 0 in
  (* Most fractional binary of an LP solution, if any. *)
  let fractional primal =
    let best = ref None in
    List.iter
      (fun j ->
        let v = primal.(j) in
        let dist = Float.min (Float.abs v) (Float.abs (1.0 -. v)) in
        if dist > eps_integral then
          match !best with
          | Some (_, d) when d >= dist -> ()
          | Some _ | None -> best := Some (j, dist))
      integer;
    !best
  in
  (* Each node re-solves the same problem with one binary's bounds
     pinned, so the parent's optimal basis is an ideal warm start for
     both children: only bounds changed, the rows are identical. *)
  let node_solve parent_basis =
    incr lp_solves;
    let result = match parent_basis with Some b -> Lp.solve_from p b | None -> Lp.solve p in
    (match Lp.last_stats p with
    | Some { Lp.warm = Lp.Warm_hit; _ } -> incr warm_hits
    | Some { Lp.warm = Lp.Warm_miss; _ } -> incr warm_misses
    | Some { Lp.warm = Lp.Cold; _ } | None -> ());
    result
  in
  let rec explore parent_basis =
    if !nodes >= max_nodes then raise Out_of_nodes;
    incr nodes;
    match node_solve parent_basis with
    | Lp.Infeasible -> ()
    | Lp.Unbounded ->
        (* The relaxation must be bounded for branch and bound to make
           sense; our verification encodings always are. *)
        invalid_arg "Milp.solve: unbounded LP relaxation"
    | Lp.Optimal { objective; primal; _ } ->
        if objective >= !best_obj -. eps_prune then () (* bound: prune *)
        else begin
          match fractional primal with
          | None ->
              best_obj := objective;
              best_primal := Some (Array.copy primal)
          | Some (j, _) ->
              let lo, hi = Lp.get_bounds p j in
              let my_basis = Lp.basis p in
              (* Branch toward the relaxation's preference first. *)
              let first, second = if primal.(j) >= 0.5 then (1.0, 0.0) else (0.0, 1.0) in
              Lp.set_bounds p j first first;
              explore my_basis;
              Lp.set_bounds p j second second;
              explore my_basis;
              Lp.set_bounds p j lo hi
        end
  in
  (* The binaries' bounds come back on every exit, an exception that
     escapes the search (its own [invalid_arg], or whatever a solve hook
     raises) included. *)
  let outcome =
    Fun.protect ~finally:restore (fun () ->
        match explore None with
        | () -> `Done
        | exception Out_of_nodes -> `Capped
        | exception (Lp.Iteration_limit | Lp.Numerical_failure _) ->
            (* An inner LP gave up; the search below this node is
               incomplete, so no exact answer exists.  Surfaced as a
               result rather than an exception so callers degrade
               instead of crashing. *)
            `Failed)
  in
  let stats =
    {
      nodes = !nodes;
      lp_solves = !lp_solves;
      warm_hits = !warm_hits;
      warm_misses = !warm_misses;
    }
  in
  match outcome with
  | `Capped -> Node_limit stats
  | `Failed -> Solver_failure stats
  | `Done -> (
      match !best_primal with
      | Some primal -> Optimal { objective = !best_obj; primal; stats }
      | None -> Infeasible stats)
