(* The differential encoding oracle at 20x the tier-1 case count:
   dune build @encoding-oracle *)

let () =
  let open Encoding_oracle.Oracle in
  let status =
    QCheck_base_runner.run_tests ~verbose:true
      ~rand:(Random.State.make [| seed |])
      [ test ~count:(20 * tier1_count) ]
  in
  Printf.printf
    "%d subproblems: %d split a root-stable unit, %d a unit ambiguous at the root but stable at \
     the node; %d strictly tighter than the reference; %d MILP pairs compared\n"
    tally.subproblems tally.root_stable_splits tally.node_stable_splits tally.tighter
    tally.milp_compared;
  exit status
