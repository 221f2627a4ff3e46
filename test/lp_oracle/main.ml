(* The differential LP oracle at 20x the tier-1 case count:
   dune build @lp-oracle *)

let () =
  exit
    (QCheck_base_runner.run_tests ~verbose:true
       ~rand:(Random.State.make [| Lp_oracle.Oracle.seed |])
       [ Lp_oracle.Oracle.test ~count:(20 * Lp_oracle.Oracle.tier1_count) ])
