(* The differential zonotope oracle at 20x the tier-1 case count:
   dune build @zonotope-oracle *)

let () =
  exit
    (QCheck_base_runner.run_tests ~verbose:true
       ~rand:(Random.State.make [| Zonotope_oracle.Oracle.seed |])
       [ Zonotope_oracle.Oracle.test ~count:(20 * Zonotope_oracle.Oracle.tier1_count) ])
