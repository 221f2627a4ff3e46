(* The differential DeepPoly oracle at 20x the tier-1 case count:
   dune build @deeppoly-oracle *)

let () =
  exit
    (QCheck_base_runner.run_tests ~verbose:true
       ~rand:(Random.State.make [| Deeppoly_oracle.Oracle.seed |])
       [
         Deeppoly_oracle.Oracle.test ~count:(20 * Deeppoly_oracle.Oracle.tier1_count);
         Deeppoly_oracle.Oracle.resume_test ~count:(20 * Deeppoly_oracle.Oracle.tier1_count);
       ])
