(* The differential zonotope oracle at 20x the tier-1 case count:
   dune build @zonotope-oracle *)

open Zonotope_oracle

let run seed test =
  QCheck_base_runner.run_tests ~verbose:true ~rand:(Random.State.make [| seed |]) [ test ]

let () =
  let narrow = run Oracle.seed (Oracle.test ~count:(20 * Oracle.tier1_count)) in
  let wide = run Oracle.wide_seed (Oracle.wide_test ~count:(20 * Oracle.wide_tier1_count)) in
  exit (max narrow wide)
