(* The certificate-screen soundness oracle at 500x the tier-1 case
   count: dune build @cert-screen-oracle *)

let () =
  let open Screen_oracle.Oracle in
  let status =
    QCheck_base_runner.run_tests ~verbose:true
      ~rand:(Random.State.make [| seed |])
      [ test ~count:(500 * tier1_count) ]
  in
  Printf.printf "%d certificates: %d passed the screen, %d accepted by the exact check\n"
    tally.cases tally.screened tally.exact_ok;
  exit status
