(* The differential encoding oracle at 20x the tier-1 case count:
   dune build @encoding-oracle *)

let () =
  let open Encoding_oracle.Oracle in
  let status =
    QCheck_base_runner.run_tests ~verbose:true
      ~rand:(Random.State.make [| seed |])
      [
        test ~count:(20 * tier1_count);
        crash_test ~count:(20 * crash_tier1_count);
        transfer_test ~count:(20 * transfer_tier1_count);
      ]
  in
  Printf.printf
    "%d subproblems: %d split a root-stable unit, %d a unit ambiguous at the root but stable at \
     the node; %d strictly tighter than the reference; %d one-shot MILPs compared with the \
     reference; %d specializations of triangles built with ~root bit-identical\n"
    tally.subproblems tally.root_stable_splits tally.node_stable_splits tally.tighter
    tally.milp_compared tally.rooted_compared;
  Printf.printf
    "%d crash-started solves compared: %d answered by the crash basis; %d corners outside a \
     split row: %d answered by the dual simplex from the crash basis, %d by the slack basis\n"
    crash_tally.crash_compared crash_tally.crash_answered
    (crash_tally.violating_dual + crash_tally.violating_slack)
    crash_tally.violating_dual crash_tally.violating_slack;
  Printf.printf
    "%d node LPs bounded by multipliers carried from N: %d under an identity update, %d with \
     other rows than N's, %d splitting a root-stable unit; %d closed by the screened bound\n"
    transfer_tally.carried transfer_tally.identity transfer_tally.reshaped transfer_tally.pinned
    transfer_tally.closed;
  (* A MILP property that skipped every case compared nothing. *)
  if tally.milp_compared = 0 then begin
    print_endline "no MILP compared: property (c) checked nothing";
    exit 1
  end;
  exit status
