include Engine

let verify ~analyzer ~heuristic ?(strategy = Frontier.Fifo) ?trace ?(budget = default_budget)
    ?policy ?(certify = false) ?journal ?initial_tree ~net ~prop () =
  run
    (create ~analyzer ~heuristic ~config:{ strategy; budget; policy; certify } ?trace ?journal
       ?initial_tree ~net ~prop ())
