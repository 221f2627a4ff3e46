let monotonic () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let timed f =
  let t0 = monotonic () in
  let r = f () in
  (r, monotonic () -. t0)
