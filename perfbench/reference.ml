(* How fast this core runs right now.

   On a shared host a core can run at two thirds of its speed for
   seconds at a time (another tenant on its sibling thread, memory
   traffic), so the same pass takes up to 1.5x as long.  A fixed kernel
   timed before every phase slows down with it; how much a workload
   follows depends on how compute-bound it is, so each workload carries
   its own fitted exponent.  The kernel uses no repository code, so no
   change to the verifier moves it. *)

module Clock = Ivan_clock.Clock

let xs = Array.init 256 float_of_int

let ys = Array.make 256 0.5

(* Dot products over small float arrays, the shape of the verifier's
   inner loops.  It allocates nothing, so the garbage collector's state
   after a verifier phase does not leak into its time. *)
let kernel () =
  let s = ref 0.0 in
  for _ = 1 to 2000 do
    let d = ref 0.0 in
    for j = 0 to 255 do
      d := !d +. (xs.(j) *. ys.(j))
    done;
    s := !s +. !d
  done;
  ignore (Sys.opaque_identity !s)

(* The kernel's time on an unloaded core of the calibration host
   (seconds). *)
let nominal = 0.00065

(* The fastest of three runs: a single run can also catch an interrupt
   or a cold cache, which say nothing about the core's speed. *)
let time () = List.fold_left Float.min infinity (List.init 3 (fun _ -> snd (Clock.timed kernel)))

(* The factor that brings a time measured while the kernel took
   [measured] seconds to the nominal speed. *)
let scale ~exponent measured = (nominal /. measured) ** exponent
