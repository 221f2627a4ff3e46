type t = { lo : float; hi : float }

let make lo hi =
  if lo > hi then invalid_arg "Itv.make: lo > hi";
  { lo; hi }

let point v = { lo = v; hi = v }

let add a b = { lo = a.lo +. b.lo; hi = a.hi +. b.hi }

let scale k a = if k >= 0.0 then { lo = k *. a.lo; hi = k *. a.hi } else { lo = k *. a.hi; hi = k *. a.lo }

let add_scaled acc k x = add acc (scale k x)

