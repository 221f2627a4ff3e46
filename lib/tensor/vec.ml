type t = float array

let create n x = Array.make n x

let zeros n = Array.make n 0.0

let dim = Array.length

let copy = Array.copy

let of_list = Array.of_list

let get (v : t) i = v.(i)

let check_dims name a b =
  if Array.length a <> Array.length b then
    invalid_arg (Printf.sprintf "Vec.%s: dimension mismatch (%d vs %d)" name (Array.length a) (Array.length b))

let add a b =
  check_dims "add" a b;
  Array.init (Array.length a) (fun i -> a.(i) +. b.(i))

let sub a b =
  check_dims "sub" a b;
  Array.init (Array.length a) (fun i -> a.(i) -. b.(i))

let dot a b =
  check_dims "dot" a b;
  let acc = ref 0.0 in
  for i = 0 to Array.length a - 1 do
    acc := !acc +. (a.(i) *. b.(i))
  done;
  !acc

let norm2 a = sqrt (dot a a)

let norm_inf a = Array.fold_left (fun acc x -> Float.max acc (Float.abs x)) 0.0 a

let max_elt a =
  if Array.length a = 0 then invalid_arg "Vec.max_elt: empty vector";
  Array.fold_left Float.max a.(0) a

let argmax a =
  if Array.length a = 0 then invalid_arg "Vec.argmax: empty vector";
  let best = ref 0 in
  for i = 1 to Array.length a - 1 do
    if a.(i) > a.(!best) then best := i
  done;
  !best

let map = Array.map

let map2 f a b =
  check_dims "map2" a b;
  Array.init (Array.length a) (fun i -> f a.(i) b.(i))

let relu a = Array.map (fun x -> Float.max 0.0 x) a

let equal ?(eps = 1e-9) a b =
  Array.length a = Array.length b
  && begin
       let ok = ref true in
       for i = 0 to Array.length a - 1 do
         if Float.abs (a.(i) -. b.(i)) > eps then ok := false
       done;
       !ok
     end

let pp fmt v =
  Format.fprintf fmt "[@[%a@]]"
    (Format.pp_print_list ~pp_sep:(fun f () -> Format.fprintf f ";@ ") (fun f x -> Format.fprintf f "%g" x))
    (Array.to_list v)
