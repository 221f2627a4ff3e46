(* Row-major storage in a flat array: entry (i, j) lives at [i * cols + j]. *)
type t = { rows : int; cols : int; data : float array }

let create rows cols x =
  if rows < 0 || cols < 0 then invalid_arg "Mat.create: negative dimension";
  { rows; cols; data = Array.make (rows * cols) x }

let zeros rows cols = create rows cols 0.0

let init rows cols f =
  if rows < 0 || cols < 0 then invalid_arg "Mat.init: negative dimension";
  let data = Array.make (rows * cols) 0.0 in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      data.((i * cols) + j) <- f i j
    done
  done;
  { rows; cols; data }

let rows m = m.rows

let cols m = m.cols

let get m i j = m.data.((i * m.cols) + j)

let set m i j x = m.data.((i * m.cols) + j) <- x

let of_arrays a =
  let rows = Array.length a in
  let cols = if rows = 0 then 0 else Array.length a.(0) in
  Array.iter (fun r -> if Array.length r <> cols then invalid_arg "Mat.of_arrays: ragged rows") a;
  init rows cols (fun i j -> a.(i).(j))

let to_arrays m = Array.init m.rows (fun i -> Array.init m.cols (fun j -> get m i j))

let row m i = Array.sub m.data (i * m.cols) m.cols

let blit_row m i dst = Array.blit m.data (i * m.cols) dst 0 m.cols

let check_same name a b =
  if a.rows <> b.rows || a.cols <> b.cols then
    invalid_arg
      (Printf.sprintf "Mat.%s: shape mismatch (%dx%d vs %dx%d)" name a.rows a.cols b.rows b.cols)

let add a b =
  check_same "add" a b;
  { a with data = Array.init (Array.length a.data) (fun k -> a.data.(k) +. b.data.(k)) }

let sub a b =
  check_same "sub" a b;
  { a with data = Array.init (Array.length a.data) (fun k -> a.data.(k) -. b.data.(k)) }

let scale s m = { m with data = Array.map (fun x -> s *. x) m.data }

let map f m = { m with data = Array.map f m.data }

let matvec m x =
  if Array.length x <> m.cols then
    invalid_arg (Printf.sprintf "Mat.matvec: %dx%d with vector of dim %d" m.rows m.cols (Array.length x));
  let y = Array.make m.rows 0.0 in
  for i = 0 to m.rows - 1 do
    let base = i * m.cols in
    let acc = ref 0.0 in
    for j = 0 to m.cols - 1 do
      acc := !acc +. (m.data.(base + j) *. x.(j))
    done;
    y.(i) <- !acc
  done;
  y

let abs_matvec_t m x =
  if Array.length x <> m.rows then
    invalid_arg
      (Printf.sprintf "Mat.abs_matvec_t: %dx%d with vector of dim %d" m.rows m.cols
         (Array.length x));
  let y = Array.make m.cols 0.0 in
  for i = 0 to m.rows - 1 do
    let base = i * m.cols in
    let xi = x.(i) in
    if xi <> 0.0 then
      for j = 0 to m.cols - 1 do
        y.(j) <- y.(j) +. (Float.abs m.data.(base + j) *. xi)
      done
  done;
  y

let frobenius_norm m =
  let acc = ref 0.0 in
  Array.iter (fun x -> acc := !acc +. (x *. x)) m.data;
  sqrt !acc

let max_abs m = Array.fold_left (fun acc x -> Float.max acc (Float.abs x)) 0.0 m.data

let equal ?(eps = 1e-9) a b =
  a.rows = b.rows && a.cols = b.cols
  && begin
       let ok = ref true in
       for k = 0 to Array.length a.data - 1 do
         if Float.abs (a.data.(k) -. b.data.(k)) > eps then ok := false
       done;
       !ok
     end
