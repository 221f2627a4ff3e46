type t = { layer : int; index : int }

let make ~layer ~index = { layer; index }

let compare a b =
  match Int.compare a.layer b.layer with 0 -> Int.compare a.index b.index | c -> c

let pp fmt t = Format.fprintf fmt "r[%d,%d]" t.layer t.index

let to_string t = Printf.sprintf "r[%d,%d]" t.layer t.index

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Map = Map.Make (Ord)
module Set = Set.Make (Ord)
