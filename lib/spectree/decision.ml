module Relu_id = Ivan_nn.Relu_id
module Splits = Ivan_domains.Splits

type t = Relu_split of Relu_id.t | Input_split of int

type side = Left | Right

let compare a b =
  match (a, b) with
  | Relu_split ra, Relu_split rb -> Relu_id.compare ra rb
  | Relu_split _, Input_split _ -> -1
  | Input_split _, Relu_split _ -> 1
  | Input_split da, Input_split db -> Int.compare da db

let equal a b = compare a b = 0

let relu_phase = function Left -> Splits.Pos | Right -> Splits.Neg

let pp_edge fmt (d, side) =
  match d with
  | Relu_split r -> Format.fprintf fmt "%a%s" Relu_id.pp r (match side with Left -> "+" | Right -> "-")
  | Input_split dim ->
      Format.fprintf fmt "x[%d]%s" dim (match side with Left -> "lo" | Right -> "hi")

let to_string = function
  | Relu_split r -> Printf.sprintf "relu %d %d" r.Relu_id.layer r.Relu_id.index
  | Input_split d -> Printf.sprintf "input %d" d

let of_string s =
  match String.split_on_char ' ' (String.trim s) with
  | [ "relu"; layer; index ] ->
      Relu_split (Relu_id.make ~layer:(int_of_string layer) ~index:(int_of_string index))
  | [ "input"; d ] -> Input_split (int_of_string d)
  | _ -> failwith (Printf.sprintf "Decision.of_string: malformed %S" s)
