(* Tests for the specification tree: split operation, traversals,
   subproblem reconstruction, Lemma-1-style partition property,
   serialization, copying. *)

module Vec = Ivan_tensor.Vec
module Rng = Ivan_tensor.Rng
module Relu_id = Ivan_nn.Relu_id
module Network = Ivan_nn.Network
module Box = Ivan_spec.Box
module Splits = Ivan_domains.Splits
module Decision = Ivan_spectree.Decision
module Tree = Ivan_spectree.Tree

let r l i = Decision.Relu_split (Relu_id.make ~layer:l ~index:i)

let test_single_node () =
  let t = Tree.create () in
  Alcotest.(check int) "size" 1 (Tree.size t);
  Alcotest.(check int) "leaves" 1 (Tree.num_leaves t);
  Alcotest.(check bool) "root is leaf" true (Tree.is_leaf (Tree.root t));
  Alcotest.(check bool) "well formed" true (Tree.well_formed t)

let test_split_grows () =
  let t = Tree.create () in
  let l, rgt = Tree.split t (Tree.root t) (r 0 0) in
  Alcotest.(check int) "size" 3 (Tree.size t);
  Alcotest.(check int) "leaves" 2 (Tree.num_leaves t);
  Alcotest.(check bool) "root no longer leaf" false (Tree.is_leaf (Tree.root t));
  Alcotest.(check bool) "children are leaves" true (Tree.is_leaf l && Tree.is_leaf rgt);
  Alcotest.(check bool) "edges" true
    (Tree.edge l = Some (r 0 0, Decision.Left) && Tree.edge rgt = Some (r 0 0, Decision.Right));
  Alcotest.(check bool) "well formed" true (Tree.well_formed t)

let test_split_non_leaf_rejected () =
  let t = Tree.create () in
  let _ = Tree.split t (Tree.root t) (r 0 0) in
  Alcotest.check_raises "non-leaf" (Invalid_argument "Tree.split: node is not a leaf") (fun () ->
      ignore (Tree.split t (Tree.root t) (r 0 1)))

let test_split_repeat_rejected () =
  let t = Tree.create () in
  let l, _ = Tree.split t (Tree.root t) (r 0 0) in
  Alcotest.check_raises "repeat"
    (Invalid_argument "Tree.split: decision already taken on this path") (fun () ->
      ignore (Tree.split t l (r 0 0)))

let test_sibling_can_reuse_decision () =
  (* The same decision on a *different* path is legal. *)
  let t = Tree.create () in
  let l, rgt = Tree.split t (Tree.root t) (r 0 0) in
  let _ = Tree.split t l (r 0 1) in
  let _ = Tree.split t rgt (r 0 1) in
  Alcotest.(check bool) "well formed" true (Tree.well_formed t);
  Alcotest.(check int) "size" 7 (Tree.size t)

let test_leaves_order_left_to_right () =
  let t = Tree.create () in
  let l, rgt = Tree.split t (Tree.root t) (r 0 0) in
  let ll, lr = Tree.split t l (r 0 1) in
  let ids = List.map Tree.node_id (Tree.leaves t) in
  Alcotest.(check (list int)) "order" [ Tree.node_id ll; Tree.node_id lr; Tree.node_id rgt ] ids

let test_subproblem_relu () =
  let t = Tree.create () in
  let l, _ = Tree.split t (Tree.root t) (r 0 0) in
  let _, lr = Tree.split t l (r 1 1) in
  let box = Box.make ~lo:(Vec.zeros 2) ~hi:(Vec.create 2 1.0) in
  let sub_box, splits = Tree.subproblem ~root_box:box lr in
  Alcotest.(check bool) "box unchanged" true (Box.equal box sub_box);
  Alcotest.(check int) "two splits" 2 (Splits.cardinal splits);
  Alcotest.(check bool) "r00 pos" true
    (Splits.find (Relu_id.make ~layer:0 ~index:0) splits = Some Splits.Pos);
  Alcotest.(check bool) "r11 neg" true
    (Splits.find (Relu_id.make ~layer:1 ~index:1) splits = Some Splits.Neg)

let test_subproblem_input_split () =
  let t = Tree.create () in
  let l, rgt = Tree.split t (Tree.root t) (Decision.Input_split 0) in
  let _, lr = Tree.split t l (Decision.Input_split 1) in
  ignore rgt;
  let box = Box.make ~lo:(Vec.zeros 2) ~hi:(Vec.create 2 1.0) in
  let sub_box, splits = Tree.subproblem ~root_box:box lr in
  Alcotest.(check bool) "no relu splits" true (Splits.is_empty splits);
  (* Left of dim 0 then right of dim 1: [0, 0.5] x [0.5, 1]. *)
  Alcotest.(check (float 1e-12)) "lo0" 0.0 (Box.lo_at sub_box 0);
  Alcotest.(check (float 1e-12)) "hi0" 0.5 (Box.hi_at sub_box 0);
  Alcotest.(check (float 1e-12)) "lo1" 0.5 (Box.lo_at sub_box 1);
  Alcotest.(check (float 1e-12)) "hi1" 1.0 (Box.hi_at sub_box 1)

(* Lemma-1 flavoured partition check: for a tree over input splits, the
   leaf boxes tile the root box — every interior point lies in exactly
   one leaf box. *)
let test_leaf_boxes_partition () =
  let t = Tree.create () in
  let rng = Rng.create 7 in
  (* Grow a random input-split tree. *)
  for _ = 1 to 6 do
    let leaves = Array.of_list (Tree.leaves t) in
    let leaf = leaves.(Rng.int rng (Array.length leaves)) in
    let dim = Rng.int rng 2 in
    ignore (Tree.split t leaf (Decision.Input_split dim))
  done;
  let box = Box.make ~lo:(Vec.zeros 2) ~hi:(Vec.create 2 1.0) in
  let leaf_boxes =
    List.map (fun n -> fst (Tree.subproblem ~root_box:box n)) (Tree.leaves t)
  in
  for _ = 1 to 500 do
    let x = Box.sample ~rng box in
    let containing = List.filter (fun b -> Box.contains b x) leaf_boxes in
    (* On split boundaries a point may fall in two boxes; almost surely
       interior, so require at least one and at most two. *)
    let n = List.length containing in
    Alcotest.(check bool) "covered" true (n >= 1 && n <= 2)
  done

(* Lemma-1 flavoured check for ReLU splits: each input's activation
   pattern matches the split assumptions of exactly one leaf. *)
let test_leaf_phases_partition () =
  let net = Fixtures.paper_net () in
  let t = Tree.create () in
  let l, _ = Tree.split t (Tree.root t) (r 0 0) in
  let _ = Tree.split t l (r 1 0) in
  let box = Box.make ~lo:(Vec.zeros 2) ~hi:(Vec.create 2 1.0) in
  let rng = Rng.create 11 in
  let leaves = Tree.leaves t in
  for _ = 1 to 300 do
    let x = Box.sample ~rng box in
    let tr = Network.forward_trace net x in
    let matching =
      List.filter
        (fun leaf ->
          let _, splits = Tree.subproblem ~root_box:box leaf in
          List.for_all
            (fun ((ri : Relu_id.t), phase) ->
              let v = tr.Network.pre.(ri.Relu_id.layer).(ri.Relu_id.index) in
              match phase with Splits.Pos -> v >= 0.0 | Splits.Neg -> v < 0.0)
            (Splits.bindings splits))
        leaves
    in
    Alcotest.(check int) "exactly one leaf matches" 1 (List.length matching)
  done

let test_lb_roundtrip () =
  let t = Tree.create () in
  Alcotest.(check bool) "initially nan" true (Float.is_nan (Tree.lb (Tree.root t)));
  Tree.set_lb (Tree.root t) (-7.0);
  Alcotest.(check (float 0.0)) "stored" (-7.0) (Tree.lb (Tree.root t))

let test_copy_independent () =
  let t = Tree.create () in
  let l, _ = Tree.split t (Tree.root t) (r 0 0) in
  Tree.set_lb (Tree.root t) 1.0;
  let c = Tree.copy t in
  (* Mutate the original: the copy must not change. *)
  let _ = Tree.split t l (r 0 1) in
  Tree.set_lb (Tree.root t) 2.0;
  Alcotest.(check int) "copy size unchanged" 3 (Tree.size c);
  Alcotest.(check (float 0.0)) "copy lb unchanged" 1.0 (Tree.lb (Tree.root c));
  Alcotest.(check int) "original grew" 5 (Tree.size t)

let test_serialization_roundtrip () =
  let t = Tree.create () in
  let l, rgt = Tree.split t (Tree.root t) (r 0 0) in
  let _ = Tree.split t l (Decision.Input_split 3) in
  Tree.set_lb (Tree.root t) (-7.0);
  Tree.set_lb l (-5.0);
  Tree.set_lb rgt infinity;
  let t' = Tree.of_string (Tree.to_string t) in
  Alcotest.(check int) "size" (Tree.size t) (Tree.size t');
  Alcotest.(check int) "leaves" (Tree.num_leaves t) (Tree.num_leaves t');
  Alcotest.(check (float 0.0)) "root lb" (-7.0) (Tree.lb (Tree.root t'));
  Alcotest.(check bool) "well formed" true (Tree.well_formed t');
  (match Tree.children (Tree.root t') with
  | Some (l', r') ->
      Alcotest.(check (float 0.0)) "left lb" (-5.0) (Tree.lb l');
      Alcotest.(check bool) "right lb inf" true (Tree.lb r' = infinity);
      Alcotest.(check bool) "left decision" true (Tree.decision l' = Some (Decision.Input_split 3))
  | None -> Alcotest.fail "root lost children");
  (* Round trip again: fixpoint. *)
  Alcotest.(check string) "stable" (Tree.to_string t') (Tree.to_string (Tree.of_string (Tree.to_string t')))

let test_serialization_malformed () =
  (match Tree.of_string "bogus" with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected Failure");
  match Tree.of_string "node 0 nan relu 0 0\nleaf 1 nan" with
  | exception Failure _ -> () (* missing second child *)
  | _ -> Alcotest.fail "expected Failure on truncated tree"

let test_path_decisions () =
  let t = Tree.create () in
  let l, _ = Tree.split t (Tree.root t) (r 0 0) in
  let _, lr = Tree.split t l (r 0 1) in
  let path = Tree.path_decisions lr in
  Alcotest.(check int) "two edges" 2 (List.length path);
  Alcotest.(check bool) "order root-down" true
    (match path with
    | [ (d1, Decision.Left); (d2, Decision.Right) ] ->
        Decision.equal d1 (r 0 0) && Decision.equal d2 (r 0 1)
    | _ -> false)

let prop_random_trees_well_formed =
  QCheck.Test.make ~name:"random grown trees stay well-formed" ~count:50
    QCheck.(make QCheck.Gen.(int_range 0 1_000_000))
    (fun seed ->
      let rng = Rng.create seed in
      let t = Tree.create () in
      for _ = 1 to 10 do
        let leaves = Array.of_list (Tree.leaves t) in
        let leaf = leaves.(Rng.int rng (Array.length leaves)) in
        let d = r (Rng.int rng 3) (Rng.int rng 4) in
        (* Skip if the decision already appears on the path. *)
        let on_path =
          List.exists (fun (pd, _) -> Decision.equal pd d) (Tree.path_decisions leaf)
        in
        if not on_path then ignore (Tree.split t leaf d)
      done;
      Tree.well_formed t
      && Tree.size t = (2 * Tree.num_leaves t) - 1
      && Tree.to_string (Tree.of_string (Tree.to_string t)) = Tree.to_string t)



let test_decision_string_roundtrip () =
  let cases =
    [ r 0 0; r 3 17; Decision.Input_split 0; Decision.Input_split 4 ]
  in
  List.iter
    (fun d ->
      Alcotest.(check bool) "roundtrip" true
        (Decision.equal d (Decision.of_string (Decision.to_string d))))
    cases;
  match Decision.of_string "nonsense" with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected Failure"

let test_decision_ordering () =
  (* Relu splits order before input splits; within each kind, by index. *)
  Alcotest.(check bool) "relu < input" true (Decision.compare (r 9 9) (Decision.Input_split 0) < 0);
  Alcotest.(check bool) "relu order" true (Decision.compare (r 0 1) (r 1 0) < 0);
  Alcotest.(check bool) "input order" true
    (Decision.compare (Decision.Input_split 1) (Decision.Input_split 2) < 0)

let suite =
  let q = QCheck_alcotest.to_alcotest in
  [
    ("single node", `Quick, test_single_node);
    ("split grows", `Quick, test_split_grows);
    ("split non-leaf rejected", `Quick, test_split_non_leaf_rejected);
    ("split repeat rejected", `Quick, test_split_repeat_rejected);
    ("sibling reuse decision", `Quick, test_sibling_can_reuse_decision);
    ("leaves order", `Quick, test_leaves_order_left_to_right);
    ("subproblem relu", `Quick, test_subproblem_relu);
    ("subproblem input split", `Quick, test_subproblem_input_split);
    ("leaf boxes partition", `Quick, test_leaf_boxes_partition);
    ("leaf phases partition", `Quick, test_leaf_phases_partition);
    ("lb roundtrip", `Quick, test_lb_roundtrip);
    ("copy independent", `Quick, test_copy_independent);
    ("serialization roundtrip", `Quick, test_serialization_roundtrip);
    ("serialization malformed", `Quick, test_serialization_malformed);
    ("path decisions", `Quick, test_path_decisions);
    q prop_random_trees_well_formed;
    ("decision string roundtrip", `Quick, test_decision_string_roundtrip);
    ("decision ordering", `Quick, test_decision_ordering);
  ]
