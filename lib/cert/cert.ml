(* Exact-arithmetic proof checking.  See cert.mli for the trust story.

   Discipline for this file: no floating-point arithmetic, anywhere.
   Floats may be pattern-matched, classified and decoded into Q values
   (both bit-exact operations), and serialized; they are never added,
   multiplied, compared or otherwise computed with.  All numeric
   reasoning happens in Q. *)

module Lp = Ivan_lp.Lp
module Layer = Ivan_nn.Layer
module Network = Ivan_nn.Network
module Serialize = Ivan_nn.Serialize
module Mat = Ivan_tensor.Mat
module Box = Ivan_spec.Box
module Prop = Ivan_spec.Prop
module Tree = Ivan_spectree.Tree
module Decision = Ivan_spectree.Decision
module Relu_id = Ivan_nn.Relu_id

module Snapshot = struct
  type row = { idx : int array; cf : float array; cmp : Lp.cmp; rhs : float }

  type t = {
    nvars : int;
    obj : float array;
    lo : float array;
    hi : float array;
    rows : row array;
  }

  let of_problem p =
    let nvars = Lp.num_vars p in
    let lo = Array.make nvars 0.0 and hi = Array.make nvars 0.0 in
    for j = 0 to nvars - 1 do
      let l, h = Lp.get_bounds p j in
      lo.(j) <- l;
      hi.(j) <- h
    done;
    {
      nvars;
      obj = Lp.objective_coeffs p;
      lo;
      hi;
      rows =
        Array.init (Lp.num_rows p) (fun i ->
            let idx, cf, cmp, rhs = Lp.row p i in
            { idx; cf; cmp; rhs });
    }
end

type evidence = { const : float; snapshot : Snapshot.t; witness : Lp.Certificate.t }

type leaf = { node : int; splits : string; evidence : evidence }

let splits_fingerprint path =
  String.concat ","
    (List.map
       (fun (d, side) ->
         match d with
         | Decision.Relu_split r ->
             Printf.sprintf "%cL%dN%d"
               (match side with Decision.Left -> '+' | Decision.Right -> '-')
               r.Relu_id.layer r.Relu_id.index
         | Decision.Input_split dim ->
             Printf.sprintf "%cI%d"
               (match side with Decision.Left -> '<' | Decision.Right -> '>')
               dim)
       path)

(* ------------------------------------------------------------------ *)
(* Exact weak-duality checking *)

let ( let* ) = Result.bind

let q_of ~what i v =
  match Q.of_float_opt v with
  | Some q -> Ok q
  | None -> Error (Printf.sprintf "%s %d is not finite (%h)" what i v)

(* The bound implied by multipliers [y] on a snapshot, optionally with
   the objective zeroed (the Farkas reading).  Writing the LP with
   explicit slacks,  a_i^T x + s_i = b_i  with the slack bounds encoding
   the comparison, weak duality gives for any y:

     c^T x  >=  y^T b
             + sum_j  min over [lo_j, hi_j] of (c_j - y^T A_.j) x_j
             + sum_i  min over [slo_i, shi_i] of (-y_i) s_i

   Each min term is d*lo when the coefficient d is positive, d*hi when
   negative, 0 when zero — and -inf when the needed bound is infinite,
   which we reject.  For slacks the bounds are (0, inf) for Le,
   (-inf, 0) for Ge and (0, 0) for Eq, so the slack terms reduce to the
   familiar sign conditions on y and contribute nothing to the sum. *)
let implied_bound_gen (s : Snapshot.t) ~zero_obj ~y =
  let m = Array.length s.rows in
  if Array.length y <> m then
    Error (Printf.sprintf "multiplier count %d does not match row count %d" (Array.length y) m)
  else begin
    let exception Reject of string in
    try
      let qy =
        Array.mapi
          (fun i v ->
            match q_of ~what:"multiplier for row" i v with
            | Ok q -> q
            | Error e -> raise (Reject e))
          y
      in
      (* Sign conditions (the slack terms of the dual). *)
      Array.iteri
        (fun i (r : Snapshot.row) ->
          match r.cmp with
          | Lp.Le ->
              if Q.sign qy.(i) > 0 then
                raise
                  (Reject
                     (Printf.sprintf "row %d: multiplier %h must be <= 0 for a <= row" i y.(i)))
          | Lp.Ge ->
              if Q.sign qy.(i) < 0 then
                raise
                  (Reject
                     (Printf.sprintf "row %d: multiplier %h must be >= 0 for a >= row" i y.(i)))
          | Lp.Eq -> ())
        s.rows;
      (* Reduced costs d_j = c_j - sum_i y_i A_ij, exactly. *)
      let d =
        if zero_obj then Array.make s.nvars Q.zero
        else
          Array.mapi
            (fun j v ->
              match q_of ~what:"objective coefficient on variable" j v with
              | Ok q -> q
              | Error e -> raise (Reject e))
            s.obj
      in
      let bound = ref Q.zero in
      Array.iteri
        (fun i (r : Snapshot.row) ->
          if Array.length r.idx <> Array.length r.cf then
            raise (Reject (Printf.sprintf "row %d: index/coefficient length mismatch" i));
          (match q_of ~what:"right-hand side of row" i r.rhs with
          | Ok b -> bound := Q.add !bound (Q.mul qy.(i) b)
          | Error e -> raise (Reject e));
          if not (Q.is_zero qy.(i)) then
            Array.iteri
              (fun k j ->
                if j < 0 || j >= s.nvars then
                  raise (Reject (Printf.sprintf "row %d: variable index %d out of range" i j));
                match q_of ~what:"coefficient on variable" j r.cf.(k) with
                | Ok a -> d.(j) <- Q.sub d.(j) (Q.mul qy.(i) a)
                | Error e -> raise (Reject e))
              r.idx)
        s.rows;
      (* Bound terms: each variable rests at whichever bound its reduced
         cost pushes against; an infinite bound there sinks the whole
         certificate. *)
      Array.iteri
        (fun j dj ->
          let sg = Q.sign dj in
          if sg > 0 then begin
            match Q.of_float_opt s.lo.(j) with
            | Some l -> bound := Q.add !bound (Q.mul dj l)
            | None ->
                raise
                  (Reject
                     (Printf.sprintf
                        "variable %d: positive reduced cost %s against non-finite lower bound %h"
                        j (Q.to_string dj) s.lo.(j)))
          end
          else if sg < 0 then begin
            match Q.of_float_opt s.hi.(j) with
            | Some h -> bound := Q.add !bound (Q.mul dj h)
            | None ->
                raise
                  (Reject
                     (Printf.sprintf
                        "variable %d: negative reduced cost %s against non-finite upper bound %h"
                        j (Q.to_string dj) s.hi.(j)))
          end)
        d;
      Ok !bound
    with Reject msg -> Error msg
  end

let implied_bound s ~y = implied_bound_gen s ~zero_obj:false ~y

let check_dual s ~y ~threshold =
  let* bound = implied_bound s ~y in
  if Q.compare bound threshold >= 0 then Ok bound
  else
    Error
      (Printf.sprintf "certified bound %s is below the required threshold %s" (Q.to_string bound)
         (Q.to_string threshold))

let check_farkas s ~y =
  let* bound = implied_bound_gen s ~zero_obj:true ~y in
  if Q.sign bound > 0 then Ok ()
  else
    Error
      (Printf.sprintf "Farkas witness implies only %s > 0 is false (needed strictly positive)"
         (Q.to_string bound))

let check_snapshot_shape (s : Snapshot.t) =
  if
    Array.length s.obj <> s.nvars
    || Array.length s.lo <> s.nvars
    || Array.length s.hi <> s.nvars
  then Error "snapshot arrays do not match the variable count"
  else Ok ()

(* Input variables of every LP encoding are variables [0, dim box); a
   certificate is bound to its property (and, under ReLU-only splitting,
   to its leaf) by their bounds matching the box bit-for-bit. *)
let check_input_binding (s : Snapshot.t) ~box =
  let d = Box.dim box in
  if s.nvars < d then
    Error (Printf.sprintf "snapshot has %d variables, fewer than the %d inputs" s.nvars d)
  else begin
    let exception Reject of string in
    try
      for j = 0 to d - 1 do
        let bind what have want =
          match (Q.of_float_opt have, Q.of_float_opt want) with
          | Some a, Some b when Q.equal a b -> ()
          | _ ->
              raise
                (Reject
                   (Printf.sprintf
                      "input %d: snapshot %s bound %h does not match the property box %h" j what
                      have want))
        in
        bind "lower" s.lo.(j) (Box.lo_at box j);
        bind "upper" s.hi.(j) (Box.hi_at box j)
      done;
      Ok ()
    with Reject msg -> Error msg
  end

let check_leaf ~box (l : leaf) =
  let s = l.evidence.snapshot in
  let fail msg = Error (Printf.sprintf "leaf %d: %s" l.node msg) in
  match
    let* () = check_snapshot_shape s in
    let* () = check_input_binding s ~box in
    match l.evidence.witness with
    | Lp.Certificate.Dual y -> begin
        match Q.of_float_opt l.evidence.const with
        | None -> Error (Printf.sprintf "objective constant %h is not finite" l.evidence.const)
        | Some const -> (
            match check_dual s ~y ~threshold:(Q.neg const) with
            | Ok _ -> Ok ()
            | Error e -> Error e)
      end
    | Lp.Certificate.Farkas y -> check_farkas s ~y
  with
  | Ok () -> Ok ()
  | Error msg -> fail msg

(* ------------------------------------------------------------------ *)
(* Exact network evaluation (counterexample checking) *)

(* Every layer is evaluated through its dense lowering: a convolution's
   matrix holds each kernel value at most once per entry, as [0. +. k],
   so the lowering adds no rounding to the trusted base. *)
let exact_forward net (x : Q.t array) =
  let v = ref x in
  let layers = Network.layers net in
  let* () =
    Array.fold_left
      (fun acc layer ->
        let* () = acc in
        let weights, bias = Layer.dense_affine layer in
        match Layer.activation layer with
        | Layer.Sigmoid | Layer.Tanh -> Error "exact evaluation does not support smooth activations"
        | (Layer.Identity | Layer.Relu | Layer.Leaky_relu _) as act ->
            let rows = Mat.rows weights and cols = Mat.cols weights in
            if Array.length !v <> cols then Error "layer input dimension mismatch"
            else begin
              let out =
                Array.init rows (fun i ->
                    let acc = ref (Q.of_float bias.(i)) in
                    for j = 0 to cols - 1 do
                      acc := Q.add !acc (Q.mul (Q.of_float (Mat.get weights i j)) !v.(j))
                    done;
                    !acc)
              in
              let out =
                match act with
                | Layer.Relu -> Array.map (fun q -> if Q.sign q < 0 then Q.zero else q) out
                | Layer.Leaky_relu a ->
                    let qa = Q.of_float a in
                    Array.map (fun q -> if Q.sign q < 0 then Q.mul qa q else q) out
                | Layer.Identity | Layer.Sigmoid | Layer.Tanh -> out
              in
              v := out;
              Ok ()
            end)
      (Ok ()) layers
  in
  Ok !v

let check_counterexample ~net ~(prop : Prop.t) x =
  let d = Box.dim prop.Prop.input in
  if Array.length x <> d then
    Error (Printf.sprintf "counterexample has %d coordinates, input dimension is %d"
             (Array.length x) d)
  else begin
    let exception Reject of string in
    try
      let qx =
        Array.mapi
          (fun j v ->
            match q_of ~what:"counterexample coordinate" j v with
            | Ok q -> q
            | Error e -> raise (Reject e))
          x
      in
      Array.iteri
        (fun j q ->
          let lo = Q.of_float (Box.lo_at prop.Prop.input j) in
          let hi = Q.of_float (Box.hi_at prop.Prop.input j) in
          if Q.compare q lo < 0 || Q.compare q hi > 0 then
            raise
              (Reject (Printf.sprintf "counterexample coordinate %d (%h) lies outside the box" j
                         x.(j))))
        qx;
      let* out = exact_forward net qx in
      if Array.length out <> Array.length prop.Prop.c then
        Error "network output dimension does not match the property"
      else begin
        let margin = ref (Q.of_float prop.Prop.offset) in
        Array.iteri (fun i q -> margin := Q.add !margin (Q.mul (Q.of_float prop.Prop.c.(i)) q)) out;
        if Q.sign !margin < 0 then Ok ()
        else
          Error
            (Printf.sprintf "counterexample's exact margin %s is not negative"
               (Q.to_string !margin))
      end
    with Reject msg -> Error msg
  end

(* ------------------------------------------------------------------ *)
(* Artifacts *)

module Artifact = struct
  type verdict = Proved | Disproved of float array

  type t = {
    net : Network.t;
    prop : Prop.t;
    verdict : verdict;
    tree : Tree.t;
    leaves : leaf list;
  }

  let ftok v = Printf.sprintf "%h" v

  let ftoks a = String.concat " " (Array.to_list (Array.map ftok a))

  let block_lines s =
    let lines = String.split_on_char '\n' s in
    let rec drop_trailing = function
      | [ "" ] -> []
      | [] -> []
      | l :: tl -> l :: drop_trailing tl
    in
    drop_trailing lines

  let to_string (t : t) =
    let buf = Buffer.create 65536 in
    let addf fmt = Printf.ksprintf (fun s -> Buffer.add_string buf s; Buffer.add_char buf '\n') fmt in
    addf "ivan-cert 1";
    addf "name: %S" t.prop.Prop.name;
    addf "offset: %s" (ftok t.prop.Prop.offset);
    addf "c: %d %s" (Array.length t.prop.Prop.c) (ftoks t.prop.Prop.c);
    let box = t.prop.Prop.input in
    let d = Box.dim box in
    addf "box: %d" d;
    addf "lo: %s" (ftoks (Box.lo box));
    addf "hi: %s" (ftoks (Box.hi box));
    (match t.verdict with
    | Proved -> addf "verdict: proved"
    | Disproved x -> addf "verdict: disproved %s" (ftoks x));
    let net_lines = block_lines (Serialize.to_string t.net) in
    addf "net: %d" (List.length net_lines);
    List.iter (addf "%s") net_lines;
    let tree_lines = block_lines (Tree.to_string t.tree) in
    addf "tree: %d" (List.length tree_lines);
    List.iter (addf "%s") tree_lines;
    addf "leaves: %d" (List.length t.leaves);
    List.iter
      (fun (l : leaf) ->
        addf "leaf: %d" l.node;
        addf "splits: %S" l.splits;
        addf "const: %s" (ftok l.evidence.const);
        (match l.evidence.witness with
        | Lp.Certificate.Dual y -> addf "witness: dual %d %s" (Array.length y) (ftoks y)
        | Lp.Certificate.Farkas y -> addf "witness: farkas %d %s" (Array.length y) (ftoks y));
        let s = l.evidence.snapshot in
        addf "snapshot: %d %d" s.Snapshot.nvars (Array.length s.Snapshot.rows);
        addf "obj: %s" (ftoks s.Snapshot.obj);
        addf "vlo: %s" (ftoks s.Snapshot.lo);
        addf "vhi: %s" (ftoks s.Snapshot.hi);
        Array.iter
          (fun (r : Snapshot.row) ->
            addf "row: %s %s %d %s %s"
              (match r.Snapshot.cmp with Lp.Le -> "le" | Lp.Ge -> "ge" | Lp.Eq -> "eq")
              (ftok r.Snapshot.rhs) (Array.length r.Snapshot.idx)
              (String.concat " " (Array.to_list (Array.map string_of_int r.Snapshot.idx)))
              (ftoks r.Snapshot.cf))
          s.Snapshot.rows)
      t.leaves;
    Buffer.contents buf

  let of_string text =
    let fail fmt = Printf.ksprintf (fun s -> failwith ("Cert.Artifact.of_string: " ^ s)) fmt in
    let lines = Array.of_list (String.split_on_char '\n' text) in
    let pos = ref 0 in
    let next () =
      if !pos >= Array.length lines then fail "truncated artifact";
      let l = lines.(!pos) in
      incr pos;
      l
    in
    let field name =
      let l = next () in
      let prefix = name ^ ":" in
      let pl = String.length prefix in
      if String.length l < pl || String.sub l 0 pl <> prefix then
        fail "expected %S line, got %S" prefix l;
      String.trim (String.sub l pl (String.length l - pl))
    in
    let tokens s = String.split_on_char ' ' s |> List.filter (fun t -> t <> "") in
    let float_tok t = try float_of_string t with _ -> fail "bad float token %S" t in
    let int_tok t = try int_of_string t with _ -> fail "bad integer token %S" t in
    (* Counts drive allocations; a corrupt count must be a parse error,
       not an attempted giga-element array. *)
    let count_tok t =
      let n = int_tok t in
      if n < 0 || n > 1_000_000 then fail "count %d out of range" n;
      n
    in
    let floats_exactly n s =
      let fs = List.map float_tok (tokens s) in
      if List.length fs <> n then fail "expected %d floats, got %d" n (List.length fs);
      Array.of_list fs
    in
    let counted_floats s =
      match tokens s with
      | n :: rest ->
          let n = count_tok n in
          let fs = List.map float_tok rest in
          if List.length fs <> n then fail "expected %d floats, got %d" n (List.length fs);
          Array.of_list fs
      | [] -> fail "expected a counted float list"
    in
    let quoted s = try Scanf.sscanf s "%S" Fun.id with _ -> fail "bad quoted string %S" s in
    let block n =
      let buf = Buffer.create 1024 in
      for _ = 1 to n do
        Buffer.add_string buf (next ());
        Buffer.add_char buf '\n'
      done;
      Buffer.contents buf
    in
    if String.trim (next ()) <> "ivan-cert 1" then fail "missing ivan-cert header";
    let name = quoted (field "name") in
    let offset = float_tok (field "offset") in
    let c = counted_floats (field "c") in
    let d = count_tok (field "box") in
    let lo = floats_exactly d (field "lo") in
    let hi = floats_exactly d (field "hi") in
    Array.iteri (fun i l -> if l > hi.(i) then fail "box lo > hi on input %d" i) lo;
    let verdict =
      match tokens (field "verdict") with
      | [ "proved" ] -> Proved
      | "disproved" :: rest ->
          let x = List.map float_tok rest in
          if List.length x <> d then fail "counterexample dimension mismatch";
          Disproved (Array.of_list x)
      | _ -> fail "bad verdict line"
    in
    let net = try Serialize.of_string (block (count_tok (field "net"))) with Failure e -> fail "embedded network: %s" e in
    let tree = try Tree.of_string (block (count_tok (field "tree"))) with Failure e -> fail "embedded tree: %s" e in
    let nleaves = count_tok (field "leaves") in
    let leaves = ref [] in
    for _ = 1 to nleaves do
      let node = int_tok (field "leaf") in
      let splits = quoted (field "splits") in
      let const = float_tok (field "const") in
      let witness =
        match tokens (field "witness") with
        | kind :: n :: rest ->
            let n = count_tok n in
            let y = List.map float_tok rest in
            if List.length y <> n then fail "witness length mismatch on leaf %d" node;
            let y = Array.of_list y in
            (match kind with
            | "dual" -> Lp.Certificate.Dual y
            | "farkas" -> Lp.Certificate.Farkas y
            | k -> fail "unknown witness kind %S" k)
        | _ -> fail "bad witness line on leaf %d" node
      in
      let nvars, nrows =
        match tokens (field "snapshot") with
        | [ nv; nr ] -> (count_tok nv, count_tok nr)
        | _ -> fail "bad snapshot line on leaf %d" node
      in
      let obj = floats_exactly nvars (field "obj") in
      let vlo = floats_exactly nvars (field "vlo") in
      let vhi = floats_exactly nvars (field "vhi") in
      let rows =
        Array.init nrows (fun _ ->
            match tokens (field "row") with
            | cmp :: rhs :: nnz :: rest ->
                let cmp =
                  match cmp with
                  | "le" -> Lp.Le
                  | "ge" -> Lp.Ge
                  | "eq" -> Lp.Eq
                  | c -> fail "unknown row comparison %S" c
                in
                let nnz = count_tok nnz in
                if List.length rest <> 2 * nnz then fail "row token count mismatch on leaf %d" node;
                let rest = Array.of_list rest in
                let idx = Array.init nnz (fun k -> int_tok rest.(k)) in
                let cf = Array.init nnz (fun k -> float_tok rest.(nnz + k)) in
                { Snapshot.idx; cf; cmp; rhs = float_tok rhs }
            | _ -> fail "bad row line on leaf %d" node)
      in
      leaves :=
        {
          node;
          splits;
          evidence =
            { const; snapshot = { Snapshot.nvars; obj; lo = vlo; hi = vhi; rows }; witness };
        }
        :: !leaves
    done;
    while !pos < Array.length lines && String.trim lines.(!pos) = "" do
      incr pos
    done;
    if !pos < Array.length lines then fail "trailing input after artifact";
    let input = Box.make ~lo ~hi in
    let prop = Prop.make ~name ~input ~c ~offset in
    { net; prop; verdict; tree; leaves = List.rev !leaves }

  let to_file path t =
    let tmp = path ^ ".tmp" in
    let oc = open_out tmp in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> output_string oc (to_string t));
    Sys.rename tmp path

  let of_file path =
    let ic = open_in path in
    let len = in_channel_length ic in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> of_string (really_input_string ic len))
end

type report = { leaves : int; dual_certs : int; farkas_certs : int }

let check_artifact (a : Artifact.t) =
  let net = a.Artifact.net and prop = a.Artifact.prop in
  let d = Box.dim prop.Prop.input in
  if Network.input_dim net <> d then
    Error "embedded network input dimension does not match the property box"
  else if Network.output_dim net <> Array.length prop.Prop.c then
    Error "embedded network output dimension does not match the property"
  else begin
    match a.Artifact.verdict with
    | Artifact.Disproved x ->
        if a.Artifact.leaves <> [] then
          Error "a disproved artifact must not carry leaf certificates"
        else
          let* () = check_counterexample ~net ~prop x in
          Ok { leaves = 0; dual_certs = 0; farkas_certs = 0 }
    | Artifact.Proved ->
        let tree = a.Artifact.tree in
        if not (Tree.well_formed tree) then Error "specification tree is not well-formed"
        else begin
          let input_split = ref false in
          Tree.iter_nodes tree (fun n ->
              match Tree.decision n with
              | Some (Decision.Input_split _) -> input_split := true
              | _ -> ());
          if !input_split then
            Error "tree contains input splits, which certification does not support"
          else begin
            let by_node = Hashtbl.create 64 in
            let dup = ref None in
            List.iter
              (fun (l : leaf) ->
                if Hashtbl.mem by_node l.node then dup := Some l.node
                else Hashtbl.add by_node l.node l)
              a.Artifact.leaves;
            match !dup with
            | Some n -> Error (Printf.sprintf "duplicate certificate for leaf %d" n)
            | None ->
                let tree_leaves = Tree.leaves tree in
                let leaf_ids =
                  List.fold_left
                    (fun acc n -> (Tree.node_id n) :: acc)
                    [] tree_leaves
                in
                let unknown =
                  List.find_opt (fun (l : leaf) -> not (List.mem l.node leaf_ids)) a.Artifact.leaves
                in
                (match unknown with
                | Some l ->
                    Error
                      (Printf.sprintf "certificate for node %d, which is not a leaf of the tree"
                         l.node)
                | None ->
                    let rec check_all dual farkas = function
                      | [] -> Ok { leaves = List.length tree_leaves; dual_certs = dual; farkas_certs = farkas }
                      | n :: rest -> (
                          let id = Tree.node_id n in
                          match Hashtbl.find_opt by_node id with
                          | None -> Error (Printf.sprintf "leaf %d has no certificate" id)
                          | Some l ->
                              let expected = splits_fingerprint (Tree.path_decisions n) in
                              if l.splits <> expected then
                                Error
                                  (Printf.sprintf
                                     "leaf %d: certificate is bound to splits %S, leaf path is %S"
                                     id l.splits expected)
                              else
                                let* () = check_leaf ~box:prop.Prop.input l in
                                let dual, farkas =
                                  match l.evidence.witness with
                                  | Lp.Certificate.Dual _ -> (dual + 1, farkas)
                                  | Lp.Certificate.Farkas _ -> (dual, farkas + 1)
                                in
                                check_all dual farkas rest)
                    in
                    check_all 0 0 tree_leaves)
          end
        end
  end

let pp_report fmt r =
  Format.fprintf fmt "%d leaves checked (%d dual, %d Farkas)" r.leaves r.dual_certs r.farkas_certs
