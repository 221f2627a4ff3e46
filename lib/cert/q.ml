(* Exact dyadic rationals: sign * mag * 2^exp.

   The magnitude is a little-endian array of base-2^30 limbs with no
   leading (most-significant) zero limbs.  Limb products fit a native
   63-bit int with room for carries, so schoolbook multiplication needs
   no intermediate bignum.  The only float operation anywhere in this
   file is [Int64.bits_of_float] — a bit copy, not arithmetic. *)

let base_bits = 30

let base = 1 lsl base_bits

let mask = base - 1

(* ---------------- natural-number magnitudes ---------------- *)

let nat_zero = [||]

let nat_is_zero m = Array.length m = 0

(* Strip leading zero limbs so comparisons can use limb counts. *)
let nat_trim m =
  let n = ref (Array.length m) in
  while !n > 0 && m.(!n - 1) = 0 do
    decr n
  done;
  if !n = Array.length m then m else Array.sub m 0 !n

let nat_of_int v =
  if v < 0 then invalid_arg "Q.nat_of_int";
  let rec limbs v = if v = 0 then [] else (v land mask) :: limbs (v lsr base_bits) in
  Array.of_list (limbs v)

let nat_cmp a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Stdlib.compare la lb
  else begin
    let c = ref 0 in
    let i = ref (la - 1) in
    while !c = 0 && !i >= 0 do
      c := Stdlib.compare a.(!i) b.(!i);
      decr i
    done;
    !c
  end

let nat_add a b =
  let la = Array.length a and lb = Array.length b in
  let n = max la lb in
  let out = Array.make (n + 1) 0 in
  let carry = ref 0 in
  for i = 0 to n - 1 do
    let s = (if i < la then a.(i) else 0) + (if i < lb then b.(i) else 0) + !carry in
    out.(i) <- s land mask;
    carry := s lsr base_bits
  done;
  out.(n) <- !carry;
  nat_trim out

(* Requires a >= b. *)
let nat_sub a b =
  let la = Array.length a and lb = Array.length b in
  let out = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let d = a.(i) - (if i < lb then b.(i) else 0) - !borrow in
    if d < 0 then begin
      out.(i) <- d + base;
      borrow := 1
    end
    else begin
      out.(i) <- d;
      borrow := 0
    end
  done;
  if !borrow <> 0 then invalid_arg "Q.nat_sub: negative result";
  nat_trim out

let nat_mul a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then nat_zero
  else begin
    let out = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let carry = ref 0 in
      let ai = a.(i) in
      for j = 0 to lb - 1 do
        let t = out.(i + j) + (ai * b.(j)) + !carry in
        out.(i + j) <- t land mask;
        carry := t lsr base_bits
      done;
      let k = ref (i + lb) in
      while !carry <> 0 do
        let t = out.(!k) + !carry in
        out.(!k) <- t land mask;
        carry := t lsr base_bits;
        incr k
      done
    done;
    nat_trim out
  end

let nat_shift_left m bits =
  if bits = 0 || nat_is_zero m then m
  else begin
    let limbs = bits / base_bits and rem = bits mod base_bits in
    let lm = Array.length m in
    let out = Array.make (lm + limbs + 1) 0 in
    let carry = ref 0 in
    for i = 0 to lm - 1 do
      let t = (m.(i) lsl rem) lor !carry in
      out.(i + limbs) <- t land mask;
      carry := t lsr base_bits
    done;
    out.(lm + limbs) <- !carry;
    nat_trim out
  end

(* ---------------- dyadic rationals ---------------- *)

type t = { sign : int; mag : int array; exp : int }

let zero = { sign = 0; mag = nat_zero; exp = 0 }

(* Canonical form: zero has sign 0 and exp 0; otherwise shift whole
   trailing zero limbs into the exponent to bound growth. *)
let make sign mag exp =
  if nat_is_zero mag || sign = 0 then zero
  else begin
    let k = ref 0 in
    let lm = Array.length mag in
    while !k < lm && mag.(!k) = 0 do
      incr k
    done;
    let mag = if !k = 0 then mag else Array.sub mag !k (lm - !k) in
    { sign; mag; exp = exp + (!k * base_bits) }
  end

let of_int v =
  if v = 0 then zero
  else if v > 0 then make 1 (nat_of_int v) 0
  else make (-1) (nat_of_int (-v)) 0

let of_float_opt f =
  let bits = Int64.bits_of_float f in
  let biased = Int64.to_int (Int64.logand (Int64.shift_right_logical bits 52) 0x7FFL) in
  let frac = Int64.to_int (Int64.logand bits 0xF_FFFF_FFFF_FFFFL) in
  let sign = if Int64.compare bits 0L < 0 then -1 else 1 in
  if biased = 0x7FF then None (* nan or infinity *)
  else if biased = 0 then
    (* subnormal (or zero when frac = 0): frac * 2^-1074 *)
    Some (make sign (nat_of_int frac) (-1074))
  else Some (make sign (nat_of_int (frac + (1 lsl 52))) (biased - 1075))

let of_float f =
  match of_float_opt f with
  | Some q -> q
  | None -> invalid_arg "Q.of_float: not finite"

let sign t = t.sign

let neg t = { t with sign = -t.sign }

let is_zero t = t.sign = 0

(* Align two magnitudes to the smaller exponent. *)
let align a b =
  let e = min a.exp b.exp in
  let ma = nat_shift_left a.mag (a.exp - e) in
  let mb = nat_shift_left b.mag (b.exp - e) in
  (ma, mb, e)

let add a b =
  if a.sign = 0 then b
  else if b.sign = 0 then a
  else begin
    let ma, mb, e = align a b in
    if a.sign = b.sign then make a.sign (nat_add ma mb) e
    else begin
      match nat_cmp ma mb with
      | 0 -> zero
      | c when c > 0 -> make a.sign (nat_sub ma mb) e
      | _ -> make b.sign (nat_sub mb ma) e
    end
  end

let sub a b = add a (neg b)

let mul a b =
  if a.sign = 0 || b.sign = 0 then zero
  else make (a.sign * b.sign) (nat_mul a.mag b.mag) (a.exp + b.exp)

let compare a b =
  if a.sign <> b.sign then Stdlib.compare a.sign b.sign
  else if a.sign = 0 then 0
  else begin
    let ma, mb, _ = align a b in
    a.sign * nat_cmp ma mb
  end

let equal a b = compare a b = 0

let to_string t =
  if t.sign = 0 then "0"
  else begin
    let buf = Buffer.create 32 in
    if t.sign < 0 then Buffer.add_char buf '-';
    Buffer.add_string buf "0x";
    (* Hex digits of the magnitude, most significant first: regroup the
       30-bit limbs through a bit accumulator. *)
    let digits = ref [] in
    let acc = ref 0 and acc_bits = ref 0 in
    Array.iter
      (fun limb ->
        acc := !acc lor (limb lsl !acc_bits);
        acc_bits := !acc_bits + base_bits;
        while !acc_bits >= 4 do
          digits := (!acc land 0xF) :: !digits;
          acc := !acc lsr 4;
          acc_bits := !acc_bits - 4
        done)
      t.mag;
    if !acc_bits > 0 then digits := !acc :: !digits;
    let rec drop_zeros = function 0 :: (_ :: _ as tl) -> drop_zeros tl | ds -> ds in
    let digits = match drop_zeros !digits with [] -> [ 0 ] | ds -> ds in
    List.iter (fun d -> Buffer.add_char buf "0123456789abcdef".[d]) digits;
    if t.exp <> 0 then Buffer.add_string buf (Printf.sprintf "*2^%d" t.exp);
    Buffer.contents buf
  end
