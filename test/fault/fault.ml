(* Deterministic, seeded fault injection for resilience campaigns. *)

module Lp = Ivan_lp.Lp
module Analyzer = Ivan_analyzer.Analyzer
module Cert = Ivan_cert.Cert

exception Injected of string

type kind =
  | Lp_iteration_blowup
  | Lp_numerical
  | Nan_bounds
  | Inf_bounds
  | Latency of float
  | Transient of string
  | Cert_perturb_dual
  | Cert_drop

let kind_name = function
  | Lp_iteration_blowup -> "lp-iteration-blowup"
  | Lp_numerical -> "lp-numerical"
  | Nan_bounds -> "nan-bounds"
  | Inf_bounds -> "inf-bounds"
  | Latency _ -> "latency"
  | Transient _ -> "transient"
  | Cert_perturb_dual -> "cert-perturb-dual"
  | Cert_drop -> "cert-drop"

let all_kinds =
  [
    Lp_iteration_blowup;
    Lp_numerical;
    Nan_bounds;
    Inf_bounds;
    Latency 0.001;
    Transient "injected transient fault";
  ]

type site = Lp_solve | Analyzer_run

let site_tag = function Lp_solve -> 0 | Analyzer_run -> 1

type plan = {
  seed : int;
  lp_rate : float;
  analyzer_rate : float;
  kinds : kind array;
  at : (int * int, kind) Hashtbl.t;  (** (site tag, call index) -> forced fault *)
  mutable lp_calls : int;
  mutable analyzer_calls : int;
  mutable injected : int;
}

let plan ?(lp_rate = 0.0) ?(analyzer_rate = 0.0) ?(kinds = all_kinds) ?(at = []) ~seed () =
  let check name r =
    if not (r >= 0.0 && r <= 1.0) then
      invalid_arg (Printf.sprintf "Fault.plan: %s must lie in [0, 1]" name)
  in
  check "lp_rate" lp_rate;
  check "analyzer_rate" analyzer_rate;
  if kinds = [] then invalid_arg "Fault.plan: empty kind list";
  let schedule = Hashtbl.create (List.length at) in
  List.iter
    (fun (site, index, kind) ->
      if index < 0 then invalid_arg "Fault.plan: negative call index in at";
      Hashtbl.replace schedule (site_tag site, index) kind)
    at;
  {
    seed;
    lp_rate;
    analyzer_rate;
    kinds = Array.of_list kinds;
    at = schedule;
    lp_calls = 0;
    analyzer_calls = 0;
    injected = 0;
  }

let injected p = p.injected

let calls p = function Lp_solve -> p.lp_calls | Analyzer_run -> p.analyzer_calls

(* The whole schedule is a pure function of (seed, site, call index):
   [Hashtbl.hash] is deterministic across runs (it seeds from the value
   only), so a campaign replays identically from the same plan
   parameters.  Distinct salts decorrelate the fire decision from the
   kind choice. *)
let unit_float h = float_of_int (h land 0xFFFFF) /. 1048576.0

let fires p site n rate = rate > 0.0 && unit_float (Hashtbl.hash (p.seed, site_tag site, n, 17)) < rate

let pick_kind p site n =
  p.kinds.(Hashtbl.hash (p.seed, site_tag site, n, 31) mod Array.length p.kinds)

let decide p site =
  let n =
    match site with
    | Lp_solve ->
        let n = p.lp_calls in
        p.lp_calls <- n + 1;
        n
    | Analyzer_run ->
        let n = p.analyzer_calls in
        p.analyzer_calls <- n + 1;
        n
  in
  let rate = match site with Lp_solve -> p.lp_rate | Analyzer_run -> p.analyzer_rate in
  match Hashtbl.find_opt p.at (site_tag site, n) with
  | Some kind ->
      (* Explicit schedules trump the seeded rate: "the fault hits
         exactly the k-th call" is what edge-case tests need. *)
      p.injected <- p.injected + 1;
      Some kind
  | None ->
      if fires p site n rate then begin
        p.injected <- p.injected + 1;
        Some (pick_kind p site n)
      end
      else None

(* At the LP boundary only exceptions and latency are expressible: the
   solve hook cannot replace the result, so the bound-corruption kinds
   map onto {!Lp.Numerical_failure} (the closest observable effect of a
   NaN/inf-contaminated tableau). *)
let apply_lp_fault = function
  | Lp_iteration_blowup -> raise Lp.Iteration_limit
  | Lp_numerical -> raise (Lp.Numerical_failure "injected numerical failure")
  | Nan_bounds | Inf_bounds -> raise (Lp.Numerical_failure "injected non-finite tableau")
  | Latency s -> Unix.sleepf s
  | Transient msg -> raise (Injected msg)
  (* Certificates do not exist at the LP boundary (the hook fires before
     the solve); these kinds only act on outcomes and artifacts. *)
  | Cert_perturb_dual | Cert_drop -> ()

(* Flip the first sign-constrained multiplier out of its admissible
   half-space.  The exact checker enforces [y <= 0] on [Le] rows and
   [y >= 0] on [Ge] rows, so the result is unconditionally rejected —
   corruption can lose a certificate but never forge one that checks.
   [None] when every row is an equality (no sign condition to violate);
   callers then drop the certificate instead. *)
let perturbed_witness (evidence : Cert.evidence) =
  let corrupt y =
    let y = Array.copy y in
    let rows = evidence.Cert.snapshot.Cert.Snapshot.rows in
    let rec go i =
      if i >= Array.length y || i >= Array.length rows then None
      else
        match rows.(i).Cert.Snapshot.cmp with
        | Lp.Le ->
            y.(i) <- Float.abs y.(i) +. 1.0;
            Some y
        | Lp.Ge ->
            y.(i) <- -.(Float.abs y.(i) +. 1.0);
            Some y
        | Lp.Eq -> go (i + 1)
    in
    go 0
  in
  match evidence.Cert.witness with
  | Lp.Certificate.Dual y -> Option.map (fun y -> Lp.Certificate.Dual y) (corrupt y)
  | Lp.Certificate.Farkas y -> Option.map (fun y -> Lp.Certificate.Farkas y) (corrupt y)

let corrupt_evidence kind (evidence : Cert.evidence) =
  match kind with
  | Cert_drop -> None
  | Cert_perturb_dual -> (
      match perturbed_witness evidence with
      | Some witness -> Some { evidence with Cert.witness }
      | None -> None)
  | _ -> Some evidence

let corrupt_artifact kind (a : Cert.Artifact.t) =
  match (kind, a.Cert.Artifact.leaves) with
  | (Cert_perturb_dual | Cert_drop), (leaf : Cert.leaf) :: rest ->
      let leaves =
        match corrupt_evidence kind leaf.Cert.evidence with
        | Some evidence -> { leaf with Cert.evidence } :: rest
        | None -> rest
      in
      { a with Cert.Artifact.leaves }
  | _, _ -> a

let with_lp_faults p f =
  Lp.set_solve_hook
    (Some (fun _problem -> match decide p Lp_solve with None -> () | Some k -> apply_lp_fault k));
  Fun.protect ~finally:(fun () -> Lp.set_solve_hook None) f

let wrap_analyzer p a =
  let run net ~prop ~box ~splits =
    match decide p Analyzer_run with
    | None -> a.Analyzer.run net ~prop ~box ~splits
    | Some Lp_iteration_blowup -> raise Lp.Iteration_limit
    | Some Lp_numerical -> raise (Lp.Numerical_failure "injected numerical failure")
    | Some (Transient msg) -> raise (Injected msg)
    | Some (Latency s) ->
        Unix.sleepf s;
        a.Analyzer.run net ~prop ~box ~splits
    | Some Nan_bounds ->
        (* A corrupt "don't know" with a poisoned bound: the sanitation
           layer must reject it rather than record the NaN. *)
        { Analyzer.degraded_outcome with Analyzer.lb = nan }
    | Some Inf_bounds ->
        (* Corrupt only the reported bound, never the status: a
           fabricated [Verified] would let the injector itself break
           soundness.  A genuine [Verified] carrying [-inf] is exactly
           the inconsistency the sanitation layer must distrust. *)
        let o = a.Analyzer.run net ~prop ~box ~splits in
        { o with Analyzer.lb = neg_infinity }
    | Some ((Cert_perturb_dual | Cert_drop) as kind) ->
        (* Corrupt only the certificate evidence, never verdict or
           bound: the engine's emission-time check (float screen, then
           the exact fallback) must reject the damaged witness and count the leaf
           certificate-unavailable — a lost certificate, never a forged
           one. *)
        let o = a.Analyzer.run net ~prop ~box ~splits in
        { o with Analyzer.cert = Option.bind o.Analyzer.cert (corrupt_evidence kind) }
  in
  { a with Analyzer.run }
