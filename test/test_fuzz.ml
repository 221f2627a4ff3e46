(* Fuzz properties: every textual parser in the trust path must reject
   arbitrary and mutated input with its documented typed error —
   [Failure] for the parsers, [Error] for [Engine.resume] and
   [Engine.journal_runs] — and never
   let [Invalid_argument], [Not_found], out-of-bounds or an allocation
   blow-up escape. *)

module Journal = Ivan_resilience.Journal
module Engine = Ivan_bab.Engine
module Heuristic = Ivan_bab.Heuristic
module Analyzer = Ivan_analyzer.Analyzer
module Serialize = Ivan_nn.Serialize
module Vnnlib = Ivan_spec.Vnnlib
module Cert = Ivan_cert.Cert

(* A mutation of a valid base document: truncate, flip a byte, delete a
   slice, duplicate a slice, or splice in noise — the shapes a crash,
   a bad disk or a hostile editor actually produces. *)
let mutant base =
  let open QCheck.Gen in
  let n = String.length base in
  let truncate = map (fun k -> String.sub base 0 k) (int_bound n) in
  let flip =
    map2
      (fun pos mask ->
        if n = 0 then base
        else begin
          let b = Bytes.of_string base in
          let pos = pos mod n in
          Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor (1 + mask)));
          Bytes.to_string b
        end)
      (int_bound (max 0 (n - 1)))
      (int_bound 254)
  in
  let delete =
    map2
      (fun pos len ->
        if n = 0 then base
        else begin
          let pos = pos mod n in
          let len = min len (n - pos) in
          String.sub base 0 pos ^ String.sub base (pos + len) (n - pos - len)
        end)
      (int_bound (max 0 (n - 1)))
      (int_bound 40)
  in
  let duplicate =
    map2
      (fun pos len ->
        if n = 0 then base
        else begin
          let pos = pos mod n in
          let len = min len (n - pos) in
          String.sub base 0 (pos + len) ^ String.sub base pos (n - pos)
        end)
      (int_bound (max 0 (n - 1)))
      (int_bound 40)
  in
  let splice =
    map2
      (fun pos noise ->
        let pos = if n = 0 then 0 else pos mod n in
        String.sub base 0 pos ^ noise ^ String.sub base pos (n - pos))
      (int_bound (max 0 (n - 1)))
      (string_size ~gen:printable (int_bound 30))
  in
  frequency [ (2, truncate); (3, flip); (2, delete); (1, duplicate); (2, splice) ]

let arbitrary_doc base =
  QCheck.make ~print:String.escaped
    (QCheck.Gen.frequency
       [
         (4, mutant base);
         (1, QCheck.Gen.string_size ~gen:QCheck.Gen.char (QCheck.Gen.int_bound 200));
       ])

(* Accept a normal result or [Failure]; anything else is the bug. *)
let total_modulo_failure parse input =
  match parse input with _ -> true | exception Failure _ -> true

let fuzz ~name ?(count = 300) base parse =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name ~count (arbitrary_doc base) (total_modulo_failure parse))

(* --- base documents -------------------------------------------------- *)

let net () = Fixtures.paper_net ()
let prop () = Fixtures.paper_prop_with_offset 1.7

let net_doc = lazy (Serialize.to_string (net ()))

let vnnlib_doc =
  lazy
    ("; fuzz base\n"
    ^ "(declare-const X_0 Real)\n(declare-const X_1 Real)\n"
    ^ "(declare-const Y_0 Real)\n"
    ^ "(assert (>= X_0 0.0))\n(assert (<= X_0 1.0))\n"
    ^ "(assert (>= X_1 0.0))\n(assert (<= X_1 1.0))\n"
    ^ "(assert (>= (* -1.0 Y_0) 1.7))\n")

(* The Checkpoint payload a journaled run starts from, seeded, as an
   incremental run is, with the bounded tree of an earlier run (here one
   cut after three calls). *)
let checkpoint_payload =
  lazy
    (let create ?config ?journal ?initial_tree () =
       Engine.create
         ~analyzer:(Analyzer.zonotope ())
         ~heuristic:Heuristic.input_smear ?config ?journal ?initial_tree ~net:(net ())
         ~prop:(prop ()) ()
     in
     let budget = { Engine.max_analyzer_calls = 3; max_seconds = infinity } in
     let earlier = Engine.run (create ~config:{ Engine.default_config with budget } ()) in
     let buf = Buffer.create 2048 in
     ignore (create ~journal:(Journal.to_buffer buf) ~initial_tree:earlier.Engine.tree ());
     match (Journal.scan (Buffer.contents buf)).Journal.records with
     | [ { Journal.kind = Journal.Header; _ }; { Journal.kind = Journal.Checkpoint; payload } ] ->
         payload
     | _ -> Alcotest.fail "a run opens with one Header and one Checkpoint frame")

let artifact_doc =
  lazy
    (let run =
       Engine.run
         (Engine.create
            ~analyzer:(Analyzer.lp_triangle ~warm:false ~certify:true ())
            ~heuristic:Heuristic.zono_coeff
            ~config:{ Engine.default_config with certify = true }
            ~net:(net ())
            ~prop:(prop ()) ())
     in
     match run.Engine.artifact with
     | Some a -> Cert.Artifact.to_string a
     | None -> Alcotest.fail "certified run produced no artifact")

let journal_doc =
  lazy
    (let buf = Buffer.create 2048 in
     let journal = Journal.to_buffer buf in
     let engine =
       Engine.create
         ~analyzer:(Analyzer.zonotope ())
         ~heuristic:Heuristic.input_smear ~journal ~net:(net ())
         ~prop:(prop ()) ()
     in
     ignore (Engine.run engine);
     Journal.close journal;
     Buffer.contents buf)

(* --- properties ------------------------------------------------------ *)

let serialize_fuzz () = fuzz ~name:"Serialize.of_string" (Lazy.force net_doc) Serialize.of_string

let vnnlib_fuzz () =
  fuzz ~name:"Vnnlib.parse" (Lazy.force vnnlib_doc) (Vnnlib.parse ~name:"fuzz")

let artifact_fuzz () =
  fuzz ~name:"Cert.Artifact.of_string" ~count:150 (Lazy.force artifact_doc)
    Cert.Artifact.of_string

(* [resume] is total by contract: Ok or Error, no exception at all. *)
let resume bytes =
  match
    Engine.resume
      ~analyzer:(Analyzer.zonotope ())
      ~heuristic:Heuristic.input_smear ~net:(net ()) ~prop:(prop ()) bytes
  with
  | Ok _ | Error _ -> ()

(* Mutants of the payload are re-framed behind a valid Header: the frame
   CRC would otherwise reject every one before the payload parser saw
   it. *)
let checkpoint_fuzz () =
  let header =
    Journal.encode_frame Journal.Header (Engine.fingerprint ~net:(net ()) ~prop:(prop ()))
  in
  fuzz ~name:"Engine.resume checkpoint payload" ~count:150 (Lazy.force checkpoint_payload)
    (fun payload -> resume (header ^ Journal.encode_frame Journal.Checkpoint payload))

let journal_fuzz () =
  fuzz ~name:"Engine.resume journal bytes" ~count:150 (Lazy.force journal_doc) resume

(* [journal_runs] is total too: mutants of a journaled Step payload,
   re-framed behind a valid Header and Checkpoint, read as Ok or Error
   and never raise. *)
let journal_runs_fuzz () =
  let records = (Journal.scan (Lazy.force journal_doc)).Journal.records in
  let step = List.find (fun (r : Journal.record) -> r.kind = Journal.Step) records in
  let run = Journal.encode_frame Journal.Header "fp" ^ Journal.encode_frame Journal.Checkpoint "" in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"Engine.journal_runs step payload" ~count:300
       (arbitrary_doc step.Journal.payload)
       (fun payload ->
         match Engine.journal_runs (run ^ Journal.encode_frame Journal.Step payload) with
         | Ok _ | Error _ -> true))

let scan_total =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"Journal.scan accounts for every byte" ~count:500
       QCheck.(string_gen Gen.char)
       (fun s ->
         let r = Journal.scan s in
         r.Journal.valid_bytes + r.Journal.dropped_bytes = String.length s))

let suite =
  [
    serialize_fuzz ();
    vnnlib_fuzz ();
    artifact_fuzz ();
    checkpoint_fuzz ();
    journal_fuzz ();
    journal_runs_fuzz ();
    scan_total;
  ]
