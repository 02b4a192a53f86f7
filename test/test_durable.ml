(* The durable-record codec shared by the three stores: the CRC, the
   sealed-record corruption matrix, crash-consistent publication, and
   one case per store (checkpoint, engine snapshot, journal) showing
   that damage reaches that store's own classification. *)

module Durable = Tpdbt_dbt.Durable
module Engine = Tpdbt_dbt.Engine
module Snap = Tpdbt_dbt.Exec_snapshot
module Error = Tpdbt_dbt.Error
module Runner = Tpdbt_experiments.Runner
module Checkpoint = Tpdbt_experiments.Checkpoint
module Journal = Tpdbt_serve.Journal
module Spec = Tpdbt_workloads.Spec

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

let with_temp_dir f =
  let dir = Filename.temp_file "tpdbt-durable" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let rec rm path =
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
  in
  Fun.protect ~finally:(fun () -> rm dir) (fun () -> f dir)

let show = function
  | Durable.Payload p -> Printf.sprintf "payload %S" p
  | Durable.Stale_version l -> Printf.sprintf "stale %S" l
  | Durable.Corrupt r -> Printf.sprintf "corrupt %S" r

let flip text i bit =
  let b = Bytes.of_string text in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)));
  Bytes.to_string b

(* ------------------------------------------------------------------ *)
(* The codec                                                            *)
(* ------------------------------------------------------------------ *)

let test_crc_reference_vector () =
  (* The standard CRC-32 check value. *)
  checks "crc32 of 123456789" "cbf43926" (Durable.crc_hex "123456789");
  checks "crc32 of empty" "00000000" (Durable.crc_hex "")

let magic = "TPDBT-TEST 2"
let payload = "bench x\ncounters 0x1p+0 1 2 3\nend\n"
let sealed = Durable.seal ~magic payload

let test_unseal_corruption_matrix () =
  let unseal = Durable.unseal ~magic in
  let expect name want text = checks name (show want) (show (unseal text)) in
  expect "round trip" (Durable.Payload payload) sealed;
  expect "empty payload round trip" (Durable.Payload "")
    (Durable.seal ~magic "");
  expect "empty input" (Durable.Corrupt "empty file") "";
  expect "whitespace only" (Durable.Corrupt "empty file") " \n\t\n";
  expect "missing newline" (Durable.Corrupt "missing newline after magic")
    magic;
  expect "missing crc header" (Durable.Corrupt "missing crc header")
    (magic ^ "\ncrc 0");
  expect "foreign magic" (Durable.Corrupt "unrecognised header")
    ("TPDBT-OTHER 2" ^ String.sub sealed 12 (String.length sealed - 12));
  expect "stale magic" (Durable.Stale_version "TPDBT-TEST 1")
    ("TPDBT-TEST 1" ^ String.sub sealed 12 (String.length sealed - 12));
  List.iter
    (fun header ->
      expect header (Durable.Corrupt "malformed crc header")
        (magic ^ "\n" ^ header ^ "\n" ^ payload))
    [
      "crc 00000000";
      "crc 00000000 x";
      "crc 00000000 -1";
      "crc 00000000 1 2";
      "sum 00000000 1";
    ];
  expect "crc mismatch"
    (Durable.Corrupt
       (Printf.sprintf "crc mismatch: header 00000000, payload %s"
          (Durable.crc_hex payload)))
    (Printf.sprintf "%s\ncrc 00000000 %d\n%s" magic (String.length payload)
       payload);
  expect "trailing garbage"
    (Durable.Corrupt "trailing garbage: 1 bytes past the payload")
    (sealed ^ "x");
  (* Truncation at every byte: never accepted, never mistaken for a
     stale version. *)
  for k = 0 to String.length sealed - 1 do
    match unseal (String.sub sealed 0 k) with
    | Durable.Corrupt _ -> ()
    | other ->
        Alcotest.failf "truncation to %d bytes classified %s" k (show other)
  done;
  (* A single-bit flip anywhere is never accepted.  Only a flip in the
     magic line's version suffix may read as a stale version. *)
  let version_start = String.rindex magic ' ' + 1 in
  String.iteri
    (fun i _ ->
      for bit = 0 to 7 do
        match unseal (flip sealed i bit) with
        | Durable.Corrupt _ -> ()
        | Durable.Stale_version _
          when i >= version_start && i < String.length magic ->
            ()
        | other ->
            Alcotest.failf "bit %d of byte %d flipped: classified %s" bit i
              (show other)
      done)
    sealed

let test_write_atomic () =
  with_temp_dir (fun dir ->
      let sub = Filename.concat dir "store" in
      let path = Filename.concat sub "entry" in
      Durable.write_atomic path sealed;
      checks "creates the directory and publishes" sealed
        (Durable.read_file path);
      Durable.write_atomic path "second";
      checks "replaces an existing file" "second" (Durable.read_file path);
      checkb "no temp residue" true
        (Array.for_all
           (fun f -> not (Filename.check_suffix f ".tmp"))
           (Sys.readdir sub)))

(* Calls [f] on [payload] with each integer word, in turn, replaced by
   [by]; words are separated by spaces and newlines. *)
let each_int_word_replaced ~by payload f =
  let lines = String.split_on_char '\n' payload in
  List.iteri
    (fun i line ->
      let words = String.split_on_char ' ' line in
      List.iteri
        (fun j w ->
          if int_of_string_opt w <> None then
            let line' =
              String.concat " "
                (List.mapi (fun k w -> if k = j then by else w) words)
            in
            f
              (String.concat "\n"
                 (List.mapi (fun k l -> if k = i then line' else l) lines)))
        words)
    lines

(* ------------------------------------------------------------------ *)
(* Damage reaches each store's classification                           *)
(* ------------------------------------------------------------------ *)

let mini =
  {
    Spec.name = "durable-mini";
    suite = `Int;
    units =
      [
        Spec.Branch
          { prob = Spec.prob 0.8 ~train:0.6; straight = 2; copies = 2 };
        Spec.Loop { trip = Spec.trip 6; jitter = 1; body = 2; copies = 1 };
      ];
    ref_iters = 2000;
    train_iters = 500;
    ref_seed = 3L;
    train_seed = 4L;
  }

let mini_thresholds = [ ("100", 1) ]

(* The byte in the middle of a sealed text, bit-flipped: the store must
   report exactly the reason the codec found. *)
let damaged ~magic text =
  let bad = flip text (String.length text / 2) 3 in
  match Durable.unseal ~magic bad with
  | Durable.Corrupt reason -> (bad, reason)
  | other -> Alcotest.failf "codec accepted damage: %s" (show other)

let test_checkpoint_store_classifies () =
  let data =
    match Runner.run_benchmark_result ~thresholds:mini_thresholds mini with
    | Ok d -> d
    | Error e -> Alcotest.fail (Error.to_string e)
  in
  let bad, reason =
    damaged ~magic:"TPDBT-CKPT 4" (Checkpoint.data_to_string data)
  in
  match Checkpoint.data_of_string ~thresholds:mini_thresholds mini bad with
  | Checkpoint.Corrupt r ->
      checks "checkpoint reports the codec's reason" reason r
  | _ -> Alcotest.fail "damaged checkpoint not classified corrupt"

let test_snapshot_classifies () =
  let program =
    Tpdbt_isa.Assembler.assemble_exn
      "movi r1, 500\nloop:\n subi r1, r1, 1\n bgt r1, r0, loop\n halt"
  in
  let config = Engine.config ~threshold:2 ~snapshot_every:100 () in
  let eng = Engine.create ~config ~seed:1L program in
  checkb "suspended mid-run" true (Engine.suspended (Engine.run eng));
  let text = Snap.to_string ~config ~program (Engine.capture eng) in
  let bad, reason = damaged ~magic:"TPDBT-SNAP 1" text in
  match Snap.of_string bad with
  | Snap.Corrupt r -> checks "snapshot reports the codec's reason" reason r
  | _ -> Alcotest.fail "damaged snapshot not classified corrupt"

let test_journal_classifies () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "journal" in
      let j, _ = Journal.open_ ~path in
      Journal.append j (Journal.Sweep_begin { id = 1; benches = [ "a" ] });
      Journal.append j (Journal.Sweep_begin { id = 2; benches = [ "b" ] });
      Journal.close j;
      let text = Durable.read_file path in
      (* Flip a byte of the last record's payload: its CRC no longer
         matches, so recovery keeps the first record and truncates the
         torn tail. *)
      let oc = open_out_bin path in
      output_string oc (flip text (String.length text - 2) 0);
      close_out oc;
      let j, r = Journal.open_ ~path in
      Journal.close j;
      checki "records before the damage survive" 1 r.Journal.records;
      checki "damage reported as torn" 1 r.Journal.torn;
      checkb "only the intact sweep is in flight" true
        (r.Journal.inflight = [ (1, [ "a" ]) ]))

let suite =
  [
    Alcotest.test_case "crc reference vector" `Quick test_crc_reference_vector;
    Alcotest.test_case "unseal corruption matrix" `Quick
      test_unseal_corruption_matrix;
    Alcotest.test_case "write_atomic publishes" `Quick test_write_atomic;
    Alcotest.test_case "checkpoint store classifies damage" `Quick
      test_checkpoint_store_classifies;
    Alcotest.test_case "snapshot classifies damage" `Quick
      test_snapshot_classifies;
    Alcotest.test_case "journal classifies damage" `Quick
      test_journal_classifies;
  ]
