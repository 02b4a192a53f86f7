(* Mid-run snapshot/suspend/resume: the engine's capture/restore
   byte-identity, the serialized snapshot's corruption matrix, the v4
   suspended-checkpoint store's corruption matrix, the journal's
   snapshot breadcrumbs and damaged-header recovery, and the request
   client's deterministic backoff schedule. *)

module Engine = Tpdbt_dbt.Engine
module Snap = Tpdbt_dbt.Exec_snapshot
module Error = Tpdbt_dbt.Error
module Perf_model = Tpdbt_dbt.Perf_model
module Runner = Tpdbt_experiments.Runner
module Checkpoint = Tpdbt_experiments.Checkpoint
module Journal = Tpdbt_serve.Journal
module Spec = Tpdbt_workloads.Spec

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

let with_temp_dir f =
  let dir = Filename.temp_file "tpdbt-snap" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun file -> Sys.remove (Filename.concat dir file))
        (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

(* A guest program busy enough to cross the optimisation phase (two
   loops, a branchy body) yet cheap enough for a unit test. *)
let program =
  Tpdbt_isa.Assembler.assemble_exn
    {|
.entry main
main:
    movi r1, 400
    movi r2, 0
outer:
    movi r3, 12
inner:
    addi r2, r2, 3
    andi r4, r2, 7
    bgt r4, r0, skip
    addi r2, r2, 1
skip:
    subi r3, r3, 1
    bgt r3, r0, inner
    subi r1, r1, 1
    bgt r1, r0, outer
    out r2
    halt
|}

let config = Engine.config ~pool_trigger:4 ~threshold:2 ()
let seed = 11L

let uninterrupted () =
  let eng = Engine.create ~config ~seed program in
  (Engine.run eng, eng)

(* Re-enter [run] over every [Suspended], giving [f] the engine at each
   suspension; returns the final (non-suspended) result. *)
let run_through f eng =
  let rec go () =
    let r = Engine.run eng in
    match r.Engine.error with
    | Some (Error.Suspended _) ->
        f eng;
        go ()
    | _ -> r
  in
  go ()

let same_result what (a : Engine.result) (b : Engine.result) =
  checki (what ^ ": steps") a.Engine.steps b.Engine.steps;
  checkb (what ^ ": cycles") true
    (Float.equal a.Engine.counters.Perf_model.cycles
       b.Engine.counters.Perf_model.cycles);
  checkb (what ^ ": outputs") true (a.Engine.outputs = b.Engine.outputs);
  checki (what ^ ": regions formed")
    a.Engine.counters.Perf_model.regions_formed
    b.Engine.counters.Perf_model.regions_formed;
  checki (what ^ ": region entries")
    a.Engine.counters.Perf_model.region_entries
    b.Engine.counters.Perf_model.region_entries;
  checkb (what ^ ": error" ) true (a.Engine.error = b.Engine.error)

(* ------------------------------------------------------------------ *)
(* Engine capture/restore                                               *)
(* ------------------------------------------------------------------ *)

let test_snapshot_trigger_invisible () =
  let reference, _ = uninterrupted () in
  let sus_config = { config with Engine.snapshot_every = 1_000 } in
  let eng = Engine.create ~config:sus_config ~seed program in
  let suspensions = ref 0 in
  let final = run_through (fun _ -> incr suspensions) eng in
  checkb "the trigger actually fired" true (!suspensions > 2);
  same_result "snapshot trigger" reference final

let test_serialized_resume_identity () =
  let reference, _ = uninterrupted () in
  let sus_config =
    { config with Engine.deadline = Some 2_000; suspend_on_deadline = true }
  in
  let eng = Engine.create ~config:sus_config ~seed program in
  let first = Engine.run eng in
  checkb "suspended at the deadline" true (Engine.suspended first);
  (* Full round trip: capture -> text -> parse -> restore (without the
     trigger) -> complete. *)
  let text = Snap.to_string ~config:sus_config ~program (Engine.capture eng) in
  let resumed =
    match Snap.of_string text with
    | Snap.Snapshot parsed -> (
        match Snap.restore ~config ~program parsed with
        | Ok eng2 -> eng2
        | Error msg -> Alcotest.fail ("restore rejected: " ^ msg))
    | Snap.Stale_version v -> Alcotest.fail ("stale: " ^ v)
    | Snap.Corrupt reason -> Alcotest.fail ("corrupt: " ^ reason)
  in
  same_result "serialized resume" reference (Engine.run resumed)

let test_restore_refuses_mismatch () =
  let sus_config =
    { config with Engine.deadline = Some 2_000; suspend_on_deadline = true }
  in
  let eng = Engine.create ~config:sus_config ~seed program in
  ignore (Engine.run eng);
  let parsed =
    match
      Snap.of_string
        (Snap.to_string ~config:sus_config ~program (Engine.capture eng))
    with
    | Snap.Snapshot p -> p
    | _ -> Alcotest.fail "round trip failed"
  in
  (* A config that steers execution differently must be refused... *)
  let other = Engine.config ~pool_trigger:4 ~threshold:50 () in
  checkb "different threshold refused" true
    (Result.is_error (Snap.restore ~config:other ~program parsed));
  (* ...while trigger-only differences are accepted by design (the
     resume re-arms its own triggers). *)
  checkb "trigger-only change accepted" true
    (Result.is_ok (Snap.restore ~config ~program parsed));
  let other_program =
    Tpdbt_isa.Assembler.assemble_exn "movi r1, 1\nout r1\nhalt\n"
  in
  checkb "different program refused" true
    (Result.is_error (Snap.restore ~config ~program:other_program parsed))

(* ------------------------------------------------------------------ *)
(* Snapshot text corruption matrix                                      *)
(* ------------------------------------------------------------------ *)

let snapshot_text () =
  let sus_config =
    { config with Engine.deadline = Some 2_000; suspend_on_deadline = true }
  in
  let eng = Engine.create ~config:sus_config ~seed program in
  ignore (Engine.run eng);
  Snap.to_string ~config:sus_config ~program (Engine.capture eng)

let corrupt_of = function
  | Snap.Corrupt _ -> true
  | Snap.Snapshot _ | Snap.Stale_version _ -> false

let test_snapshot_text_corruption_matrix () =
  let text = snapshot_text () in
  (match Snap.of_string text with
  | Snap.Snapshot parsed ->
      let i = Snap.info parsed in
      checkb "info reports the suspension point" true (i.Snap.steps > 0);
      checkb "not halted mid-run" false i.Snap.halted
  | _ -> Alcotest.fail "intact snapshot rejected");
  checkb "zero-length is corrupt" true (corrupt_of (Snap.of_string ""));
  checkb "truncated is corrupt" true
    (corrupt_of
       (Snap.of_string (String.sub text 0 (String.length text * 2 / 3))));
  let flipped =
    let b = Bytes.of_string text in
    let i = (Bytes.length b * 3 / 4) + 1 in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x08));
    Bytes.to_string b
  in
  checkb "bit flip is corrupt" true (corrupt_of (Snap.of_string flipped));
  checkb "trailing garbage is corrupt" true
    (corrupt_of (Snap.of_string (text ^ "tail")));
  let stale =
    "TPDBT-SNAP 0"
    ^ String.sub text (String.length "TPDBT-SNAP 1")
        (String.length text - String.length "TPDBT-SNAP 1")
  in
  checkb "older version is stale, not corrupt" true
    (match Snap.of_string stale with
    | Snap.Stale_version _ -> true
    | Snap.Snapshot _ | Snap.Corrupt _ -> false);
  (* A CRC-valid payload with any one integer word made -1 (a negative
     count among them) or 0 is classified, never raised out of the
     reader. *)
  let payload =
    match Tpdbt_dbt.Durable.unseal ~magic:"TPDBT-SNAP 1" text with
    | Tpdbt_dbt.Durable.Payload p -> p
    | _ -> Alcotest.fail "snapshot did not unseal"
  in
  List.iter
    (fun by ->
      Test_durable.each_int_word_replaced ~by payload (fun damaged ->
          ignore
            (Snap.of_string
               (Tpdbt_dbt.Durable.seal ~magic:"TPDBT-SNAP 1" damaged))))
    [ "-1"; "0" ]

(* ------------------------------------------------------------------ *)
(* v4 suspended-checkpoint corruption matrix                            *)
(* ------------------------------------------------------------------ *)

let mini =
  {
    Spec.name = "snap-mini";
    suite = `Int;
    units =
      [
        Spec.Branch
          { prob = Spec.prob 0.8 ~train:0.6; straight = 2; copies = 2 };
        Spec.Loop { trip = Spec.trip 6; jitter = 1; body = 2; copies = 1 };
      ];
    ref_iters = 3000;
    train_iters = 800;
    ref_seed = 3L;
    train_seed = 4L;
  }

let mini_thresholds = [ ("100", 1); ("1k", 10) ]

let suspended_partial () =
  let captured = ref None in
  match
    Runner.run_benchmark_result ~thresholds:mini_thresholds ~deadline:2_000
      ~suspend_on_deadline:true
      ~on_snapshot:(fun p -> captured := Some p)
      mini
  with
  | Error (Error.Suspended _) -> (
      match !captured with
      | Some p -> p
      | None -> Alcotest.fail "suspension published no partial")
  | Ok _ -> Alcotest.fail "benchmark finished under a 2k deadline"
  | Error e -> Alcotest.fail ("unexpected error: " ^ Error.to_string e)

let classify_text text =
  Checkpoint.data_of_string ~thresholds:mini_thresholds mini text

let test_suspended_store_corruption_matrix () =
  with_temp_dir (fun dir ->
      let partial = suspended_partial () in
      Checkpoint.save_suspended ~dir partial;
      let path = Checkpoint.path ~dir mini in
      let text = read_file path in
      (match Checkpoint.classify ~thresholds:mini_thresholds ~dir mini with
      | Checkpoint.Valid (Checkpoint.Suspended p) ->
          checks "round-tripped snapshot text" partial.Runner.p_snapshot
            p.Runner.p_snapshot;
          checkb "interrupted stage preserved" true
            (p.Runner.p_next = partial.Runner.p_next)
      | _ -> Alcotest.fail "intact suspended checkpoint rejected");
      checkb "load_suspended sees it" true
        (Option.is_some
           (Checkpoint.load_suspended ~thresholds:mini_thresholds ~dir mini));
      checkb "load (finished) refuses it" true
        (Option.is_none
           (Checkpoint.load ~thresholds:mini_thresholds ~dir mini));
      let damage name text expect_stale =
        (match classify_text text with
        | Checkpoint.Corrupt _ ->
            checkb (name ^ " classified corrupt") false expect_stale
        | Checkpoint.Stale_version _ ->
            checkb (name ^ " classified stale") true expect_stale
        | Checkpoint.Valid _ -> Alcotest.fail (name ^ " accepted")
        | Checkpoint.Missing -> Alcotest.fail (name ^ " reported missing"));
        write_file path text;
        checkb (name ^ ": load_suspended refuses") true
          (Option.is_none
             (Checkpoint.load_suspended ~thresholds:mini_thresholds ~dir mini))
      in
      damage "zero-length" "" false;
      damage "truncation" (String.sub text 0 (String.length text / 2)) false;
      let flipped =
        let b = Bytes.of_string text in
        let i = Bytes.length b * 2 / 3 in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x04));
        Bytes.to_string b
      in
      damage "bit flip" flipped false;
      damage "trailing garbage" (text ^ "x") false;
      let v3 =
        "TPDBT-CKPT 3"
        ^ String.sub text (String.length "TPDBT-CKPT 4")
            (String.length text - String.length "TPDBT-CKPT 4")
      in
      damage "stale v3 magic" v3 true)

let test_suspended_resume_byte_identity () =
  with_temp_dir (fun dir ->
      let partial = suspended_partial () in
      Checkpoint.save_suspended ~dir partial;
      let resumed =
        match
          Runner.run_benchmark_result ~thresholds:mini_thresholds
            ?resume:
              (Checkpoint.load_suspended ~thresholds:mini_thresholds ~dir mini)
            mini
        with
        | Ok d -> d
        | Error e -> Alcotest.fail ("resume failed: " ^ Error.to_string e)
      in
      let straight =
        match
          Runner.run_benchmark_result ~thresholds:mini_thresholds mini
        with
        | Ok d -> d
        | Error e -> Alcotest.fail ("straight run failed: " ^ Error.to_string e)
      in
      checks "resumed data serializes byte-identically"
        (Checkpoint.data_to_string straight)
        (Checkpoint.data_to_string resumed))

(* ------------------------------------------------------------------ *)
(* Format fixtures                                                      *)
(* ------------------------------------------------------------------ *)

(* [test/fixtures/snap-mini.{finished,suspended}.ckpt] hold the bytes
   the TPDBT-CKPT 4 encoder wrote for snap-mini: the finished
   benchmark, and the middle snapshot of its last threshold stage
   (three stages done, an embedded TPDBT-SNAP 1 image with regions and
   cache entries).  They change only with a magic-version bump. *)
let fixture name = read_file (Filename.concat "fixtures" name)

let test_checkpoint_fixtures () =
  let snapshots = ref [] in
  let finished =
    match
      Runner.run_benchmark_result ~thresholds:mini_thresholds
        ~snapshot_every:1_000
        ~on_snapshot:(fun p -> snapshots := p :: !snapshots)
        mini
    with
    | Ok d -> d
    | Error e -> Alcotest.fail ("snap-mini failed: " ^ Error.to_string e)
  in
  let last_stage =
    List.filter
      (fun p -> List.length p.Runner.p_done = 3)
      (List.rev !snapshots)
  in
  let suspended = List.nth last_stage (List.length last_stage / 2) in
  let finished_text = fixture "snap-mini.finished.ckpt" in
  let suspended_text = fixture "snap-mini.suspended.ckpt" in
  checks "finished: encoder reproduces the fixture" finished_text
    (Checkpoint.data_to_string finished);
  with_temp_dir (fun dir ->
      Checkpoint.save_suspended ~dir suspended;
      checks "suspended: encoder reproduces the fixture" suspended_text
        (read_file (Checkpoint.path ~dir mini)));
  (match classify_text finished_text with
  | Checkpoint.Valid (Checkpoint.Finished d) ->
      checks "finished: decodes to the fresh result"
        (Checkpoint.data_to_string finished)
        (Checkpoint.data_to_string d);
      checkb "finished: same comparisons" true
        (compare
           (List.map (fun r -> r.Runner.comparison) d.Runner.runs)
           (List.map (fun r -> r.Runner.comparison) finished.Runner.runs)
        = 0)
  | _ -> Alcotest.fail "finished fixture does not classify Valid Finished");
  match classify_text suspended_text with
  | Checkpoint.Valid (Checkpoint.Suspended p) ->
      checkb "suspended: same thresholds" true
        (p.Runner.p_thresholds = suspended.Runner.p_thresholds);
      checkb "suspended: same done stages" true
        (List.map fst p.Runner.p_done = List.map fst suspended.Runner.p_done);
      List.iter2
        (fun (_, a) (_, b) -> same_result "suspended: done stage" a b)
        p.Runner.p_done suspended.Runner.p_done;
      checkb "suspended: same next stage" true
        (p.Runner.p_next = suspended.Runner.p_next);
      checks "suspended: same engine snapshot" suspended.Runner.p_snapshot
        p.Runner.p_snapshot
  | _ -> Alcotest.fail "suspended fixture does not classify Valid Suspended"

(* ------------------------------------------------------------------ *)
(* Journal: snapshot refs and damaged-header recovery                   *)
(* ------------------------------------------------------------------ *)

let test_journal_snapshot_refs () =
  let r = Journal.Snapshot_ref { id = 7; bench = "gzip" } in
  checkb "snapshot_ref round trip" true
    (Journal.record_of_string (Journal.record_to_string r) = Some r);
  checkb "snapshot_ref without bench rejected" true
    (Journal.record_of_string "snapshot_ref 7" = None);
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "journal" in
      let j, _ = Journal.open_ ~path in
      Journal.append j (Journal.Sweep_begin { id = 1; benches = [ "a"; "b" ] });
      Journal.append j (Journal.Snapshot_ref { id = 1; bench = "a" });
      Journal.append j (Journal.Snapshot_ref { id = 1; bench = "b" });
      (* A second snapshot of the same bench dedups to one ref. *)
      Journal.append j (Journal.Snapshot_ref { id = 1; bench = "a" });
      Journal.append j (Journal.Sweep_begin { id = 2; benches = [ "c" ] });
      Journal.append j (Journal.Snapshot_ref { id = 2; bench = "c" });
      Journal.close j;
      let j, r = Journal.open_ ~path in
      checkb "refs of in-flight sweeps survive, deduped, first-ref order"
        true
        (r.Journal.snapshot_refs = [ (1, "a"); (1, "b"); (2, "c") ]);
      (* Ending sweep 1 drops its refs... *)
      Journal.append j (Journal.Sweep_end { id = 1 });
      Journal.close j;
      let j, r = Journal.open_ ~path in
      checkb "ended sweep's refs dropped" true
        (r.Journal.snapshot_refs = [ (2, "c") ]);
      (* ...and a drain clears everything. *)
      Journal.append j Journal.Drained;
      Journal.close j;
      let j, r = Journal.open_ ~path in
      checkb "drain clears refs" true (r.Journal.snapshot_refs = []);
      checkb "drain clears inflight" true (r.Journal.inflight = []);
      Journal.close j)

let test_journal_zero_length_and_torn_header () =
  with_temp_dir (fun dir ->
      (* Zero-length file: not a valid journal (no header could have
         been written durably) — crash-only recovery starts over. *)
      let path = Filename.concat dir "empty" in
      write_file path "";
      let j, r = Journal.open_ ~path in
      checki "zero-length: nothing recovered" 0 r.Journal.records;
      checki "zero-length: reported as damage" 1 r.Journal.torn;
      Journal.append j (Journal.Sweep_begin { id = 1; benches = [ "x" ] });
      Journal.close j;
      let j, r = Journal.open_ ~path in
      checki "restarted journal is healthy" 1 r.Journal.records;
      checki "no damage after restart" 0 r.Journal.torn;
      Journal.close j;
      (* Torn header: a crash mid-write of the magic line itself. *)
      let torn = Filename.concat dir "torn" in
      write_file torn "TPDBT-JR";
      let j, r = Journal.open_ ~path:torn in
      checki "torn header: nothing recovered" 0 r.Journal.records;
      checki "torn header: reported as damage" 1 r.Journal.torn;
      checkb "torn header: inflight empty" true (r.Journal.inflight = []);
      Journal.close j)

(* ------------------------------------------------------------------ *)
(* Client backoff schedule                                              *)
(* ------------------------------------------------------------------ *)

let test_retry_delays_deterministic () =
  let a = Tpdbt_serve.Daemon.retry_delays ~retries:5 ~seed:42L in
  let b = Tpdbt_serve.Daemon.retry_delays ~retries:5 ~seed:42L in
  checkb "same seed, same schedule" true (a = b);
  checki "one delay per retry" 5 (List.length a);
  List.iteri
    (fun k d ->
      let base = 0.05 *. (2. ** float_of_int k) in
      checkb
        (Printf.sprintf "delay %d within jitter band" k)
        true
        (d >= 0.5 *. base && d < 1.5 *. base))
    a;
  checkb "distinct seeds decorrelate" true
    (a <> Tpdbt_serve.Daemon.retry_delays ~retries:5 ~seed:43L);
  checkb "no retries, no delays" true
    (Tpdbt_serve.Daemon.retry_delays ~retries:0 ~seed:42L = []);
  checkb "negative retries, no delays" true
    (Tpdbt_serve.Daemon.retry_delays ~retries:(-3) ~seed:42L = [])

let suite =
  [
    Alcotest.test_case "snapshot trigger is invisible" `Quick
      test_snapshot_trigger_invisible;
    Alcotest.test_case "serialized resume is byte-identical" `Quick
      test_serialized_resume_identity;
    Alcotest.test_case "restore refuses config/program mismatch" `Quick
      test_restore_refuses_mismatch;
    Alcotest.test_case "snapshot text corruption matrix" `Quick
      test_snapshot_text_corruption_matrix;
    Alcotest.test_case "suspended store corruption matrix" `Quick
      test_suspended_store_corruption_matrix;
    Alcotest.test_case "suspended resume byte identity" `Quick
      test_suspended_resume_byte_identity;
    Alcotest.test_case "checkpoint format fixtures" `Quick
      test_checkpoint_fixtures;
    Alcotest.test_case "journal snapshot refs" `Quick
      test_journal_snapshot_refs;
    Alcotest.test_case "journal zero-length and torn header" `Quick
      test_journal_zero_length_and_torn_header;
    Alcotest.test_case "retry delays deterministic" `Quick
      test_retry_delays_deterministic;
  ]
