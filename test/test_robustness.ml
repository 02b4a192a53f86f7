(* Robustness of supervised sweeps: engine step deadlines, the
   checkpoint corruption matrix (truncation, bit flips, stale versions,
   empty and garbage-trailed files are classified, re-run and repaired
   byte-identically at every job count), and the chaos harness's
   deterministic survival of combined task/worker/storage faults. *)

module Error = Tpdbt_dbt.Error
module Sup = Tpdbt_parallel.Supervisor
module Runner = Tpdbt_experiments.Runner
module Checkpoint = Tpdbt_experiments.Checkpoint
module Campaign = Tpdbt_experiments.Campaign
module Spec = Tpdbt_workloads.Spec

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

let job_counts = [ 1; 2; 4 ]

let mini ?(iters = 3000) name =
  {
    Spec.name;
    suite = `Int;
    units =
      [
        Spec.Branch { prob = Spec.prob 0.8 ~train:0.6; straight = 2; copies = 2 };
        Spec.Loop { trip = Spec.trip 6; jitter = 1; body = 2; copies = 1 };
      ];
    ref_iters = iters;
    train_iters = 800;
    ref_seed = 3L;
    train_seed = 4L;
  }

let mini_thresholds = [ ("100", 1); ("1k", 10) ]

let store dir = Checkpoint.store ~thresholds:mini_thresholds ~dir ()

let mini_benches () =
  [
    mini "rob-a";
    mini ~iters:4000 "rob-b";
    mini ~iters:2000 "rob-c";
    mini ~iters:3500 "rob-d";
    mini ~iters:2500 "rob-e";
  ]

let serialize_sweep sweep =
  String.concat "\n" (List.map Checkpoint.data_to_string sweep.Runner.data)

let with_temp_dir f =
  let dir = Filename.temp_file "tpdbt-rob" "" in
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

(* ------------------------------------------------------------------ *)
(* Engine deadlines                                                     *)
(* ------------------------------------------------------------------ *)

let test_deadline_exceeded () =
  let bench = mini "rob-deadline" in
  (match Runner.run_benchmark_result ~thresholds:mini_thresholds bench with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("clean run failed: " ^ Error.to_string e));
  match
    Runner.run_benchmark_result ~thresholds:mini_thresholds ~deadline:500
      bench
  with
  | Ok _ -> Alcotest.fail "a 500-step deadline should have fired"
  | Error (Error.Deadline_exceeded { steps; deadline }) ->
      checki "recorded deadline" 500 deadline;
      checkb "steps past the deadline" true (steps >= deadline);
      checkb "deadline errors are fatal" true
        (Error.fatal (Error.Deadline_exceeded { steps; deadline }));
      (* ... unlike the cooperative budget, which only truncates. *)
      checkb "budget errors stay non-fatal" false
        (Error.fatal (Error.Limit_exceeded { steps; max_steps = deadline }))
  | Error e -> Alcotest.fail ("wrong error: " ^ Error.to_string e)

(* ------------------------------------------------------------------ *)
(* Checkpoint corruption matrix                                         *)
(* ------------------------------------------------------------------ *)

type damage = Truncate | Bitflip | Stale | Empty | Trailing

let damage_name = function
  | Truncate -> "truncate"
  | Bitflip -> "bitflip"
  | Stale -> "stale"
  | Empty -> "empty"
  | Trailing -> "trailing"

let apply_damage kind file =
  let text = read_file file in
  let len = String.length text in
  match kind with
  | Truncate -> write_file file (String.sub text 0 (len / 2))
  | Bitflip ->
      let b = Bytes.of_string text in
      let i = len / 2 in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40));
      write_file file (Bytes.to_string b)
  | Stale -> (
      match String.index_opt text '\n' with
      | None -> Alcotest.fail "checkpoint has no header line"
      | Some nl ->
          write_file file
            ("TPDBT-CKPT 2" ^ String.sub text nl (len - nl)))
  | Empty -> write_file file ""
  | Trailing -> write_file file (text ^ "junk\n")

let expected_class = function
  | Stale -> "stale"
  | Truncate | Bitflip | Empty | Trailing -> "corrupt"

let class_name = function
  | Checkpoint.Valid _ -> "valid"
  | Checkpoint.Missing -> "missing"
  | Checkpoint.Stale_version _ -> "stale"
  | Checkpoint.Corrupt _ -> "corrupt"

let test_corruption_classified () =
  let bench = mini "rob-classify" in
  with_temp_dir (fun dir ->
      let seed_store () =
        let _ =
          Runner.run_many_par ~thresholds:mini_thresholds ~jobs:1
            ~store:(store dir) [ bench ]
        in
        Checkpoint.path ~dir bench
      in
      List.iter
        (fun kind ->
          let file = seed_store () in
          checks "pristine checkpoint is valid" "valid"
            (class_name
               (Checkpoint.classify ~thresholds:mini_thresholds ~dir bench));
          apply_damage kind file;
          checks
            (damage_name kind ^ " classified")
            (expected_class kind)
            (class_name
               (Checkpoint.classify ~thresholds:mini_thresholds ~dir bench));
          checkb
            (damage_name kind ^ " not loadable")
            true
            (Checkpoint.load ~thresholds:mini_thresholds ~dir bench = None);
          Sys.remove file)
        [ Truncate; Bitflip; Stale; Empty; Trailing ];
      checks "no file is missing, not corrupt" "missing"
        (class_name
           (Checkpoint.classify ~thresholds:mini_thresholds ~dir bench)))

let test_data_of_string_rejects () =
  let bench = mini "rob-reject" in
  let data =
    match Runner.run_benchmark_result ~thresholds:mini_thresholds bench with
    | Ok d -> d
    | Error e -> Alcotest.fail (Error.to_string e)
  in
  let text = Checkpoint.data_to_string data in
  let classify s =
    class_name (Checkpoint.data_of_string ~thresholds:mini_thresholds bench s)
  in
  checks "round trip" "valid" (classify text);
  checks "empty string" "corrupt" (classify "");
  checks "whitespace only" "corrupt" (classify " \n \n");
  checks "trailing garbage" "corrupt" (classify (text ^ "junk\n"));
  checks "truncated" "corrupt"
    (classify (String.sub text 0 (String.length text / 2)));
  checks "older version" "stale"
    (classify "TPDBT-CKPT 2\nbench rob-reject\n");
  checks "foreign text" "corrupt" (classify "not a checkpoint at all\n");
  (* The corrupt constructor carries a diagnosable reason. *)
  (match Checkpoint.data_of_string ~thresholds:mini_thresholds bench "" with
  | Checkpoint.Corrupt reason -> checks "empty reason" "empty file" reason
  | _ -> Alcotest.fail "empty input not corrupt");
  (match
     Checkpoint.data_of_string ~thresholds:mini_thresholds bench (text ^ "x")
   with
  | Checkpoint.Corrupt reason ->
      checkb "trailing reason mentions garbage" true
        (String.length reason > 0
        && String.sub reason 0 (min 8 (String.length reason)) = "trailing")
  | _ -> Alcotest.fail "trailing input not corrupt");
  (* A CRC-valid payload with any one integer word made -1 (a negative
     count among them) or 0 (a duplicate region id among them) is
     classified, never raised out of the reader. *)
  let magic = "TPDBT-CKPT 4" in
  match Tpdbt_dbt.Durable.unseal ~magic text with
  | Tpdbt_dbt.Durable.Payload payload ->
      List.iter
        (fun by ->
          Test_durable.each_int_word_replaced ~by payload (fun damaged ->
              ignore (classify (Tpdbt_dbt.Durable.seal ~magic damaged))))
        [ "-1"; "0" ]
  | _ -> Alcotest.fail "checkpoint did not unseal"

let test_damaged_store_repaired_across_jobs () =
  (* Four checkpoints, two damaged: the supervised resume must classify
     the damage, re-run exactly the damaged benchmarks, and leave the
     sweep byte-identical to an undisturbed one — at every job count. *)
  let benches = mini_benches () in
  let reference =
    Runner.run_many_par ~thresholds:mini_thresholds ~jobs:1 benches
  in
  List.iter
    (fun jobs ->
      with_temp_dir (fun dir ->
          let _ =
            Runner.run_many_par ~thresholds:mini_thresholds ~jobs:1
              ~store:(store dir) benches
          in
          apply_damage Bitflip (Checkpoint.path ~dir (List.nth benches 1));
          apply_damage Truncate (Checkpoint.path ~dir (List.nth benches 3));
          let statuses = ref [] in
          let progress n s =
            statuses := (n, Runner.status_name s) :: !statuses
          in
          let sweep, supervision =
            Runner.run_many_supervised ~thresholds:mini_thresholds ~jobs
              ~progress ~store:(store dir) benches
          in
          checks
            (Printf.sprintf "corrupt entries found at -j %d" jobs)
            "rob-b,rob-d"
            (String.concat "," (List.map fst supervision.Runner.corrupt));
          List.iter
            (fun (n, expect) ->
              checkb
                (Printf.sprintf "%s %s at -j %d" n expect jobs)
                true
                (List.mem (n, expect) !statuses))
            [
              ("rob-a", "resumed");
              ("rob-b", "ok");
              ("rob-c", "resumed");
              ("rob-d", "ok");
            ];
          checki
            (Printf.sprintf "nothing poisoned at -j %d" jobs)
            0
            (List.length supervision.Runner.poisoned);
          checks
            (Printf.sprintf "repaired sweep byte-identical at -j %d" jobs)
            (serialize_sweep reference) (serialize_sweep sweep);
          (* The re-run rewrote valid checkpoints in place. *)
          List.iter
            (fun b ->
              checks
                (b.Spec.name ^ " checkpoint valid again")
                "valid"
                (class_name
                   (Checkpoint.classify ~thresholds:mini_thresholds ~dir b)))
            benches))
    job_counts

let test_save_durable_rename () =
  (* [save] publishes via temp file + fsync + rename + directory
     fsync.  The matrix above covers damaged {e contents}; this covers
     the publication itself: re-saving over an existing checkpoint
     (rename onto an existing name, both fsync paths taken) leaves a
     valid byte-identical file and no temp residue to be mistaken for
     a checkpoint. *)
  with_temp_dir (fun dir ->
      let bench = mini "rob-durable" in
      let sweep =
        Runner.run_many_par ~thresholds:mini_thresholds ~jobs:1
          ~store:(store dir) [ bench ]
      in
      let data = List.hd sweep.Runner.data in
      let file = Checkpoint.path ~dir bench in
      let first = read_file file in
      Checkpoint.save ~dir data;
      checks "re-save over existing file is byte-identical" first
        (read_file file);
      checks "still valid after re-save" "valid"
        (class_name
           (Checkpoint.classify ~thresholds:mini_thresholds ~dir bench));
      checkb "no temp residue" true
        (Array.for_all
           (fun f -> not (Filename.check_suffix f ".tmp"))
           (Sys.readdir dir)))

(* ------------------------------------------------------------------ *)
(* Worker crashes composed with checkpoint resume                       *)
(* ------------------------------------------------------------------ *)

let test_crashes_resume_checkpoints () =
  (* Two failure layers at once: half the store already has
     checkpoints (resume), and every fresh benchmark crashes its
     worker on first attempt.  The sweep must still converge
     byte-identically: resumed data untouched, crashed tasks retried
     to completion, nothing poisoned. *)
  let benches = mini_benches () in
  let reference =
    Runner.run_many_par ~thresholds:mini_thresholds ~jobs:1 benches
  in
  with_temp_dir (fun dir ->
      let seeded = List.filteri (fun i _ -> i < 2) benches in
      let _ =
        Runner.run_many_par ~thresholds:mini_thresholds ~jobs:1
          ~store:(store dir) seeded
      in
      let resumed = ref 0 in
      let progress _ = function
        | Runner.Resumed -> incr resumed
        | _ -> ()
      in
      (* Only fresh benchmarks become tasks, so this crashes exactly
         the un-checkpointed ones. *)
      let fresh = List.length benches - 2 in
      let run_task ~task:_ ~attempt spec =
        if attempt = 1 then raise Sup.Crash_worker
        else Runner.run_benchmark_result ~thresholds:mini_thresholds spec
      in
      let sweep, supervision =
        Runner.run_many_supervised ~thresholds:mini_thresholds ~jobs:2
          ~progress ~run_task ~store:(store dir) benches
      in
      let sup = supervision.Runner.sup in
      checki "two benchmarks resumed" 2 !resumed;
      checki "every fresh task crashed a worker" fresh sup.Sup.crashes;
      checki "crashes retried, nothing poisoned" 0
        (List.length supervision.Runner.poisoned);
      checks "crashed+resumed sweep byte-identical"
        (serialize_sweep reference) (serialize_sweep sweep);
      List.iter
        (fun b ->
          checks
            (b.Spec.name ^ " checkpoint valid after crashed run")
            "valid"
            (class_name
               (Checkpoint.classify ~thresholds:mini_thresholds ~dir b)))
        benches)

(* ------------------------------------------------------------------ *)
(* Supervised sweep equivalence and chaos determinism                   *)
(* ------------------------------------------------------------------ *)

let test_supervised_matches_plain_sweep () =
  let benches = mini_benches () in
  let reference =
    Runner.run_many_par ~thresholds:mini_thresholds ~jobs:1 benches
  in
  List.iter
    (fun jobs ->
      let sweep, supervision =
        Runner.run_many_supervised ~thresholds:mini_thresholds ~jobs benches
      in
      checks
        (Printf.sprintf "fault-free supervised sweep identical at -j %d" jobs)
        (serialize_sweep reference) (serialize_sweep sweep);
      checki "one attempt per task" (List.length benches)
        supervision.Runner.sup.Sup.attempts;
      checki "no retries" 0 supervision.Runner.sup.Sup.retries;
      checki "nothing poisoned" 0 supervision.Runner.sup.Sup.poisoned)
    job_counts

let test_chaos_deterministic_across_jobs () =
  (* The acceptance scenario: a worker crash, a checkpoint bit flip, a
     deadline-stalled workload and a kill at an arbitrary seeded guest
     instruction in one sweep.  The summary — poisoned, retried, crash,
     corrupt and resumed-from-snapshot sets included — must be
     byte-identical across -j 1/2/4 and repeated same-seed runs, and
     every non-poisoned benchmark (the resumed kill victim included)
     must match the fault-free sequential reference. *)
  let benches = mini_benches () in
  let run jobs =
    with_temp_dir (fun dir ->
        Campaign.chaos ~jobs ~benches ~thresholds:mini_thresholds ~dir
          ~seed:11L ())
  in
  let reference = run 1 in
  checkb "chaos survived" true (Campaign.chaos_ok reference);
  checki "a workload was poisoned (the stall)" 1
    (List.length reference.Campaign.poisoned_benches);
  checki "a checkpoint was corrupted" 1
    (List.length reference.Campaign.corrupt_checkpoints);
  checkb "a worker crashed" true (reference.Campaign.worker_crashes >= 1);
  checkb "tasks were retried" true (reference.Campaign.retried >= 1);
  checki "the kill victim resumed from its mid-run snapshot" 1
    (List.length reference.Campaign.resumed_from_snapshot);
  (let kill_victim =
     List.find_map
       (fun (n, f) -> if f = Campaign.Kill then Some n else None)
       reference.Campaign.injected_faults
   in
   checkb "the resumed benchmark is the kill victim" true
     (kill_victim = Some (List.hd reference.Campaign.resumed_from_snapshot));
   checkb "the kill victim survived byte-identically" true
     (match kill_victim with
     | Some n -> List.mem n reference.Campaign.survivors
     | None -> false));
  checki "survivors are everyone else"
    (List.length benches - 1)
    (List.length reference.Campaign.survivors);
  List.iter
    (fun jobs ->
      checks
        (Printf.sprintf "chaos summary identical at -j %d" jobs)
        (Campaign.chaos_to_json reference)
        (Campaign.chaos_to_json (run jobs)))
    (List.tl job_counts);
  checks "chaos summary identical on a repeated run"
    (Campaign.chaos_to_json reference)
    (Campaign.chaos_to_json (run 1));
  (* A different seed deals different faults but must still survive. *)
  let other =
    with_temp_dir (fun dir ->
        Campaign.chaos ~jobs:2 ~benches ~thresholds:mini_thresholds ~dir
          ~seed:12L ())
  in
  checkb "other seed survived" true (Campaign.chaos_ok other)

let suite =
  [
    Alcotest.test_case "deadline exceeded" `Quick test_deadline_exceeded;
    Alcotest.test_case "corruption classified" `Quick
      test_corruption_classified;
    Alcotest.test_case "data_of_string rejects damage" `Quick
      test_data_of_string_rejects;
    Alcotest.test_case "damaged store repaired across jobs" `Quick
      test_damaged_store_repaired_across_jobs;
    Alcotest.test_case "save survives durable re-publication" `Quick
      test_save_durable_rename;
    Alcotest.test_case "worker crashes composed with resume" `Quick
      test_crashes_resume_checkpoints;
    Alcotest.test_case "supervised matches plain sweep" `Quick
      test_supervised_matches_plain_sweep;
    Alcotest.test_case "chaos deterministic across jobs" `Quick
      test_chaos_deterministic_across_jobs;
  ]
