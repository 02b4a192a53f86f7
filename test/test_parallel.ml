(* Tests for the domain-parallel sweep scheduler: pool mechanics, the
   byte-identical-at-every-job-count guarantee for threshold sweeps,
   cache sweeps and fault campaigns, checkpoint bytes and
   crash-mid-sweep resume, and the collector's single-writer
   invariant. *)

module Pool = Tpdbt_parallel.Pool
module Sup = Tpdbt_parallel.Supervisor
module Runner = Tpdbt_experiments.Runner
module Checkpoint = Tpdbt_experiments.Checkpoint
module Campaign = Tpdbt_experiments.Campaign
module Figures = Tpdbt_experiments.Figures
module Table = Tpdbt_experiments.Table
module Spec = Tpdbt_workloads.Spec
module Tel = Tpdbt_telemetry

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

(* Exercise the real parallel machinery even where the public default
   would short-circuit: every determinism test compares j = 1 (the
   sequential reference) against j = 2 and j = 4. *)
let job_counts = [ 1; 2; 4 ]

(* ------------------------------------------------------------------ *)
(* Pool                                                                 *)
(* ------------------------------------------------------------------ *)

let test_pool_map_identity () =
  let tasks = Array.init 37 (fun i -> i) in
  let expected = Array.map (fun i -> (i * i) + 1) tasks in
  List.iter
    (fun jobs ->
      let results, stats = Pool.map ~jobs (fun i -> (i * i) + 1) tasks in
      checkb
        (Printf.sprintf "results identical at -j %d" jobs)
        true
        (results = expected);
      checki "all tasks accounted" 37 stats.Pool.tasks)
    job_counts

let test_pool_empty_and_singleton () =
  let results, stats = Pool.map ~jobs:4 (fun i -> i) [||] in
  checkb "empty input" true (results = [||]);
  checki "no tasks" 0 stats.Pool.tasks;
  let results, stats = Pool.map ~jobs:4 (fun i -> i + 1) [| 41 |] in
  checkb "singleton" true (results = [| 42 |]);
  (* One task can never use more than one worker. *)
  checki "jobs clamped to task count" 1 stats.Pool.jobs

let test_pool_exception_deterministic () =
  (* Several tasks fail; the pool must still run every task, and then
     re-raise the lowest-indexed failure whatever the completion
     order. *)
  let tasks = Array.init 16 (fun i -> i) in
  List.iter
    (fun jobs ->
      let results = ref 0 in
      match
        Pool.map ~jobs
          ~on_result:(fun _ _ -> incr results)
          (fun i -> if i mod 5 = 3 then failwith (string_of_int i) else i)
          tasks
      with
      | _ -> Alcotest.fail "expected a raise"
      | exception Failure msg ->
          checks
            (Printf.sprintf "lowest-indexed failure at -j %d" jobs)
            "3" msg;
          checki
            (Printf.sprintf "every task that did not raise reported at -j %d"
               jobs)
            13 !results)
    job_counts

let test_pool_events_account () =
  let tasks = Array.init 12 (fun i -> i) in
  List.iter
    (fun jobs ->
      let started = Hashtbl.create 16 and finished = Hashtbl.create 16 in
      let stolen = ref 0 in
      let results_seen = ref 0 in
      let _, stats =
        Pool.map ~jobs
          ~on_event:(function
            | Pool.Start { task; _ } ->
                checkb "started once" false (Hashtbl.mem started task);
                Hashtbl.replace started task ()
            | Pool.Finish { task; _ } ->
                checkb "start before finish" true (Hashtbl.mem started task);
                Hashtbl.replace finished task ()
            | Pool.Steal { worker; victim; task } ->
                incr stolen;
                checkb "no self-steal" true (worker <> victim);
                checkb "stolen before start" false (Hashtbl.mem started task))
          ~on_result:(fun task v ->
            incr results_seen;
            checki "result matches task" (task * 2) v)
          (fun i -> i * 2)
          tasks
      in
      checki "every task started" 12 (Hashtbl.length started);
      checki "every task finished" 12 (Hashtbl.length finished);
      checki "every result delivered" 12 !results_seen;
      checki "steal events counted" !stolen stats.Pool.steals;
      if jobs = 1 then checki "sequential never steals" 0 stats.Pool.steals)
    job_counts

let test_pool_jobs_exceed_tasks () =
  (* More workers than tasks: jobs clamp to the task count, results
     stay canonical, and error propagation stays lowest-index even
     when the failing task is stolen. *)
  let tasks = [| 10; 20; 30 |] in
  let results, stats = Pool.map ~jobs:8 (fun i -> i + 1) tasks in
  checkb "results canonical" true (results = [| 11; 21; 31 |]);
  checki "jobs clamped to task count" 3 stats.Pool.jobs;
  (match
     Pool.map ~jobs:8 (fun i -> if i = 10 then failwith "t0" else i) tasks
   with
  | _ -> Alcotest.fail "expected a raise"
  | exception Failure msg -> checks "lowest-index failure wins" "t0" msg);
  (* With steals in play (8 workers over 32 tasks, several failing —
     including each worker's first steal candidates at the deque
     backs), the raise is still the lowest-indexed one and no failed
     task ever reaches on_result. *)
  let tasks = Array.init 32 (fun i -> i) in
  let delivered = ref [] in
  (match
     Pool.map ~jobs:8
       ~on_result:(fun task _ -> delivered := task :: !delivered)
       (fun i -> if i mod 7 = 3 then failwith (string_of_int i) else i)
       tasks
   with
  | _ -> Alcotest.fail "expected a raise"
  | exception Failure msg -> checks "lowest-index under steals" "3" msg);
  List.iter
    (fun task -> checkb "failed task never delivered" true (task mod 7 <> 3))
    !delivered

exception Callback_failed

let test_pool_callback_raise_joins_workers () =
  (* A collector callback that raises (a checkpoint [save] on a full
     disk, a progress hook) must not leave workers running the rest of
     the tasks after [map] has returned: no further task starts, the
     ones in flight finish, and only then does the exception escape. *)
  let running = Atomic.make 0 and started = Atomic.make 0 in
  let task i =
    Atomic.incr started;
    Atomic.incr running;
    Unix.sleepf 0.02;
    Atomic.decr running;
    i
  in
  match
    Pool.map ~jobs:2
      ~on_result:(fun _ _ -> raise Callback_failed)
      task (Array.init 8 Fun.id)
  with
  | _ -> Alcotest.fail "expected the callback's exception"
  | exception Callback_failed ->
      let at_raise = Atomic.get started in
      checki "no task still running" 0 (Atomic.get running);
      checkb "not every task started" true (at_raise < 8);
      (* a worker left behind would keep starting tasks *)
      Unix.sleepf 0.1;
      checki "no task starts after the raise" at_raise (Atomic.get started)

(* ------------------------------------------------------------------ *)
(* Supervisor                                                           *)
(* ------------------------------------------------------------------ *)

let sup_counts (stats : Sup.stats) =
  (stats.attempts, stats.retries, stats.poisoned, stats.crashes)

(* Retry/poison/crash counts must not depend on scheduling: compare
   them against the first job count exercised. *)
let check_counts_stable reference stats =
  match !reference with
  | None -> reference := Some (sup_counts stats)
  | Some c -> checkb "counts identical across jobs" true (c = sup_counts stats)

let test_supervisor_all_ok () =
  let tasks = Array.init 9 (fun i -> i) in
  let collector = (Domain.self () :> int) in
  List.iter
    (fun jobs ->
      let violations = ref 0 in
      let observe () =
        if (Domain.self () :> int) <> collector then incr violations
      in
      let outs, (stats : Sup.stats) =
        Sup.run ~jobs
          ~on_event:(fun _ -> observe ())
          ~on_result:(fun _ _ -> observe ())
          (fun ~attempt:_ i -> i * 3)
          tasks
      in
      checkb "all done" true
        (outs = Array.map (fun i -> Sup.Done (i * 3)) tasks);
      checki "one attempt each" 9 stats.attempts;
      checki "no retries" 0 stats.retries;
      checki "none poisoned" 0 stats.poisoned;
      checki "callbacks on the collector domain" 0 !violations)
    job_counts

let test_supervisor_retry_then_succeed () =
  (* Tasks 1 and 4 fail on attempts 1-2 and land on attempt 3 — under
     the default breaker (3 consecutive failures) they just squeak
     through. *)
  let tasks = Array.init 6 (fun i -> i) in
  let f ~attempt i =
    if i mod 3 = 1 && attempt <= 2 then failwith "flaky" else i + attempt
  in
  let reference = ref None in
  List.iter
    (fun jobs ->
      let retry_events = ref 0 in
      let outs, (stats : Sup.stats) =
        Sup.run ~jobs
          ~on_event:(function Sup.Retry _ -> incr retry_events | _ -> ())
          f tasks
      in
      checkb "flaky tasks recovered" true
        (outs
        = [| Done 1; Done 4; Done 3; Done 4; Done 7; Done 6 |]);
      checki "attempts" 10 stats.attempts;
      checki "retries" 4 stats.retries;
      checki "retry events" 4 !retry_events;
      checki "none poisoned" 0 stats.poisoned;
      check_counts_stable reference stats)
    job_counts

let test_supervisor_poison_breaker_vs_giveup () =
  let tasks = [| 0; 1; 2 |] in
  let f ~attempt:_ i = if i = 1 then failwith "always broken" else i in
  (* Default policy: the breaker (3 consecutive failures) trips before
     the 4-attempt budget runs out. *)
  List.iter
    (fun jobs ->
      let breaker = ref 0 and gaveup = ref 0 in
      let outs, (stats : Sup.stats) =
        Sup.run ~jobs
          ~on_event:(function
            | Sup.Breaker_opened _ -> incr breaker
            | Sup.Gave_up _ -> incr gaveup
            | _ -> ())
          f tasks
      in
      (match outs.(1) with
      | Sup.Poisoned { attempts; reason } ->
          checki "breaker after 3 attempts" 3 attempts;
          checkb "reason recorded" true
            (String.length reason > 0)
      | _ -> Alcotest.fail "task 1 should be poisoned");
      checki "breaker fired once" 1 !breaker;
      checki "no giveup" 0 !gaveup;
      checki "one poisoned" 1 stats.poisoned;
      checkb "others unaffected" true
        (outs.(0) = Sup.Done 0 && outs.(2) = Sup.Done 2))
    job_counts;
  (* Breaker effectively disabled: the retry budget gives up instead. *)
  let policy = { Sup.default_policy with breaker_after = 99 } in
  let gaveup = ref 0 in
  let outs, (stats : Sup.stats) =
    Sup.run ~jobs:2 ~policy
      ~on_event:(function Sup.Gave_up _ -> incr gaveup | _ -> ())
      f tasks
  in
  (match outs.(1) with
  | Sup.Poisoned { attempts; _ } -> checki "budget exhausted" 4 attempts
  | _ -> Alcotest.fail "task 1 should be poisoned");
  checki "giveup fired once" 1 !gaveup;
  checki "three retries" 3 stats.retries

let test_supervisor_crash_recovers () =
  (* Task 2 crashes on its first attempt, then succeeds on the retry:
     the sweep completes with no poisoning at every -j. *)
  let tasks = Array.init 5 (fun i -> i) in
  let f ~attempt i =
    if i = 2 && attempt = 1 then raise Sup.Crash_worker else i * 2
  in
  let reference = ref None in
  List.iter
    (fun jobs ->
      let lost = ref 0 in
      let outs, (stats : Sup.stats) =
        Sup.run ~jobs
          ~on_event:(function Sup.Worker_lost _ -> incr lost | _ -> ())
          f tasks
      in
      checkb "all done despite the crash" true
        (outs = Array.map (fun i -> Sup.Done (i * 2)) tasks);
      checki "one crash absorbed" 1 stats.crashes;
      checki "worker_lost observed" 1 !lost;
      checki "no poisoning" 0 stats.poisoned;
      check_counts_stable reference stats)
    job_counts

let test_supervisor_crash_storm_terminates () =
  (* Task 0 crashes on every attempt: crashes consume attempt numbers,
     so it poisons after the 4-attempt budget, and every other task
     completes. *)
  let tasks = Array.init 4 (fun i -> i) in
  let f ~attempt:_ i = if i = 0 then raise Sup.Crash_worker else i in
  let reference = ref None in
  List.iter
    (fun jobs ->
      let outs, (stats : Sup.stats) = Sup.run ~jobs f tasks in
      (match outs.(0) with
      | Sup.Poisoned { attempts; reason } ->
          checki "crashes bounded by the attempt budget" 4 attempts;
          checks "crash reason" "worker crashed" reason
      | _ -> Alcotest.fail "task 0 should be poisoned");
      checkb "survivors done" true
        (outs.(1) = Sup.Done 1 && outs.(2) = Sup.Done 2
        && outs.(3) = Sup.Done 3);
      checki "four crashes" 4 stats.crashes;
      check_counts_stable reference stats)
    job_counts

let test_supervisor_failed_classifier () =
  (* A value can be rejected after the fact; the classifier's verdict
     feeds the same retry machinery as a raise. *)
  let tasks = Array.init 4 (fun i -> i) in
  let f ~attempt i = (i, attempt) in
  let failed _task (_, attempt) =
    if attempt < 2 then Some "first attempt rejected" else None
  in
  List.iter
    (fun jobs ->
      let outs, (stats : Sup.stats) = Sup.run ~jobs ~failed f tasks in
      checkb "all accepted on attempt 2" true
        (outs = Array.init 4 (fun i -> Sup.Done (i, 2)));
      checki "one retry per task" 4 stats.retries;
      checki "two attempts per task" 8 stats.attempts)
    job_counts

let test_supervisor_zero_tasks () =
  let outs, (stats : Sup.stats) =
    Sup.run ~jobs:4 (fun ~attempt:_ i -> i) [||]
  in
  checkb "empty output" true (outs = [||]);
  checki "no tasks" 0 stats.tasks;
  checki "no attempts" 0 stats.attempts

(* ------------------------------------------------------------------ *)
(* Sweep determinism across job counts                                  *)
(* ------------------------------------------------------------------ *)

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
    mini "par-a";
    mini ~iters:4000 "par-b";
    mini ~iters:2000 "par-c";
    mini ~iters:3500 "par-d";
  ]

let serialize_sweep sweep =
  String.concat "\n" (List.map Checkpoint.data_to_string sweep.Runner.data)

let figures_csv sweep =
  String.concat "\n"
    (List.map (fun (_, t) -> Table.to_csv t) (Figures.all sweep.Runner.data))

let test_sweep_identical_across_jobs () =
  let benches = mini_benches () in
  let reference =
    Runner.run_many_par ~thresholds:mini_thresholds ~jobs:1 benches
  in
  checkb "reference has data" true (reference.Runner.data <> []);
  List.iter
    (fun jobs ->
      let sweep =
        Runner.run_many_par ~thresholds:mini_thresholds ~jobs benches
      in
      checks
        (Printf.sprintf "serialized results identical at -j %d" jobs)
        (serialize_sweep reference) (serialize_sweep sweep);
      checks
        (Printf.sprintf "derived tables identical at -j %d" jobs)
        (figures_csv reference) (figures_csv sweep))
    (List.tl job_counts)

let with_temp_dir f =
  let dir = Filename.temp_file "tpdbt-par" "" in
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

let checkpoint_bytes dir benches =
  String.concat "\x00"
    (List.map (fun b -> read_file (Checkpoint.path ~dir b)) benches)

let test_checkpoint_bytes_identical_across_jobs () =
  let benches = mini_benches () in
  with_temp_dir (fun seq_dir ->
      let _ =
        Runner.run_many_par ~thresholds:mini_thresholds ~jobs:1
          ~store:(store seq_dir) benches
      in
      let reference = checkpoint_bytes seq_dir benches in
      List.iter
        (fun jobs ->
          with_temp_dir (fun par_dir ->
              let _ =
                Runner.run_many_par ~thresholds:mini_thresholds ~jobs
                  ~store:(store par_dir) benches
              in
              checks
                (Printf.sprintf "checkpoint files identical at -j %d" jobs)
                reference
                (checkpoint_bytes par_dir benches)))
        (List.tl job_counts))

let test_resume_mid_sweep_parallel () =
  (* A sweep killed after completing half its benchmarks leaves their
     checkpoints behind; restarting at -j 4 must resume those, run only
     the rest, and end byte-identical to an uninterrupted sequential
     sweep. *)
  let benches = mini_benches () in
  let half = [ List.nth benches 0; List.nth benches 2 ] in
  with_temp_dir (fun dir ->
      let _ =
        Runner.run_many_par ~thresholds:mini_thresholds ~jobs:4
          ~store:(store dir) half
      in
      let statuses = ref [] in
      let progress n s = statuses := (n, Runner.status_name s) :: !statuses in
      let resumed =
        Runner.run_many_par ~thresholds:mini_thresholds ~jobs:4 ~progress
          ~store:(store dir) benches
      in
      List.iter
        (fun b ->
          checkb
            (b.Spec.name ^ " resumed, not re-run")
            true
            (List.mem (b.Spec.name, "resumed") !statuses))
        half;
      checki "both fresh benchmarks ran" 2
        (List.length (List.filter (fun (_, s) -> s = "ok") !statuses));
      let uninterrupted =
        Runner.run_many_par ~thresholds:mini_thresholds ~jobs:1 benches
      in
      checks "resumed sweep byte-identical to uninterrupted"
        (serialize_sweep uninterrupted)
        (serialize_sweep resumed);
      checks "checkpoint set byte-identical"
        (with_temp_dir (fun d2 ->
             let _ =
               Runner.run_many_par ~thresholds:mini_thresholds ~jobs:1
                 ~store:(store d2) benches
             in
             checkpoint_bytes d2 benches))
        (checkpoint_bytes dir benches))

(* ------------------------------------------------------------------ *)
(* Single-writer invariant                                              *)
(* ------------------------------------------------------------------ *)

let test_callbacks_single_writer () =
  (* Every callback — progress, save, sink, report — must run on the
     calling (collector) domain, with no overlap possible: record the
     executing domain id at each callback and require it to be the
     collector's, mutex-free. *)
  let collector = (Domain.self () :> int) in
  let benches = mini_benches () in
  let violations = ref 0 in
  let observe () =
    if (Domain.self () :> int) <> collector then incr violations
  in
  let progress_log = ref [] in
  let sink =
    Tel.Sink.of_fun (fun ~step:_ _ -> observe ())
  in
  let _ =
    Runner.run_many_par ~thresholds:mini_thresholds ~jobs:4
      ~progress:(fun n s ->
        observe ();
        progress_log := (n, Runner.status_name s) :: !progress_log)
      ~store:
        {
          Runner.load =
            (fun _ ->
              observe ();
              Ok None);
          save = (fun _ -> observe ());
          load_suspended = (fun _ -> None);
          on_snapshot = ignore;
        }
      ~sink
      ~report:(fun _ -> observe ())
      benches
  in
  checki "all callbacks ran on the collector domain" 0 !violations;
  (* Well-formed progress stream: exactly one start and one terminal
     status per benchmark, start first. *)
  List.iter
    (fun b ->
      let mine =
        List.rev
          (List.filter_map
             (fun (n, s) -> if n = b.Spec.name then Some s else None)
             !progress_log)
      in
      checkb
        (b.Spec.name ^ " progress well-formed")
        true
        (mine = [ "started"; "ok" ]))
    benches

(* ------------------------------------------------------------------ *)
(* Cache sweep and campaign determinism                                 *)
(* ------------------------------------------------------------------ *)

let test_cache_sweep_identical_across_jobs () =
  let bench = mini "par-cache" in
  let table jobs =
    Table.to_csv
      (Figures.cache_sweep
         [ Runner.run_cache_sweep ~jobs ~threshold:5 ~fracs:[ 0.25; 0.5 ] bench ])
  in
  let reference = table 1 in
  List.iter
    (fun jobs ->
      checks
        (Printf.sprintf "cache sweep identical at -j %d" jobs)
        reference (table jobs))
    (List.tl job_counts)

let campaign_render c =
  Format.asprintf "%a" Campaign.render c

let test_campaign_identical_across_jobs () =
  let bench = mini "par-faults" in
  let run jobs =
    Campaign.run ~jobs ~threshold:5 ~trials:6 ~seed:17L ~shadow_sample:1 bench
  in
  let reference = campaign_render (run 1) in
  List.iter
    (fun jobs ->
      checks
        (Printf.sprintf "campaign identical at -j %d" jobs)
        reference
        (campaign_render (run jobs)))
    (List.tl job_counts)

(* ------------------------------------------------------------------ *)
(* Telemetry                                                            *)
(* ------------------------------------------------------------------ *)

let test_worker_telemetry () =
  let benches = mini_benches () in
  let metrics = Tel.Metrics.create () in
  let events = ref [] in
  let sink = Tel.Sink.of_fun (fun ~step event -> events := (step, event) :: !events) in
  let _ = Runner.run_many_par ~thresholds:mini_thresholds ~jobs:2 ~sink ~metrics benches in
  let kinds = List.map (fun (_, e) -> Tel.Event.kind_name e) !events in
  checki "one start per task" 4
    (List.length (List.filter (( = ) "worker.start") kinds));
  checki "one finish per task" 4
    (List.length (List.filter (( = ) "worker.finish") kinds));
  checki "one span begin per task" 4
    (List.length (List.filter (( = ) "span.begin") kinds));
  checki "one span end per task" 4
    (List.length (List.filter (( = ) "span.end") kinds));
  List.iter
    (fun k ->
      checkb ("only worker/span events, got " ^ k) true
        (List.mem k
           [
             "worker.start"; "worker.steal"; "worker.finish"; "span.begin";
             "span.end";
           ]))
    kinds;
  (* Worker spans name their worker and report a sane wall clock. *)
  List.iter
    (fun (_, e) ->
      match e with
      | Tel.Event.Span_begin { span } | Tel.Event.Span_end { span; _ } ->
          checkb ("span named for a worker: " ^ span) true
            (String.length span > 6 && String.sub span 0 6 = "worker");
          (match e with
          | Tel.Event.Span_end { wall_ns; minor_words; major_words; _ } ->
              checkb "span wall non-negative" true (wall_ns >= 0);
              checki "span minor words" 0 minor_words;
              checki "span major words" 0 major_words
          | _ -> ())
      | _ -> ())
    !events;
  (* Scheduler stamps are a strictly increasing sequence. *)
  let steps = List.rev_map fst !events in
  checkb "scheduler sequence increases" true
    (List.for_all2 ( < ) steps (List.tl steps @ [ max_int ]));
  let names = Tel.Metrics.names metrics in
  List.iter
    (fun n -> checkb (n ^ " recorded") true (List.mem n names))
    [
      "parallel.speedup"; "parallel.jobs"; "parallel.steals"; "parallel.tasks";
      "parallel.busy_seconds"; "parallel.idle_seconds";
    ];
  checkb "speedup gauge positive" true
    (Tel.Metrics.gauge_value (Tel.Metrics.gauge metrics "parallel.speedup")
    > 0.0);
  checkb "jobs gauge is 2" true
    (Tel.Metrics.gauge_value (Tel.Metrics.gauge metrics "parallel.jobs") = 2.0)

let suite =
  [
    ("pool map identity", `Quick, test_pool_map_identity);
    ("pool empty and singleton", `Quick, test_pool_empty_and_singleton);
    ("pool exception deterministic", `Quick, test_pool_exception_deterministic);
    ("pool events account", `Quick, test_pool_events_account);
    ("pool jobs exceed tasks", `Quick, test_pool_jobs_exceed_tasks);
    ( "pool callback raise joins workers",
      `Quick,
      test_pool_callback_raise_joins_workers );
    ("supervisor all ok", `Quick, test_supervisor_all_ok);
    ("supervisor retry then succeed", `Quick, test_supervisor_retry_then_succeed);
    ( "supervisor breaker vs giveup",
      `Quick,
      test_supervisor_poison_breaker_vs_giveup );
    ("supervisor crash recovers", `Quick, test_supervisor_crash_recovers);
    ( "supervisor crash storm terminates",
      `Quick,
      test_supervisor_crash_storm_terminates );
    ("supervisor failed classifier", `Quick, test_supervisor_failed_classifier);
    ("supervisor zero tasks", `Quick, test_supervisor_zero_tasks);
    ("sweep identical across jobs", `Quick, test_sweep_identical_across_jobs);
    ( "checkpoint bytes identical across jobs",
      `Quick,
      test_checkpoint_bytes_identical_across_jobs );
    ("resume mid-sweep parallel", `Quick, test_resume_mid_sweep_parallel);
    ("callbacks single writer", `Quick, test_callbacks_single_writer);
    ( "cache sweep identical across jobs",
      `Quick,
      test_cache_sweep_identical_across_jobs );
    ( "campaign identical across jobs",
      `Quick,
      test_campaign_identical_across_jobs );
    ("worker telemetry", `Quick, test_worker_telemetry);
  ]
