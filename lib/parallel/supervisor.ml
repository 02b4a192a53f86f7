exception Crash_worker

type policy = { max_attempts : int; breaker_after : int }

let default_policy = { max_attempts = 4; breaker_after = 3 }

type 'b outcome = Done of 'b | Poisoned of { attempts : int; reason : string }

type event =
  | Attempt of { task : int; attempt : int }
  | Task_done of { task : int; attempt : int; seconds : float }
  | Retry of { task : int; attempt : int; reason : string }
  | Gave_up of { task : int; attempts : int; reason : string }
  | Breaker_opened of { task : int; failures : int }
  | Worker_lost of { worker : int; task : int }

type stats = {
  jobs : int;
  tasks : int;
  attempts : int;
  retries : int;
  poisoned : int;
  crashes : int;
  busy : float;
  elapsed : float;
}

type 'b exec = Exec_ok of 'b | Exec_failed of string | Exec_crashed

(* One attempt, as a {!Pool} task: it never raises, so a failing or
   crashing attempt ends only itself, never the round or its worker. *)
let exec_task f ~attempt x =
  try Exec_ok (f ~attempt x) with
  | Crash_worker -> Exec_crashed
  | e -> Exec_failed (Printexc.to_string e)

let run ?jobs ?(policy = default_policy) ?failed ?(on_event = fun _ -> ())
    ?(on_result = fun _ _ -> ()) f tasks =
  let n = Array.length tasks in
  let requested =
    match jobs with Some j -> j | None -> Pool.default_jobs ()
  in
  let jobs = max 1 (min requested n) in
  let t0 = Unix.gettimeofday () in
  let results = Array.make n None in
  let attempts = Array.make n 0 in
  let failures = Array.make n 0 in
  let total_attempts = ref 0 in
  let retries = ref 0 in
  let poisoned = ref 0 in
  let crashes = ref 0 in
  let busy = ref 0.0 in
  let resolve task outcome =
    results.(task) <- Some outcome;
    match outcome with
    | Done v -> on_result task v
    | Poisoned _ -> incr poisoned
  in
  let poison task reason =
    resolve task (Poisoned { attempts = attempts.(task); reason })
  in
  let give_up task reason =
    on_event (Gave_up { task; attempts = attempts.(task); reason });
    poison task reason
  in
  (* The collector's verdict on one finished attempt: [true] runs the
     task again next round, [false] means it is resolved. *)
  let fail task reason =
    failures.(task) <- failures.(task) + 1;
    if failures.(task) >= policy.breaker_after then begin
      on_event (Breaker_opened { task; failures = failures.(task) });
      poison task reason;
      false
    end
    else if attempts.(task) >= policy.max_attempts then begin
      give_up task reason;
      false
    end
    else begin
      incr retries;
      on_event (Retry { task; attempt = attempts.(task) + 1; reason });
      true
    end
  in
  let settle ~worker ~seconds task attempt = function
    | Exec_ok v -> (
        match Option.bind failed (fun g -> g task v) with
        | Some reason -> fail task reason
        | None ->
            on_event (Task_done { task; attempt; seconds });
            resolve task (Done v);
            false)
    | Exec_failed reason -> fail task reason
    | Exec_crashed ->
        (* A crash consumes an attempt number — that bounds a task that
           crashes every attempt — but not a failure count: the breaker
           judges the task, and a lost worker is the harness's fault,
           not the task's. *)
        incr crashes;
        on_event (Worker_lost { worker; task });
        if attempts.(task) >= policy.max_attempts then begin
          give_up task "worker crashed";
          false
        end
        else true
  in
  (* One round: every due attempt goes to one [Pool.map]; the tasks to
     re-attempt form the next round.  Each attempt's outcome depends
     only on its [(task, attempt)] pair, so running retries after the
     round changes no outcome and no count. *)
  let rec rounds due =
    if due <> [] then begin
      let batch =
        Array.of_list
          (List.map
             (fun task ->
               attempts.(task) <- attempts.(task) + 1;
               incr total_attempts;
               (task, attempts.(task)))
             due)
      in
      let finished = Array.make (Array.length batch) (0, 0.0) in
      let again = ref [] in
      let on_pool_event = function
        | Pool.Start { task = i; _ } ->
            let task, attempt = batch.(i) in
            on_event (Attempt { task; attempt })
        | Pool.Finish { worker; task = i; seconds } ->
            busy := !busy +. seconds;
            finished.(i) <- (worker, seconds)
        | Pool.Steal _ -> ()
      in
      let on_pool_result i exec =
        let task, attempt = batch.(i) in
        let worker, seconds = finished.(i) in
        if settle ~worker ~seconds task attempt exec then
          again := task :: !again
      in
      ignore
        (Pool.map ~jobs ~on_event:on_pool_event ~on_result:on_pool_result
           (fun (task, attempt) -> exec_task f ~attempt tasks.(task))
           batch);
      rounds (List.sort compare !again)
    end
  in
  rounds (List.init n Fun.id);
  let outcomes =
    Array.map (function Some o -> o | None -> assert false) results
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  ( outcomes,
    {
      jobs;
      tasks = n;
      attempts = !total_attempts;
      retries = !retries;
      poisoned = !poisoned;
      crashes = !crashes;
      busy = !busy;
      elapsed;
    } )
