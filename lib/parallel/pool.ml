type event =
  | Start of { worker : int; task : int }
  | Steal of { worker : int; victim : int; task : int }
  | Finish of { worker : int; task : int; seconds : float }

type stats = {
  jobs : int;
  tasks : int;
  steals : int;
  busy : float;
  elapsed : float;
}

let speedup s = if s.elapsed > 1e-9 then s.busy /. s.elapsed else 1.0
let default_jobs () = Domain.recommended_domain_count ()

(* ---- per-worker deque ------------------------------------------------- *)

(* A mutex-protected slice of the task-index space.  The owner pops
   from the front (lo), thieves from the back (hi): the owner walks its
   block in index order while steals peel work off the far end, so the
   two ends only meet when the deque drains. *)
type deque = {
  lock : Mutex.t;
  slots : int array;
  mutable lo : int;
  mutable hi : int;  (* exclusive *)
}

let pop_front d =
  Mutex.lock d.lock;
  let r =
    if d.lo < d.hi then (
      let t = d.slots.(d.lo) in
      d.lo <- d.lo + 1;
      Some t)
    else None
  in
  Mutex.unlock d.lock;
  r

let pop_back d =
  Mutex.lock d.lock;
  let r =
    if d.lo < d.hi then (
      d.hi <- d.hi - 1;
      Some d.slots.(d.hi))
    else None
  in
  Mutex.unlock d.lock;
  r

(* ---- collector channel ------------------------------------------------ *)

(* Workers communicate with the collector exclusively through this
   queue; the collector is the only domain that ever runs a callback. *)
type 'b msg =
  | Msg_steal of { worker : int; victim : int; task : int }
  | Msg_start of { worker : int; task : int }
  | Msg_done of {
      worker : int;
      task : int;
      result : ('b, exn) result;
      seconds : float;
    }

type 'b channel = {
  ch_lock : Mutex.t;
  ch_cond : Condition.t;
  ch_q : 'b msg Queue.t;
}

let send ch msg =
  Mutex.lock ch.ch_lock;
  Queue.push msg ch.ch_q;
  Condition.signal ch.ch_cond;
  Mutex.unlock ch.ch_lock

let receive_batch ch into =
  Mutex.lock ch.ch_lock;
  while Queue.is_empty ch.ch_q do
    Condition.wait ch.ch_cond ch.ch_lock
  done;
  Queue.transfer ch.ch_q into;
  Mutex.unlock ch.ch_lock

(* ---- workers ---------------------------------------------------------- *)

let worker_loop ~jobs ~deques ~channel ~stop ~f ~tasks w =
  let next () =
    match pop_front deques.(w) with
    | Some t -> Some (t, None)
    | None ->
        let rec scan k =
          if k >= jobs then None
          else
            let v = (w + k) mod jobs in
            match pop_back deques.(v) with
            | Some t -> Some (t, Some v)
            | None -> scan (k + 1)
        in
        scan 1
  in
  let rec loop () =
    match if Atomic.get stop then None else next () with
    | None -> ()
    | Some (task, stolen_from) ->
        Option.iter
          (fun victim -> send channel (Msg_steal { worker = w; victim; task }))
          stolen_from;
        send channel (Msg_start { worker = w; task });
        let t0 = Unix.gettimeofday () in
        let result = try Ok (f tasks.(task)) with e -> Error e in
        let seconds = Unix.gettimeofday () -. t0 in
        send channel (Msg_done { worker = w; task; result; seconds });
        loop ()
  in
  loop ()

(* ---- sequential short-circuit ----------------------------------------- *)

(* Each task's outcome, in task order: a raising task still gets its
   [Finish] and the tasks after it still run, as on the pool. *)
let map_seq ~on_event ~on_result f tasks =
  let n = Array.length tasks in
  let t0 = Unix.gettimeofday () in
  let outcomes =
    Array.mapi
      (fun i x ->
        on_event (Start { worker = 0; task = i });
        let ta = Unix.gettimeofday () in
        let outcome = try Ok (f x) with e -> Error e in
        let seconds = Unix.gettimeofday () -. ta in
        on_event (Finish { worker = 0; task = i; seconds });
        Result.iter (on_result i) outcome;
        outcome)
      tasks
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  (outcomes, { jobs = 1; tasks = n; steals = 0; busy = elapsed; elapsed })

(* ---- the pool --------------------------------------------------------- *)

let map_par ~jobs ~on_event ~on_result f tasks =
  let n = Array.length tasks in
  let t0 = Unix.gettimeofday () in
  (* Block partition: worker w owns [w*n/jobs, (w+1)*n/jobs). *)
  let deques =
    Array.init jobs (fun w ->
        let lo = w * n / jobs and hi = (w + 1) * n / jobs in
        {
          lock = Mutex.create ();
          slots = Array.init (hi - lo) (fun i -> lo + i);
          lo = 0;
          hi = hi - lo;
        })
  in
  let channel =
    { ch_lock = Mutex.create (); ch_cond = Condition.create ();
      ch_q = Queue.create () }
  in
  let stop = Atomic.make false in
  let domains =
    Array.init jobs (fun w ->
        Domain.spawn (fun () ->
            worker_loop ~jobs ~deques ~channel ~stop ~f ~tasks w))
  in
  (* Every slot is overwritten: the collector runs until all [n] tasks
     have reported. *)
  let outcomes = Array.make n (Error Exit) in
  let steals = ref 0 in
  let busy = ref 0.0 in
  let completed = ref 0 in
  let batch = Queue.create () in
  Fun.protect
    ~finally:(fun () ->
      (* Also when a callback raises: hand out no further task and
         wait for the ones in flight, so no worker outlives the call. *)
      Atomic.set stop true;
      Array.iter Domain.join domains)
    (fun () ->
      while !completed < n do
        receive_batch channel batch;
        Queue.iter
          (fun msg ->
            match msg with
            | Msg_steal { worker; victim; task } ->
                incr steals;
                on_event (Steal { worker; victim; task })
            | Msg_start { worker; task } -> on_event (Start { worker; task })
            | Msg_done { worker; task; result; seconds } ->
                incr completed;
                busy := !busy +. seconds;
                on_event (Finish { worker; task; seconds });
                outcomes.(task) <- result;
                Result.iter (on_result task) result)
          batch;
        Queue.clear batch
      done);
  let elapsed = Unix.gettimeofday () -. t0 in
  (outcomes, { jobs; tasks = n; steals = !steals; busy = !busy; elapsed })

let map ?jobs ?(on_event = fun _ -> ()) ?(on_result = fun _ _ -> ()) f tasks =
  let jobs =
    min
      (match jobs with Some j -> j | None -> default_jobs ())
      (Array.length tasks)
  in
  let outcomes, stats =
    if jobs <= 1 then map_seq ~on_event ~on_result f tasks
    else map_par ~jobs ~on_event ~on_result f tasks
  in
  (* [Array.map] goes in index order, so the lowest-indexed failure is
     the one re-raised, whatever the completion order. *)
  (Array.map (function Ok v -> v | Error e -> raise e) outcomes, stats)
