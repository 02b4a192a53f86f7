(** Fault-tolerant job supervision on {!Pool.map}.

    {!Pool.map} computes an array map and dies with the first (lowest
    task index) exception; that is the right contract for trusted
    workloads, and the wrong one for long campaigns where a single
    stuck or crashing task should not cost hours of finished work.
    [Supervisor.run] turns the same pool into a job system: every task
    is attempted, failures are retried, and persistently failing tasks
    are quarantined as {!Poisoned} instead of aborting the sweep.

    {2 Supervision model}

    - {e Rounds.}  The first round runs every task's first attempt in
      one {!Pool.map} call.  The collector sorts each finished attempt
      as done, re-attempt or poisoned; the re-attempts form the next
      round, in task order.  Rounds repeat until every task is
      resolved.  Each attempt is a pool task that never raises, so a
      failure or a crash ends only that attempt, never its worker.
    - {e Retry.}  A failed attempt (the task raised, or the [failed]
      classifier rejected its value) is re-attempted next round, up to
      [max_attempts] attempts in total.
    - {e Circuit breaker.}  After [breaker_after] consecutive failures
      the task's breaker opens and it is quarantined immediately,
      before its retry budget runs out.
    - {e Worker loss.}  A task that raises {!Crash_worker} stands in
      for a worker lost to the OS.  The crash is counted, and the
      attempt is re-run next round.  A crash consumes an attempt
      number (so a task that crashes on every attempt still terminates
      as {!Poisoned}) but {e not} a breaker count: losing a worker is
      the harness's fault, not the task's.

    {2 Determinism}

    As in {!Pool}, callbacks run on the calling domain only and
    results are keyed by task index.  Because retry/poison decisions
    depend only on what [f ~attempt] does for each [(task, attempt)]
    pair — never on scheduling — the outcome array and the
    [attempts]/[retries]/[poisoned]/[crashes] counts are identical at
    every job count and across repeated runs.  Only [busy] and
    [elapsed] (and callback arrival order within a round) are
    scheduling-dependent. *)

exception Crash_worker
(** Raised {e by a task} to simulate losing the worker executing it —
    the test/chaos stand-in for a worker lost to the OS.  The
    supervisor catches it around the attempt; it never escapes
    {!run}. *)

type policy = {
  max_attempts : int;  (** total attempts per task, including the first *)
  breaker_after : int;
      (** consecutive failures that open the task's circuit breaker *)
}

val default_policy : policy
(** 4 attempts, breaker at 3 consecutive failures. *)

type 'b outcome =
  | Done of 'b
  | Poisoned of { attempts : int; reason : string }
      (** quarantined: retry budget exhausted or breaker opened;
          [reason] is the last failure's description *)

type event =
  | Attempt of { task : int; attempt : int }  (** execution began *)
  | Task_done of { task : int; attempt : int; seconds : float }
  | Retry of { task : int; attempt : int; reason : string }
      (** the failed task will be re-attempted (as attempt [attempt])
          in the next round *)
  | Gave_up of { task : int; attempts : int; reason : string }
      (** retry budget exhausted — the task is poisoned *)
  | Breaker_opened of { task : int; failures : int }
      (** circuit breaker tripped — the task is poisoned *)
  | Worker_lost of { worker : int; task : int }
      (** [task]'s attempt on worker [worker] raised {!Crash_worker};
          the attempt is re-run next round *)

type stats = {
  jobs : int;  (** worker domains requested, clamped to the task count *)
  tasks : int;
  attempts : int;  (** executions started, over all tasks *)
  retries : int;  (** re-attempts scheduled after failures *)
  poisoned : int;  (** tasks quarantined *)
  crashes : int;  (** worker losses absorbed *)
  busy : float;  (** summed seconds inside attempts *)
  elapsed : float;  (** wall-clock seconds for the whole run *)
}

val run :
  ?jobs:int ->
  ?policy:policy ->
  ?failed:(int -> 'b -> string option) ->
  ?on_event:(event -> unit) ->
  ?on_result:(int -> 'b -> unit) ->
  (attempt:int -> 'a -> 'b) ->
  'a array ->
  'b outcome array * stats
(** [run f tasks] executes every task under supervision and returns
    one {!outcome} per task, in task order — the call never raises on
    task failure.  [f ~attempt x] receives the 1-based attempt number
    so tasks can vary deterministically across retries (fault plans
    key on it).

    [failed task v] classifies a value that {e returned} as a failure
    anyway (e.g. a sweep run that ended in a fatal typed error);
    [Some reason] triggers the same retry/breaker path as a raise.

    [on_event] and [on_result] run on the calling domain only;
    [on_result task v] fires once per [Done] task as it resolves.
    [jobs] defaults to {!Pool.default_jobs}[ ()] and is passed to
    every round's {!Pool.map}, which runs inline on the calling domain
    at [jobs <= 1].  If a callback raises, the round's workers are
    joined and the exception propagates. *)
