(** Sweep runner: executes one benchmark under every experimental
    configuration of the paper's methodology (§2).

    For each benchmark it performs:
    - one profiling-only run with the reference input (AVEP),
    - one profiling-only run with the training input (INIP(train)),
    - one two-phase run per retranslation threshold (INIP(T)),

    then compares each INIP(T) against AVEP ({!Tpdbt_profiles.Metrics})
    and INIP(train) against AVEP. *)

type threshold_run = {
  label : string;  (** paper-equivalent label, e.g. "2k" *)
  scaled : int;  (** the actual threshold used *)
  result : Tpdbt_dbt.Engine.result;
  comparison : Tpdbt_profiles.Metrics.comparison;
}

type data = {
  bench : Tpdbt_workloads.Spec.t;
  avep : Tpdbt_dbt.Engine.result;
  train : Tpdbt_dbt.Engine.result;
  train_flat : Tpdbt_profiles.Metrics.flat;
  train_regions : Tpdbt_profiles.Metrics.comparison;
      (** regions formed {e offline} in the training profile
          ({!Tpdbt_profiles.Offline_regions}) compared against AVEP —
          supplies the Sd.CP(train) / Sd.LP(train) reference the paper
          lists as future work. *)
  runs : threshold_run list;
}

val run_benchmark :
  ?thresholds:(string * int) list ->
  ?max_steps:int ->
  ?deadline:int ->
  Tpdbt_workloads.Spec.t ->
  data
(** Thresholds default to {!Tpdbt_workloads.Suite.thresholds}.  Runs are
    deterministic (fixed seeds from the spec).  [max_steps] overrides
    each constituent run's (non-fatal) step budget; [deadline] arms the
    supervisor's (fatal) cooperative watchdog — see
    {!Tpdbt_dbt.Engine.config}.
    @raise Tpdbt_dbt.Error.Error if any constituent run ends with a
    {e fatal} typed error (guest trap, exhausted recovery).  A run that
    merely blows its step budget ([Limit_exceeded], the one non-fatal
    error) is kept as a partial run — several ref workloads
    legitimately outlive the default budget. *)

(** {2 Suspend / resume}

    A benchmark is a fixed sequence of engine runs ("stages"): the AVEP
    profile, the training profile, then one optimised run per
    threshold.  The suspension machinery works over this sequence: a
    mid-run snapshot is the finished stages plus the in-flight engine's
    serialized image ({!Tpdbt_dbt.Exec_snapshot}), and resuming a
    {!partial} then running to completion produces a {!data} — and
    hence checkpoint bytes — identical to an uninterrupted run's. *)

type stage =
  | Avep
  | Train
  | Threshold of string * int  (** label, scaled threshold *)

val stage_label : stage -> string
(** ["avep"], ["train"], or the threshold label. *)

type partial = {
  p_bench : Tpdbt_workloads.Spec.t;
  p_thresholds : (string * int) list;
  p_done : (stage * Tpdbt_dbt.Engine.result) list;
      (** finished stages, in stage order *)
  p_next : stage;  (** the stage the snapshot interrupts *)
  p_snapshot : string;  (** {!Tpdbt_dbt.Exec_snapshot.to_string} text *)
}

val run_benchmark_result :
  ?thresholds:(string * int) list ->
  ?max_steps:int ->
  ?deadline:int ->
  ?snapshot_every:int ->
  ?suspend_on_deadline:bool ->
  ?on_snapshot:(partial -> unit) ->
  ?resume:partial ->
  Tpdbt_workloads.Spec.t ->
  (data, Tpdbt_dbt.Error.t) result
(** Like {!run_benchmark} but failures stay values — the form sweeps
    use to isolate a failing benchmark without losing the others.

    [snapshot_every n] (default 0 = off) publishes a {!partial} to
    [on_snapshot] roughly every [n] guest instructions of the in-flight
    stage, then {e continues}; the final result is byte-identical to a
    run without the trigger.  [suspend_on_deadline] (default false)
    turns a blown [deadline] into a parked benchmark: the last state is
    published to [on_snapshot] and the call returns
    [Error (Suspended _)] — a {e non-fatal} error marking work to
    resume, not a failure.  [resume] continues from a previously
    published {!partial}: finished stages are reused as recorded, the
    interrupted stage continues from its engine image, and the rest run
    normally.  A damaged or mismatched [resume] (wrong benchmark,
    different thresholds, corrupt or stale snapshot text, config or
    program digest mismatch) yields [Error (Io_error _)] — never a
    wrong result. *)

val assemble :
  Tpdbt_workloads.Spec.t ->
  Tpdbt_dbt.Engine.result ->
  Tpdbt_dbt.Engine.result ->
  (string * int * Tpdbt_dbt.Engine.result) list ->
  data
(** [assemble bench avep train runs] rebuilds the derived comparisons
    from raw engine results.  Derivation is pure, so a {!data} restored
    from checkpointed raw runs is identical to one computed live —
    the property checkpoint resume ({!Checkpoint}) relies on. *)

type cache_point = {
  policy : Tpdbt_dbt.Code_cache.policy;
  frac : float;  (** capacity as a fraction of [footprint] *)
  capacity : int;  (** the actual budget, in translated instructions *)
  bounded : Tpdbt_dbt.Engine.result;  (** the run under that budget *)
}

type cache_data = {
  cache_bench : Tpdbt_workloads.Spec.t;
  cache_threshold : int;
  baseline : Tpdbt_dbt.Engine.result;  (** unbounded-cache run *)
  footprint : int;
      (** the baseline's peak cache occupancy (translated guest
          instructions) — the benchmark's full translated footprint *)
  points : cache_point list;  (** grouped by policy, then fraction *)
}

val run_cache_sweep :
  ?jobs:int ->
  ?threshold:int ->
  ?policies:Tpdbt_dbt.Code_cache.policy list ->
  ?fracs:float list ->
  ?shadow_sample:int ->
  ?max_steps:int ->
  Tpdbt_workloads.Spec.t ->
  cache_data
(** Fig.-17-style cache-size sweep: one unbounded baseline run, then
    one bounded run per (policy, capacity fraction) with the capacity
    set to [frac x footprint] (at least 1).  Defaults: threshold 20,
    all three policies, fractions 1/8, 1/4, 1/2, 1, shadow oracle off.
    Guest behaviour (outputs, steps) is invariant across all points;
    only the cycle cost moves.  Never raises: inspect each
    [result.error].

    [jobs] > 1 runs the (policy, fraction) points on a
    {!Tpdbt_parallel.Pool} of that many worker domains after the
    baseline completes; [points] keeps the canonical policy-major
    order and every point's result is identical to the sequential
    sweep's (each point is an isolated engine run with fixed seeds).
    Default 1 (sequential, no domain spawned). *)

type status =
  | Started  (** about to run *)
  | Finished  (** completed cleanly (after [save], if any) *)
  | Failed of Tpdbt_dbt.Error.t  (** isolated per-benchmark failure *)
  | Resumed  (** restored from a checkpoint; not re-run *)
  | Quarantined of string
      (** supervised sweeps only: the task was poisoned (retry budget
          exhausted or circuit breaker opened) *)
  | Suspended
      (** parked on a resumable mid-run snapshot (deadline suspension);
          appears in [failures] with {!Tpdbt_dbt.Error.Suspended} *)

type failure = { failed : Tpdbt_workloads.Spec.t; error : Tpdbt_dbt.Error.t }

type sweep = { data : data list; failures : failure list }
(** Both in input order; a benchmark appears in exactly one list. *)

val suspended_failure : failure -> bool
(** [true] iff the failure is a parked, resumable suspension rather
    than a broken benchmark. *)

val status_name : status -> string
(** ["started"], ["ok"], ["failed"], ["resumed"], ["poisoned"],
    ["suspended"]. *)

type store = {
  load : Tpdbt_workloads.Spec.t -> (data option, string) result;
      (** the finished result to reuse instead of running; [Ok None]
          runs the benchmark, [Error reason] marks a damaged entry,
          which is re-run and reported *)
  save : data -> unit;  (** receives each freshly computed {!data} *)
  load_suspended : Tpdbt_workloads.Spec.t -> partial option;
      (** mid-run state to resume a benchmark [load] did not satisfy *)
  on_snapshot : partial -> unit;
      (** receives each mid-run snapshot ([snapshot_every],
          [suspend_on_deadline]) *)
}
(** Where a sweep keeps its results; {!Checkpoint.store} builds the
    on-disk one.  Without a store every benchmark runs from scratch and
    nothing is kept. *)

val run_many_par :
  ?thresholds:(string * int) list ->
  ?max_steps:int ->
  ?deadline:int ->
  ?snapshot_every:int ->
  ?suspend_on_deadline:bool ->
  ?store:store ->
  ?jobs:int ->
  ?progress:(string -> status -> unit) ->
  ?sink:Tpdbt_telemetry.Sink.t ->
  ?metrics:Tpdbt_telemetry.Metrics.t ->
  ?report:(Tpdbt_parallel.Pool.stats -> unit) ->
  Tpdbt_workloads.Spec.t list ->
  sweep
(** Sweep over benchmarks with per-benchmark failure isolation: a run
    that ends with a typed error lands in [failures] and the sweep
    continues.  [progress] is called with the benchmark name as each
    one starts and again when it finishes (ok / failed / resumed /
    suspended).  With a [store], each benchmark is first looked up in
    it (a stored result skips the run), each fresh result is saved to
    it, suspended state resumes from it and mid-run snapshots go to
    it.  The snapshot controls ([snapshot_every],
    [suspend_on_deadline]) pass through to {!run_benchmark_result}.

    [jobs] worker domains of a {!Tpdbt_parallel.Pool} run the
    benchmarks (default {!Tpdbt_parallel.Pool.default_jobs}).  Every
    job count takes the same path: the resume scan, one
    {!Tpdbt_parallel.Pool.map} over the benchmarks left to run, and
    the merge.  At [jobs <= 1] the pool runs them in input order on
    the calling domain and spawns nothing; worker events (worker 0, no
    steals) and [report] still fire.

    The merged {!sweep} is {e identical} for every job count: each
    benchmark is an isolated engine computation with per-spec fixed
    seeds, results are tagged by task index and merged in input order.
    Only observability differs — [progress] lines arrive in completion
    order rather than input order.

    Single-writer invariant: [progress], the store's [load] and
    [save], [sink], [metrics] and [report] all run on the {e calling}
    domain (the collector).  The store is consulted for every
    benchmark before any task starts (resumed benchmarks never become
    tasks); each [save] fires as its benchmark's result arrives, so a
    sweep killed mid-flight resumes the same way at every job count.
    A damaged store entry ([load] returns [Error]) is re-run, emitted
    as a [checkpoint.corrupt] event on [sink] and counted in the
    [checkpoint.corrupt] metric.

    [sink] receives [worker.start] / [worker.steal] / [worker.finish]
    events stamped with a scheduler sequence number; [metrics] gains
    the [parallel.speedup] and [parallel.jobs] gauges plus the
    [parallel.steals] / [parallel.tasks] counters; [report] is called
    once with the pool's {!Tpdbt_parallel.Pool.stats}.

    Exception to the single-writer rule: the store's [on_snapshot]
    runs on the {e worker} executing the benchmark.  Each benchmark's
    suspended state has that worker as its only writer until the task
    completes, so per-benchmark files (the checkpoint store) stay
    race-free. *)

type supervision = {
  sup : Tpdbt_parallel.Supervisor.stats;
  poisoned : (Tpdbt_workloads.Spec.t * string) list;
      (** quarantined benchmarks with the last failure reason, in
          input order; each also appears in the sweep's [failures] *)
  corrupt : (string * string) list;
      (** damaged store entries detected during the resume scan, as
          [(bench name, reason)], in scan order *)
}

val run_many_supervised :
  ?thresholds:(string * int) list ->
  ?max_steps:int ->
  ?deadline:int ->
  ?snapshot_every:int ->
  ?suspend_on_deadline:bool ->
  ?store:store ->
  ?jobs:int ->
  ?policy:Tpdbt_parallel.Supervisor.policy ->
  ?progress:(string -> status -> unit) ->
  ?sink:Tpdbt_telemetry.Sink.t ->
  ?metrics:Tpdbt_telemetry.Metrics.t ->
  ?report:(Tpdbt_parallel.Supervisor.stats -> unit) ->
  ?run_task:
    (task:int ->
    attempt:int ->
    Tpdbt_workloads.Spec.t ->
    (data, Tpdbt_dbt.Error.t) result) ->
  Tpdbt_workloads.Spec.t list ->
  sweep * supervision
(** {!run_many_par} under {!Tpdbt_parallel.Supervisor}: per-task
    deadlines (pass [deadline]), bounded retry in rounds on the same
    pool, and circuit breakers.  A benchmark whose runs keep failing
    is {e quarantined} — reported as
    [Quarantined] progress, listed in [supervision.poisoned] and in
    the sweep's [failures] (with its last fatal typed error when one
    was produced) — instead of aborting anything.

    The merged sweep and the supervision counts ([attempts], [retries],
    [poisoned], [crashes]) are identical at every job count; every
    callback runs on the calling domain.  [sink] additionally receives
    [supervisor.retry] / [supervisor.giveup] / [breaker.open] /
    [worker.lost] events (scheduler-sequence stamped), and [metrics]
    gains [supervisor.*] counters plus the [supervisor.task_seconds]
    latency histogram.

    [run_task] replaces the benchmark execution itself (defaulting to
    {!run_benchmark_result}) with the task index and 1-based attempt
    number — the chaos harness's injection point: deterministic fault
    plans key on [(task, attempt)], so retries genuinely re-execute.

    A task that returns [Error (Suspended _)] is {e not} retried: the
    benchmark is parked on its on-disk snapshot ([Suspended] progress)
    and lands in [failures] for the caller to resume later.  The
    default [run_task] consults the store's [load_suspended] on
    {e every} attempt, so a retry of a task whose earlier attempt
    crashed after a mid-run snapshot continues from that snapshot
    instead of restarting.

    Damaged store entries found during the resume scan are re-run and
    listed in [supervision.corrupt] besides the telemetry
    {!run_many_par} emits for them.  Together with the supervisor this
    closes the loop: a sweep survives task failures, worker crashes, a
    kill at an arbitrary guest instruction {e and} a corrupted
    checkpoint store, and still produces results byte-identical to an
    undisturbed run for every non-poisoned benchmark. *)

val run_ref :
  ?sink:Tpdbt_telemetry.Sink.t ->
  Tpdbt_workloads.Spec.t ->
  config:Tpdbt_dbt.Engine.config ->
  Tpdbt_dbt.Engine.result
(** One reference-input run under an arbitrary engine configuration.
    [sink] overrides the configuration's telemetry sink.  Never raises:
    inspect [result.error] — fault campaigns need the partial result of
    a failed run. *)

val run_avep : Tpdbt_workloads.Spec.t -> Tpdbt_dbt.Engine.result
(** Profiling-only reference-input run (the AVEP profile).
    @raise Tpdbt_dbt.Error.Error if the run ends with a typed error. *)

val run_traced :
  ?limit:int ->
  ?extra_sinks:Tpdbt_telemetry.Sink.t list ->
  Tpdbt_workloads.Spec.t ->
  config:Tpdbt_dbt.Engine.config ->
  Tpdbt_dbt.Engine.result
  * Tpdbt_telemetry.Sink.buffer
  * Tpdbt_telemetry.Metrics.t
(** One fully-instrumented reference-input run: buffers the event
    stream (at most [limit] events, {!Tpdbt_telemetry.Sink.memory}'s
    default otherwise), aggregates the standard event metrics
    ({!Tpdbt_telemetry.Sink.collect}) and the run's [perf.*] counters
    ({!Tpdbt_dbt.Perf_model.record}) into a fresh registry, and closes
    every sink.  [extra_sinks] (e.g. a streaming JSONL writer) receive
    the same events; they are closed too.  Powers [tpdbt trace]. *)
