(** Seeded fault campaigns: does the two-phase engine survive injected
    failures, and at what cost?

    A campaign first runs the benchmark clean (no faults) as the
    reference, then runs [trials] faulty runs, each under a
    {!Tpdbt_faults.Plan} whose seed is drawn from the campaign seed —
    the whole campaign is a pure function of
    [(bench, threshold, seed, trials, arms, kinds)].

    Outcomes are judged against the clean run: a {e recovered} trial
    finished with no fatal error and guest-identical behaviour (same outputs,
    same instruction count) despite the injected faults; {e degraded}
    finished but diverged; {e failed} ended with a typed
    {!Tpdbt_dbt.Error.t} (expected for [Guest_trap] arms and exhausted
    recovery budgets); {e uncaught} means either an exception escaped
    the engine, or silently corrupted translated code
    ([Silent_corruption]) executed without the shadow oracle ever
    flagging it — both are outcomes the robustness work forbids.  Run
    campaigns that include [Silent_corruption] arms with
    [~shadow_sample] set, or expect uncaught trials. *)

type outcome =
  | Recovered
  | Degraded
  | Failed of Tpdbt_dbt.Error.t
  | Uncaught of string

type trial = {
  index : int;
  plan : Tpdbt_faults.Plan.t;
  outcome : outcome;
  report : Tpdbt_faults.Fault.report option;
      (** which arms fired, and on what *)
  counters : Tpdbt_dbt.Perf_model.counters option;
      (** [None] only for [Uncaught] trials *)
}

type t = {
  bench : Tpdbt_workloads.Spec.t;
  threshold : int;
  seed : int64;
  clean : Tpdbt_dbt.Engine.result;
  trials : trial list;
}

val run :
  ?jobs:int ->
  ?threshold:int ->
  ?trials:int ->
  ?arms:int ->
  ?kinds:Tpdbt_faults.Fault.kind list ->
  ?shadow_sample:int ->
  seed:int64 ->
  Tpdbt_workloads.Spec.t ->
  t
(** Defaults: threshold 20 (the paper's 2k label, scaled), 8 trials of
    4 arms each, all fault kinds, shadow oracle off ([shadow_sample]
    is passed straight to {!Tpdbt_dbt.Engine.config}).  Plan horizons
    are the clean run's instruction count, so every arm lands inside
    the run.

    [jobs] > 1 runs the trials on a {!Tpdbt_parallel.Pool} of that
    many worker domains.  All plan seeds are drawn (in trial order, on
    the calling domain) before any trial runs, and each trial is an
    isolated engine run, so the campaign — trials list included — is
    identical at every job count.  Default 1 (sequential, no domain
    spawned).
    @raise Tpdbt_dbt.Error.Error if the {e clean} run fails fatally
    ({!Tpdbt_dbt.Error.fatal}) — the campaign needs a healthy
    baseline.  A budget-limited clean run is kept: its horizon and its
    partial outputs are the (deterministic) baseline. *)

type tally = { recovered : int; degraded : int; failed : int; uncaught : int }

val tally : t -> tally
val outcome_name : outcome -> string

val ok : t -> bool
(** No uncaught exceptions — the campaign's pass criterion. *)

val render : Format.formatter -> t -> unit
(** Survival / recovery summary: one line per trial plus totals. *)

(** {1 Chaos sweeps}

    Where {!run} injects faults {e inside} one engine, a chaos sweep
    attacks the sweep infrastructure itself — the supervisor, the
    worker pool and the checkpoint store — and checks that the sweep
    still converges to the fault-free answer. *)

type chaos_fault =
  | Stall  (** persistent: every attempt blows a tiny step deadline *)
  | Crash  (** the worker domain dies on the first attempt *)
  | Bitflip  (** one byte of the written checkpoint is flipped *)
  | Panic  (** the task raises on its first attempt *)
  | Kill
      (** the run is killed at a seeded guest instruction strictly
          inside its first engine stage; it suspends there, leaving a
          mid-run snapshot in the store, and the resume pass must
          continue it to a byte-identical result *)
  | Truncate  (** the written checkpoint loses its second half *)

type chaos = {
  chaos_seed : int64;
  chaos_benches : string list;  (** input order *)
  injected_faults : (string * chaos_fault) list;
      (** seeded assignment: victims shuffled by the chaos seed, fault
          kinds dealt in declaration order *)
  poisoned_benches : string list;
      (** quarantined after the resume pass (expected: the stall) *)
  retried : int;  (** supervisor retries summed over both passes *)
  worker_crashes : int;
  corrupt_checkpoints : string list;
      (** damaged checkpoints the resume scan caught and re-ran *)
  resumed_from_snapshot : string list;
      (** benchmarks whose slot held a mid-run (suspended) snapshot
          when the resume pass started — expected: the kill victims,
          which must then end up in [survivors] *)
  survivors : string list;
      (** non-poisoned benchmarks whose final serialised results are
          byte-identical to the fault-free sequential reference *)
  mismatched : string list;  (** non-poisoned, but diverged — a bug *)
}

val chaos :
  ?jobs:int ->
  ?benches:Tpdbt_workloads.Spec.t list ->
  ?thresholds:(string * int) list ->
  ?max_steps:int ->
  ?progress:(string -> Runner.status -> unit) ->
  dir:string ->
  seed:int64 ->
  unit ->
  chaos
(** Run the chaos harness: a fault-free sequential reference sweep,
    then a supervised sweep under injected faults (checkpointing into
    [dir], whose [*.ckpt] files it deletes first — the harness owns the
    directory), then a resume pass over the damaged store.  Defaults:
    [jobs] 1, benchmarks gzip/swim/mgrid/art/mcf (one fault each:
    stall, crash, bitflip, panic, kill — truncate needs a sixth).
    Everything in the returned record is a pure function of
    [(benches, seed, max_steps)] — identical at every job count and
    across repeated runs; in particular the kill victim's suspension
    point, its snapshot and its resumed final results are the same at
    every [-j].
    @raise Invalid_argument if a benchmark fails without faults. *)

val chaos_ok : chaos -> bool
(** The pass criterion: no mismatches, poisoned = the stall victims
    exactly, corrupt = the checkpoint victims exactly, resumed = the
    kill victims exactly (whose results, like every survivor's, are
    byte-identical to the fault-free reference), and the crash and
    panic victims actually exercised recovery. *)

val chaos_to_json : chaos -> string
(** Deterministic summary (scheduling-dependent fields excluded) — the
    artifact [make chaos-smoke] compares across job counts. *)

val render_chaos : Format.formatter -> chaos -> unit
