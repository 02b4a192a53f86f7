(** Resumable sweeps: one checkpoint file per benchmark, holding either
    its finished results or its mid-run suspended state.

    A {e finished} checkpoint stores only the {e raw} engine results
    (snapshots via {!Tpdbt_profiles.Profile_io}, counters with the
    cycles float in lossless [%h] form, steps, outputs, region stats);
    every derived comparison is recomputed on load through
    {!Runner.assemble}, which is pure — so a sweep resumed from
    checkpoints produces output byte-identical to an uninterrupted one.

    A {e suspended} checkpoint (format v4) additionally exists mid-run:
    the completed stages plus the in-flight engine's serialized image
    ({!Tpdbt_dbt.Exec_snapshot}).  A benchmark's file monotonically
    progresses suspended -> ... -> suspended -> finished in the same
    slot, so a sweep killed at {e any} guest instruction resumes from
    its last snapshot — and, by the engine's capture/restore guarantee,
    still produces byte-identical final results.

    The store is crash-consistent (since v3): files carry a CRC32 and
    byte length over the payload, are written to a temp file, fsynced
    and atomically renamed into place — a sweep killed (or a machine
    losing power) mid-write never publishes a partial checkpoint.  On
    load, damage is {e classified}: a truncated, bit-flipped,
    trailing-garbage or empty file is {!Corrupt}, an older format is
    {!Stale_version}, and either way resume re-runs exactly the
    damaged entries instead of trusting them — so the repaired sweep
    is byte-identical to one that never lost the file. *)

type stored =
  | Finished of Runner.data  (** a completed benchmark's results *)
  | Suspended of Runner.partial  (** mid-run state, resumable *)

type classified =
  | Valid of stored  (** header, CRC, length and payload all check out *)
  | Missing  (** no checkpoint file *)
  | Stale_version of string
      (** an earlier format's magic line — sound when written, but not
          readable by this version; re-run *)
  | Corrupt of string
      (** damaged (truncated, bit-flipped, trailing garbage, empty,
          wrong benchmark, different threshold list, damaged embedded
          engine snapshot, …); the string says how *)

val path : dir:string -> Tpdbt_workloads.Spec.t -> string
(** [<dir>/<bench-name>.ckpt]. *)

val save : dir:string -> Runner.data -> unit
(** Write the benchmark's finished checkpoint crash-consistently (temp
    file, fsync, atomic rename, then fsync of [dir] so the rename
    itself survives a power cut), creating [dir] if needed.
    @raise Sys_error on I/O failure. *)

val save_suspended : dir:string -> Runner.partial -> unit
(** Write mid-run state into the benchmark's slot, with the same
    crash-consistency; a later {!save} overwrites it with the finished
    result.
    @raise Sys_error on I/O failure. *)

val classify :
  ?thresholds:(string * int) list ->
  dir:string ->
  Tpdbt_workloads.Spec.t ->
  classified
(** Inspect the benchmark's checkpoint without committing to a
    boolean: callers that only care whether to re-run use {!load};
    the supervisor uses the classification to count and report
    corruption. *)

val load :
  ?thresholds:(string * int) list ->
  dir:string ->
  Tpdbt_workloads.Spec.t ->
  Runner.data option
(** The {e finished} result — [None] if the file is absent, malformed,
    suspended, for another benchmark, or recorded under a different
    threshold list (default {!Tpdbt_workloads.Suite.thresholds}). *)

val load_suspended :
  ?thresholds:(string * int) list ->
  dir:string ->
  Tpdbt_workloads.Spec.t ->
  Runner.partial option
(** The {e suspended} mid-run state, under the same validation. *)

val store :
  ?thresholds:(string * int) list ->
  ?resume_suspended:bool ->
  ?on_snapshot_saved:(string -> unit) ->
  dir:string ->
  unit ->
  Runner.store
(** The checkpoint store in [dir] as a sweep's {!Runner.store}, for
    {!Runner.run_many_par} and {!Runner.run_many_supervised}: finished
    benchmarks are restored instead of re-run and fresh results are
    saved; a {!Corrupt} or {!Stale_version} entry is reported as
    damaged (and re-run); mid-run snapshots are saved into the
    benchmark's slot and then reported to [on_snapshot_saved] with the
    benchmark name; [resume_suspended] (default [true]) continues
    suspended entries from their snapshot instead of restarting them.

    At [jobs > 1], finished results are saved on the calling
    (collector) domain as they arrive and the resume scan runs before
    any worker spawns, so checkpoint files are byte-identical to a
    sequential run's at every job count.  Mid-run snapshots are the
    one exception: each is saved by the worker driving that benchmark,
    which is that file's only writer until the task completes. *)

val data_to_string : Runner.data -> string

val data_of_string :
  ?thresholds:(string * int) list ->
  Tpdbt_workloads.Spec.t ->
  string ->
  classified
(** The serialisation itself, for tests.  [data_of_string] needs the
    spec because checkpoints reference the benchmark by name rather
    than re-encoding the descriptor.  It never returns {!Missing} (the
    text exists; an empty string is {!Corrupt}); [thresholds], when
    given, must match the recorded list exactly. *)
