(** Phase detection over checkpointed profiles.

    The paper (§1, §5) attributes most initial-prediction failures to
    programs with {e phases}: intervals whose branch behaviour differs
    from the whole-run average.  This module detects such phases
    offline from a series of cumulative profile checkpoints
    (the [snapshot] of each {!Tpdbt_dbt.Engine.run} that a
    [snapshot_every] cadence suspends):

    - consecutive checkpoints are differenced into {e window} profiles
      (per-block use/taken deltas);
    - the distance between adjacent windows is the weighted mean
      absolute difference of their branch probabilities (weights:
      window execution counts);
    - a window boundary whose distance exceeds a threshold is a
      {e change point}. *)

type window = {
  start_steps : int;
  end_steps : int;
  use : int array;  (** per-block executions within the window *)
  taken : int array;
}

val windows : (int * Tpdbt_dbt.Snapshot.t) list -> window list
(** Difference a chronological [(steps, cumulative snapshot)] series
    (an initial implicit all-zero checkpoint at step 0 is assumed).
    @raise Invalid_argument if the series is not strictly increasing in
    steps or the snapshots disagree on block count. *)

type change_point = { steps : int; distance : float; shift : float }

val change_points :
  ?threshold:float ->
  ?shift_threshold:float ->
  Tpdbt_dbt.Block_map.t ->
  (int * Tpdbt_dbt.Snapshot.t) list ->
  change_point list
(** Boundaries between adjacent windows whose distance exceeds
    [threshold] (default 0.1) {e or} whose largest per-block
    branch-probability change (over conditional blocks executed at
    least 16 times in each window) exceeds [shift_threshold] (default
    0.3); chronological.  The shift criterion catches a phase change
    in a moderately-hot branch that the frequency-weighted mean would
    drown out. *)
