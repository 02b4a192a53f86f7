(** Ablation studies for the design choices DESIGN.md calls out.

    Each study fixes the retranslation threshold at the paper's sweet
    spot (label 2k, scaled 20) and varies one mechanism of the
    translator, reporting — averaged over a set of benchmarks —
    the accuracy metrics, the side-exit rate, and the performance-model
    cycles relative to the study's first variant. *)

val min_branch_prob : ?benchmarks:string list -> unit -> Table.t
(** The trace-grower's "minimum branch probability": 0.5 / 0.6 / 0.7
    (the paper's [5]) / 0.85 / 0.95. *)

val pool_trigger : ?benchmarks:string list -> unit -> Table.t
(** Candidate-pool size that triggers the optimisation phase:
    1 / 4 / 16 / 64 / 256. *)

val adaptive : ?benchmarks:string list -> unit -> Table.t
(** Fixed two-phase translation vs adaptive region dissolution
    (side-exit monitoring, the paper's §5 proposal), on the
    phase-changing benchmarks where it should matter. *)

val all : ?benchmarks:string list -> unit -> (string * Table.t) list
