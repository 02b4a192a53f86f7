(** Deterministic pseudo-random stream (SplitMix64).

    The guest-visible [rnd] instruction draws from this stream, so a run
    is fully determined by the program, its initial data, and the seed.
    Distinct inputs of a synthetic benchmark use distinct seeds. *)

type t

val create : seed:int64 -> t
val copy : t -> t

val state : t -> int * int * int * int
(** [(hi, lo, zhi, zlo)] — the two 32-bit state limbs followed by the
    two limbs of the last drawn value.  Together with {!set} this
    round-trips the generator exactly, for mid-run snapshots. *)

val set : t -> int * int * int * int -> unit
(** Overwrite an existing generator in place with {!state} output.
    @raise Invalid_argument if any limb is outside [0, 2^32). *)

val next_int64 : t -> int64
(** Next raw 64-bit value. *)

val below : t -> int -> int
(** [below t bound] is uniform in [0, bound).
    @raise Invalid_argument if [bound <= 0]. *)

val float : t -> float
(** Uniform in [0, 1). *)
