(** Fault kinds and the record of what a fault campaign did.

    A fault {e arm} is a latent failure scheduled by a {!Plan}: it names
    the kind of failure, the guest-instruction step from which it is
    armed, and a salt used to pick the victim deterministically.  The
    arm fires at the {e first} matching injection site the engine
    reaches once its step counter passes [step] — keying the plan off
    the logical clock rather than off call counts makes a plan's effect
    a pure function of (program, input seed, plan), independent of how
    the engine interleaves its internal work.

    A fired arm becomes a {e shot}; arms whose site never came up (e.g.
    a retranslation failure armed after the last optimisation round)
    stay unfired and are reported as such. *)

type kind =
  | Retranslate_fail
      (** optimised retranslation of a region fails; the engine must
          retry (bounded, with a decayed pool trigger) or give up *)
  | Block_corrupt
      (** a translated block's code is corrupted; the engine must throw
          the translation away and, if the block sits in a region,
          dissolve that region back to cold profiling code *)
  | Region_abort
      (** region formation aborts mid-way; the half-built region's
          members return to cold profiling code *)
  | Guest_trap
      (** the current guest instruction is poisoned, raising an
          illegal-instruction trap — the engine must surface it as a
          typed error, never as an exception *)
  | Silent_corruption
      (** a resident optimised region's translated code is corrupted
          {e without} trapping: a real translator would keep executing
          it and silently produce wrong results.  Only the
          shadow-execution oracle can catch it — a campaign trial where
          corrupted code ran and the oracle never flagged it is
          classified [uncaught] *)
  | Cache_thrash
      (** the whole code cache is flushed at once — every translation
          and region must be rebuilt (the pathological pressure case);
          guest behaviour must be unchanged *)

val all_kinds : kind list
(** In declaration order. *)

val recoverable_kinds : kind list
(** The kinds the engine survives with unchanged guest behaviour and
    no oracle required: [Retranslate_fail], [Block_corrupt],
    [Region_abort] and [Cache_thrash].  [Guest_trap] always ends the
    run with a typed error; [Silent_corruption] is only caught when
    the shadow oracle is on. *)

val kind_name : kind -> string
(** Stable snake_case identifier, e.g. ["retranslate_fail"]. *)

val kind_of_name : string -> kind option

type arm = { step : int; kind : kind; salt : int64 }
(** Fire at the first [kind]-site reached once the guest step counter
    is at least [step]; [salt] selects the victim (block, region). *)

type shot = { arm : arm; fired_step : int; target : int }
(** [target] is the victim's id — a block id ([Block_corrupt]), region
    id ([Retranslate_fail], [Region_abort], [Silent_corruption]), pc
    ([Guest_trap]) or the number of entries flushed ([Cache_thrash]);
    [-1] when the arm fired but found no victim (e.g. corrupting a
    cache that holds no translations yet). *)

type report = { fired : shot list; unfired : arm list }
(** [fired] in firing order; [unfired] in armed order. *)

val injected : report -> int
(** Number of shots that hit a victim ([target >= 0]). *)

val pp_arm : Format.formatter -> arm -> unit
