(** Static checks on guest programs.

    A small linter used to validate generated workloads and hand-written
    assembly before running them:

    - {e unreachable code}: instructions no control path from the entry
      reaches (calls are assumed to return for reachability purposes);
    - {e read-before-write}: a register read on some path before any
      instruction wrote it (the VM zero-initialises registers, so this
      is a lint, not an error — generated code should still never do
      it);
    - {e no reachable halt}: no [halt] is reachable, so the program can
      only stop by trap or budget;
    - {e bad rnd bound}: a reachable [rnd] with a non-positive bound
      (traps at runtime). *)

type issue =
  | Unreachable_code of { start_pc : int; count : int }
      (** a maximal run of unreachable instructions *)
  | Read_before_write of { pc : int; reg : Reg.t }
  | No_reachable_halt
  | Bad_rnd_bound of { pc : int; bound : int }

val check : Program.t -> issue list
(** All issues, ordered by program position ([No_reachable_halt]
    last). *)

val pp_issue : Format.formatter -> issue -> unit
