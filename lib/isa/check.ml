type issue =
  | Unreachable_code of { start_pc : int; count : int }
  | Read_before_write of { pc : int; reg : Reg.t }
  | No_reachable_halt
  | Bad_rnd_bound of { pc : int; bound : int }

let reachable (p : Program.t) =
  let n = Array.length p.Program.code in
  let seen = Array.make n false in
  let rec visit pc =
    if pc >= 0 && pc < n && not (seen.(pc)) then begin
      seen.(pc) <- true;
      List.iter visit (Instr.branch_targets ~pc p.Program.code.(pc))
    end
  in
  visit p.Program.entry;
  seen

(* Forward must-analysis: bitmask of registers definitely written on
   every path from the entry to (before) each instruction. *)
let initialized (p : Program.t) reachable =
  let n = Array.length p.Program.code in
  let all = (1 lsl Reg.count) - 1 in
  let before = Array.make n all in
  before.(p.Program.entry) <- 0;
  let changed = ref true in
  while !changed do
    changed := false;
    for pc = 0 to n - 1 do
      if reachable.(pc) then begin
        let instr = p.Program.code.(pc) in
        let after =
          List.fold_left
            (fun mask r -> mask lor (1 lsl Reg.to_int r))
            before.(pc) (Instr.defs instr)
        in
        List.iter
          (fun target ->
            if target >= 0 && target < n then begin
              let met = before.(target) land after in
              if met <> before.(target) then begin
                before.(target) <- met;
                changed := true
              end
            end)
          (Instr.branch_targets ~pc instr)
      end
    done
  done;
  before

let check (p : Program.t) =
  let n = Array.length p.Program.code in
  let seen = reachable p in
  let before = initialized p seen in
  let issues = ref [] in
  (* Unreachable runs. *)
  let pc = ref 0 in
  while !pc < n do
    if not seen.(!pc) then begin
      let start_pc = !pc in
      while !pc < n && not seen.(!pc) do
        incr pc
      done;
      issues := Unreachable_code { start_pc; count = !pc - start_pc } :: !issues
    end
    else incr pc
  done;
  (* Per-instruction checks. *)
  let has_halt = ref false in
  for pc = 0 to n - 1 do
    if seen.(pc) then begin
      let instr = p.Program.code.(pc) in
      (match instr with
      | Instr.Halt -> has_halt := true
      | Instr.Rnd (_, bound) when bound <= 0 ->
          issues := Bad_rnd_bound { pc; bound } :: !issues
      | Instr.Movi _ | Instr.Mov _ | Instr.Binop _ | Instr.Binopi _
      | Instr.Load _ | Instr.Store _ | Instr.Br _ | Instr.Jmp _
      | Instr.Call _ | Instr.Ret | Instr.Rnd _ | Instr.Out _ | Instr.Nop ->
          ());
      List.iter
        (fun reg ->
          if before.(pc) land (1 lsl Reg.to_int reg) = 0 then
            issues := Read_before_write { pc; reg } :: !issues)
        (Instr.uses instr)
    end
  done;
  let positional =
    List.sort
      (fun a b ->
        let pos = function
          | Unreachable_code { start_pc; _ } -> start_pc
          | Read_before_write { pc; _ } -> pc
          | Bad_rnd_bound { pc; _ } -> pc
          | No_reachable_halt -> max_int
        in
        compare (pos a) (pos b))
      !issues
  in
  if !has_halt then positional else positional @ [ No_reachable_halt ]

let pp_issue ppf = function
  | Unreachable_code { start_pc; count } ->
      Format.fprintf ppf "unreachable code: %d instruction(s) from pc %d" count
        start_pc
  | Read_before_write { pc; reg } ->
      Format.fprintf ppf "register %a may be read before written at pc %d"
        Reg.pp reg pc
  | No_reachable_halt ->
      Format.fprintf ppf "no reachable halt: the program cannot stop cleanly"
  | Bad_rnd_bound { pc; bound } ->
      Format.fprintf ppf "rnd with non-positive bound %d at pc %d" bound pc
