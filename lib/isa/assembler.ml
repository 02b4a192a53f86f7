let ( let* ) = Result.bind

module String_map = Map.Make (String)

(* Pass 1: map labels to instruction indices; collect instruction
   statements (with their source lines) and directives. *)
let layout stmts =
  let rec go stmts pc labels entry data rev_ins =
    match stmts with
    | [] -> Ok (labels, entry, List.rev data, List.rev rev_ins)
    | { Asm_parser.stmt; line } :: rest -> (
        match stmt with
        | Asm_parser.Label_def name ->
            if String_map.mem name labels then
              Error (Printf.sprintf "line %d: duplicate label %S" line name)
            else go rest pc (String_map.add name pc labels) entry data rev_ins
        | Asm_parser.Entry name -> (
            match entry with
            | Some _ -> Error (Printf.sprintf "line %d: duplicate .entry" line)
            | None -> go rest pc labels (Some name) data rev_ins)
        | Asm_parser.Data (addr, value) ->
            go rest pc labels entry ((addr, value) :: data) rev_ins
        | Asm_parser.Ins pseudo ->
            go rest (pc + 1) labels entry data ((pseudo, line) :: rev_ins))
  in
  go stmts 0 String_map.empty None [] []

let resolve labels line = function
  | Asm_parser.Addr a -> Ok a
  | Asm_parser.Name name -> (
      match String_map.find_opt name labels with
      | Some pc -> Ok pc
      | None -> Error (Printf.sprintf "line %d: undefined label %S" line name))

let lower labels (pseudo, line) =
  match pseudo with
  | Asm_parser.Movi (rd, imm) -> Ok (Instr.Movi (rd, imm))
  | Asm_parser.Mov (rd, rs) -> Ok (Instr.Mov (rd, rs))
  | Asm_parser.Binop (op, rd, rs1, rs2) -> Ok (Instr.Binop (op, rd, rs1, rs2))
  | Asm_parser.Binopi (op, rd, rs, imm) -> Ok (Instr.Binopi (op, rd, rs, imm))
  | Asm_parser.Load (rd, base, off) -> Ok (Instr.Load (rd, base, off))
  | Asm_parser.Store (rsrc, base, off) -> Ok (Instr.Store (rsrc, base, off))
  | Asm_parser.Br (c, rs1, rs2, target) ->
      let* addr = resolve labels line target in
      Ok (Instr.Br (c, rs1, rs2, addr))
  | Asm_parser.Jmp target ->
      let* addr = resolve labels line target in
      Ok (Instr.Jmp addr)
  | Asm_parser.Call target ->
      let* addr = resolve labels line target in
      Ok (Instr.Call addr)
  | Asm_parser.Ret -> Ok Instr.Ret
  | Asm_parser.Rnd (rd, bound) ->
      (* A non-positive bound is well-formed text: [Check] reports it
         and the machine traps on it ([Invalid_rnd_bound]), so every
         program [Disasm] prints assembles back. *)
      Ok (Instr.Rnd (rd, bound))
  | Asm_parser.Out rs -> Ok (Instr.Out rs)
  | Asm_parser.Halt -> Ok Instr.Halt
  | Asm_parser.Nop -> Ok Instr.Nop

let assemble src =
  let* tokens = Lexer.tokenize src in
  let* stmts = Asm_parser.parse tokens in
  let* labels, entry_label, data_init, pseudo_instrs = layout stmts in
  let rec lower_all acc = function
    | [] -> Ok (List.rev acc)
    | item :: rest ->
        let* instr = lower labels item in
        lower_all (instr :: acc) rest
  in
  let* code = lower_all [] pseudo_instrs in
  let* entry =
    match entry_label with
    | None -> Ok 0
    | Some name -> (
        match String_map.find_opt name labels with
        | Some pc -> Ok pc
        | None -> Error (Printf.sprintf ".entry: undefined label %S" name))
  in
  match Program.make ~entry ~data_init (Array.of_list code) with
  | p -> Ok p
  | exception Invalid_argument msg -> Error msg

exception Assembly_error of string

let () =
  Printexc.register_printer (function
    | Assembly_error msg -> Some (Printf.sprintf "Assembler.Assembly_error %S" msg)
    | _ -> None)

let assemble_exn src =
  match assemble src with Ok p -> p | Error msg -> raise (Assembly_error msg)
