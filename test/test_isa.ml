(* Tests for the G32 ISA layer: registers, instructions, encoding,
   assembler, disassembler. *)

module Reg = Tpdbt_isa.Reg
module Instr = Tpdbt_isa.Instr
module Program = Tpdbt_isa.Program
module Encode = Tpdbt_isa.Encode
module Assembler = Tpdbt_isa.Assembler
module Disasm = Tpdbt_isa.Disasm
module Lexer = Tpdbt_isa.Lexer

let check = Alcotest.check
let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* ------------------------------------------------------------------ *)
(* Registers                                                            *)
(* ------------------------------------------------------------------ *)

let test_reg_roundtrip () =
  List.iter
    (fun r ->
      checki "to_int/of_int" (Reg.to_int r) (Reg.to_int (Reg.of_int (Reg.to_int r))))
    Reg.all;
  checki "count" 16 Reg.count;
  checki "all length" 16 (List.length Reg.all)

let test_reg_bounds () =
  checkb "of_int_opt -1" true (Reg.of_int_opt (-1) = None);
  checkb "of_int_opt 16" true (Reg.of_int_opt 16 = None);
  checkb "of_int_opt 15" true (Reg.of_int_opt 15 <> None);
  Alcotest.check_raises "of_int 16"
    (Invalid_argument "Reg.of_int: 16 out of range") (fun () ->
      ignore (Reg.of_int 16))

let test_reg_strings () =
  check Alcotest.string "to_string" "r7" (Reg.to_string (Reg.of_int 7));
  checkb "of_string r15" true
    (Reg.of_string_opt "r15" = Some (Reg.of_int 15));
  checkb "of_string r16" true (Reg.of_string_opt "r16" = None);
  checkb "of_string x3" true (Reg.of_string_opt "x3" = None);
  checkb "of_string empty" true (Reg.of_string_opt "" = None);
  checkb "of_string r" true (Reg.of_string_opt "r" = None)

(* ------------------------------------------------------------------ *)
(* Instructions                                                         *)
(* ------------------------------------------------------------------ *)

let r n = Reg.of_int n

let test_terminators () =
  checkb "br" true (Instr.is_terminator (Instr.Br (Instr.Eq, r 0, r 1, 5)));
  checkb "jmp" true (Instr.is_terminator (Instr.Jmp 3));
  checkb "call" true (Instr.is_terminator (Instr.Call 3));
  checkb "ret" true (Instr.is_terminator Instr.Ret);
  checkb "halt" true (Instr.is_terminator Instr.Halt);
  checkb "movi" false (Instr.is_terminator (Instr.Movi (r 1, 5)));
  checkb "load" false (Instr.is_terminator (Instr.Load (r 1, r 2, 0)))

let test_branch_targets () =
  check
    Alcotest.(list int)
    "br targets" [ 7; 4 ]
    (Instr.branch_targets ~pc:3 (Instr.Br (Instr.Lt, r 0, r 1, 7)));
  check Alcotest.(list int) "jmp" [ 9 ] (Instr.branch_targets ~pc:3 (Instr.Jmp 9));
  check Alcotest.(list int) "ret" [] (Instr.branch_targets ~pc:3 Instr.Ret);
  check
    Alcotest.(list int)
    "call" [ 11; 4 ]
    (Instr.branch_targets ~pc:3 (Instr.Call 11));
  check
    Alcotest.(list int)
    "straight" [ 4 ]
    (Instr.branch_targets ~pc:3 (Instr.Movi (r 0, 1)))

let test_eval_cond () =
  checkb "eq" true (Instr.eval_cond Instr.Eq 3 3);
  checkb "ne" true (Instr.eval_cond Instr.Ne 3 4);
  checkb "lt neg" true (Instr.eval_cond Instr.Lt (-1) 0);
  checkb "ge" true (Instr.eval_cond Instr.Ge 5 5);
  checkb "le" false (Instr.eval_cond Instr.Le 6 5);
  checkb "gt" true (Instr.eval_cond Instr.Gt 6 5)

let test_negate_cond () =
  let conds = [ Instr.Eq; Instr.Ne; Instr.Lt; Instr.Ge; Instr.Le; Instr.Gt ] in
  List.iter
    (fun c ->
      List.iter
        (fun (a, b) ->
          checkb "negation flips" (Instr.eval_cond c a b)
            (not (Instr.eval_cond (Instr.negate_cond c) a b)))
        [ (0, 0); (1, 2); (2, 1); (-5, 5); (5, -5) ])
    conds

(* ------------------------------------------------------------------ *)
(* Program construction                                                 *)
(* ------------------------------------------------------------------ *)

let test_program_validate () =
  let ok = Program.make [| Instr.Movi (r 0, 1); Instr.Halt |] in
  checki "length" 2 (Program.length ok);
  checkb "validate" true (Result.is_ok (Program.validate ok));
  Alcotest.check_raises "empty"
    (Invalid_argument "Program.make: empty code")
    (fun () -> ignore (Program.make [||]));
  (match Program.make [| Instr.Jmp 5; Instr.Halt |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "out-of-range target accepted");
  match Program.make ~entry:9 [| Instr.Halt |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "bad entry accepted"

(* ------------------------------------------------------------------ *)
(* Encoding                                                             *)
(* ------------------------------------------------------------------ *)

let sample_instrs =
  [
    Instr.Nop;
    Instr.Halt;
    Instr.Movi (r 3, -42);
    Instr.Mov (r 15, r 0);
    Instr.Binop (Instr.Add, r 1, r 2, r 3);
    Instr.Binop (Instr.Shr, r 4, r 5, r 6);
    Instr.Binopi (Instr.Mul, r 7, r 8, 1 lsl 30);
    Instr.Binopi (Instr.Xor, r 9, r 10, -7);
    Instr.Load (r 11, r 12, 4095);
    Instr.Store (r 13, r 14, -16);
    Instr.Br (Instr.Le, r 1, r 2, 123456);
    Instr.Jmp 0;
    Instr.Call 777;
    Instr.Ret;
    Instr.Rnd (r 2, 1000);
    Instr.Out (r 5);
  ]

let test_encode_roundtrip () =
  List.iter
    (fun instr ->
      let bytes = Encode.encode_instr instr in
      checki "size" Encode.instr_size (Bytes.length bytes);
      match Encode.decode_instr bytes ~pos:0 with
      | Ok decoded ->
          checkb (Instr.to_string instr) true (Instr.equal instr decoded)
      | Error msg -> Alcotest.fail msg)
    sample_instrs

let test_encode_program_roundtrip () =
  let p =
    Program.make ~entry:1
      ~data_init:[ (0, 99); (500, -3) ]
      [| Instr.Nop; Instr.Movi (r 1, 7); Instr.Jmp 1; Instr.Halt |]
  in
  match Encode.decode_program (Encode.encode_program p) with
  | Error msg -> Alcotest.fail msg
  | Ok q ->
      checki "entry" p.Program.entry q.Program.entry;
      checki "len" (Program.length p) (Program.length q);
      checkb "data" true (p.Program.data_init = q.Program.data_init);
      checkb "code" true (p.Program.code = q.Program.code)

let test_decode_garbage () =
  checkb "truncated" true
    (Result.is_error (Encode.decode_program (Bytes.create 3)));
  let bad = Bytes.make 16 '\255' in
  checkb "bad magic" true (Result.is_error (Encode.decode_program bad));
  checkb "bad opcode" true
    (Result.is_error (Encode.decode_instr (Bytes.make 8 '\255') ~pos:0))

let test_encode_file_roundtrip () =
  let p = Program.make [| Instr.Movi (r 1, 5); Instr.Out (r 1); Instr.Halt |] in
  let path = Filename.temp_file "tpdbt" ".g32" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Encode.write_file path p;
      match Encode.read_file path with
      | Ok q -> checkb "roundtrip" true (p.Program.code = q.Program.code)
      | Error msg -> Alcotest.fail msg)

(* ------------------------------------------------------------------ *)
(* Lexer                                                                *)
(* ------------------------------------------------------------------ *)

let tokens_of src =
  match Lexer.tokenize src with
  | Ok toks -> List.map (fun t -> t.Lexer.token) toks
  | Error msg -> Alcotest.fail msg

let test_lexer_basic () =
  checkb "mnemonic and operands" true
    (tokens_of "movi r1, 42"
    = [ Lexer.Ident "movi"; Lexer.Ident "r1"; Lexer.Comma; Lexer.Int 42; Lexer.Eof ]);
  checkb "negative" true
    (tokens_of "-7" = [ Lexer.Int (-7); Lexer.Eof ]);
  checkb "label" true
    (tokens_of "loop:" = [ Lexer.Ident "loop"; Lexer.Colon; Lexer.Eof ]);
  checkb "comment" true (tokens_of "; hi there" = [ Lexer.Eof ]);
  checkb "directive" true
    (tokens_of ".entry main"
    = [ Lexer.Directive "entry"; Lexer.Ident "main"; Lexer.Eof ]);
  checkb "mem operand" true
    (tokens_of "[r3+8]"
    = [ Lexer.Lbracket; Lexer.Ident "r3"; Lexer.Int 8; Lexer.Rbracket; Lexer.Eof ])

let test_lexer_lines () =
  match Lexer.tokenize "a\nb\nc" with
  | Error msg -> Alcotest.fail msg
  | Ok toks ->
      let lines =
        List.filter_map
          (fun t ->
            match t.Lexer.token with
            | Lexer.Ident _ -> Some t.Lexer.line
            | _ -> None)
          toks
      in
      checkb "line numbers" true (lines = [ 1; 2; 3 ])

let test_lexer_errors () =
  checkb "stray char" true (Result.is_error (Lexer.tokenize "mov @"));
  checkb "bare dot" true (Result.is_error (Lexer.tokenize ". foo"));
  checkb "dangling sign" true (Result.is_error (Lexer.tokenize "movi r1, -"))

(* ------------------------------------------------------------------ *)
(* Assembler                                                            *)
(* ------------------------------------------------------------------ *)

let test_assemble_basic () =
  let p =
    Assembler.assemble_exn
      {|
.entry main
main:
    movi r1, 10
loop:
    subi r1, r1, 1
    bgt r1, r0, loop
    halt
|}
  in
  checki "length" 4 (Program.length p);
  checki "entry" 0 p.Program.entry;
  checkb "branch resolved" true
    (Program.instr p 2 = Instr.Br (Instr.Gt, r 1, r 0, 1))

let test_assemble_forward_refs () =
  let p =
    Assembler.assemble_exn
      {|
    jmp end
    nop
end:
    halt
|}
  in
  checkb "forward jmp" true (Program.instr p 0 = Instr.Jmp 2)

let test_assemble_mem_and_data () =
  let p =
    Assembler.assemble_exn
      {|
.data 5 42
.data 6 -1
    ld r1, [r0+5]
    st r1, [r2]
    halt
|}
  in
  checkb "data" true (p.Program.data_init = [ (5, 42); (6, -1) ]);
  checkb "ld" true (Program.instr p 0 = Instr.Load (r 1, r 0, 5));
  checkb "st offset 0" true (Program.instr p 1 = Instr.Store (r 1, r 2, 0))

let test_assemble_errors () =
  let expect_error src = checkb src true (Result.is_error (Assembler.assemble src)) in
  expect_error "jmp nowhere\nhalt";
  expect_error "foo r1, r2";
  expect_error "main:\nmain:\nhalt";
  expect_error ".entry missing\nhalt";
  expect_error "movi r99, 1\nhalt";
  expect_error ".entry a\n.entry b\na:\nb:\nhalt";
  (* A non-positive rnd bound is not a syntax error: the checker flags
     it and the machine traps on it, so disassembly stays reversible. *)
  match Tpdbt_isa.Check.check (Assembler.assemble_exn "rnd r1, 0\nhalt") with
  | [ Tpdbt_isa.Check.Bad_rnd_bound { pc = 0; bound = 0 } ] -> ()
  | _ -> Alcotest.fail "rnd r1, 0 not assembled and flagged"

let test_assemble_all_mnemonics () =
  let p =
    Assembler.assemble_exn
      {|
start:
    add r1, r2, r3
    subi r4, r5, -2
    mul r6, r7, r8
    divi r9, r10, 2
    rem r11, r12, r13
    andi r1, r1, 255
    or r2, r2, r3
    xori r4, r4, 1
    shl r5, r5, r6
    shri r7, r7, 3
    mov r8, r9
    rnd r10, 6
    out r10
    beq r1, r2, start
    bne r1, r2, start
    blt r1, r2, start
    bge r1, r2, start
    ble r1, r2, start
    bgt r1, r2, start
    call start
    ret
    nop
    halt
|}
  in
  checki "all mnemonics" 23 (Program.length p)

(* ------------------------------------------------------------------ *)
(* Disassembler                                                         *)
(* ------------------------------------------------------------------ *)

let test_disasm_roundtrip () =
  let src =
    {|
.entry main
.data 3 17
main:
    movi r1, 5
    rnd r2, 10
loop:
    subi r1, r1, 1
    ld r3, [r1+100]
    st r3, [r1-1]
    beq r1, r0, done
    jmp loop
done:
    call fn
    out r2
    halt
fn:
    addi r2, r2, 1
    ret
|}
  in
  let p = Assembler.assemble_exn src in
  let text = Disasm.disassemble p in
  let q = Assembler.assemble_exn text in
  checkb "code roundtrip" true (p.Program.code = q.Program.code);
  checki "entry roundtrip" p.Program.entry q.Program.entry;
  checkb "data roundtrip" true (p.Program.data_init = q.Program.data_init)

(* ------------------------------------------------------------------ *)
(* Static checker                                                       *)
(* ------------------------------------------------------------------ *)

module Check = Tpdbt_isa.Check

let issues_of src = Check.check (Assembler.assemble_exn src)

let test_check_clean_program () =
  checkb "clean loop" true
    (issues_of
       {|
main:
    movi r1, 0
    movi r2, 10
loop:
    addi r1, r1, 1
    blt r1, r2, loop
    halt
|}
    = [])

let test_check_unreachable () =
  match issues_of "main:\n    jmp end\n    nop\n    nop\nend:\n    halt" with
  | [ Check.Unreachable_code { start_pc = 1; count = 2 } ] -> ()
  | issues ->
      Alcotest.failf "unexpected: %s"
        (String.concat "; "
           (List.map (Format.asprintf "%a" Check.pp_issue) issues))

let test_check_read_before_write () =
  match issues_of "main:\n    addi r5, r5, 1\n    halt" with
  | [ Check.Read_before_write { pc = 0; reg } ] ->
      checki "register r5" 5 (Reg.to_int reg)
  | _ -> Alcotest.fail "expected a read-before-write issue"

let test_check_branch_paths_meet () =
  (* r3 written on only one arm of a branch: reading it afterwards is
     flagged; writing it on both arms is clean. *)
  let one_arm =
    {|
main:
    movi r1, 1
    beq r1, r1, a
    movi r3, 5
a:
    out r3
    halt
|}
  in
  checkb "one-arm write flagged" true
    (List.exists
       (function Check.Read_before_write _ -> true | _ -> false)
       (issues_of one_arm));
  let both_arms =
    {|
main:
    movi r1, 1
    beq r1, r1, a
    movi r3, 5
    jmp b
a:
    movi r3, 6
b:
    out r3
    halt
|}
  in
  checkb "both-arm write clean" true (issues_of both_arms = [])

let test_check_no_halt () =
  match issues_of "main:\nloop:\n    jmp loop" with
  | [ Check.No_reachable_halt ] -> ()
  | _ -> Alcotest.fail "expected no-reachable-halt"

let test_check_unreachable_halt_still_flagged () =
  (* A halt exists but is unreachable. *)
  let issues = issues_of "main:\nloop:\n    jmp loop\n    halt" in
  checkb "halt unreachable" true (List.mem Check.No_reachable_halt issues)

let test_check_loop_back_init () =
  (* A register written only inside a loop body then read at the top of
     the next iteration is fine (written on every path that reaches the
     read after the first write... here it is read before the first
     write on the entry path, so it must be flagged). *)
  let src =
    {|
main:
    movi r1, 0
loop:
    addi r2, r3, 1      ; r3 never initialised before first iteration
    mov r3, r2
    addi r1, r1, 1
    movi r4, 3
    blt r1, r4, loop
    halt
|}
  in
  checkb "loop-carried uninitialised read flagged" true
    (List.exists
       (function
         | Check.Read_before_write { reg; _ } -> Reg.to_int reg = 3
         | _ -> false)
       (issues_of src))

(* ------------------------------------------------------------------ *)
(* Property tests                                                       *)
(* ------------------------------------------------------------------ *)

let instr_gen =
  let open QCheck.Gen in
  let reg = map Reg.of_int (int_bound 15) in
  let imm = int_range (-1_000_000) 1_000_000 in
  let target = int_bound 1000 in
  let binop =
    oneofl
      [
        Instr.Add; Instr.Sub; Instr.Mul; Instr.Div; Instr.Rem; Instr.And;
        Instr.Or; Instr.Xor; Instr.Shl; Instr.Shr;
      ]
  in
  let cond =
    oneofl [ Instr.Eq; Instr.Ne; Instr.Lt; Instr.Ge; Instr.Le; Instr.Gt ]
  in
  oneof
    [
      return Instr.Nop;
      return Instr.Halt;
      return Instr.Ret;
      map2 (fun r i -> Instr.Movi (r, i)) reg imm;
      map2 (fun a b -> Instr.Mov (a, b)) reg reg;
      map (fun ((op, a), (b, c)) -> Instr.Binop (op, a, b, c)) (pair (pair binop reg) (pair reg reg));
      map (fun ((op, a), (b, i)) -> Instr.Binopi (op, a, b, i)) (pair (pair binop reg) (pair reg imm));
      map (fun ((a, b), i) -> Instr.Load (a, b, i)) (pair (pair reg reg) imm);
      map (fun ((a, b), i) -> Instr.Store (a, b, i)) (pair (pair reg reg) imm);
      map (fun ((c, a), (b, t)) -> Instr.Br (c, a, b, t)) (pair (pair cond reg) (pair reg target));
      map (fun t -> Instr.Jmp t) target;
      map (fun t -> Instr.Call t) target;
      map2 (fun a b -> Instr.Rnd (a, b + 1)) reg (int_bound 10_000);
      map (fun a -> Instr.Out a) reg;
    ]

let instr_arbitrary = QCheck.make ~print:Instr.to_string instr_gen

let prop_encode_roundtrip =
  QCheck.Test.make ~name:"encode/decode roundtrip" ~count:500 instr_arbitrary
    (fun instr ->
      match Encode.decode_instr (Encode.encode_instr instr) ~pos:0 with
      | Ok decoded -> Instr.equal instr decoded
      | Error _ -> false)

let prop_pp_parses =
  (* Pretty-printed straight-line instructions re-assemble to themselves. *)
  let straight =
    QCheck.make ~print:Instr.to_string
      (QCheck.Gen.map
         (fun i ->
           match i with
           | Instr.Br _ | Instr.Jmp _ | Instr.Call _ -> Instr.Nop
           | other -> other)
         instr_gen)
  in
  QCheck.Test.make ~name:"pp output reassembles" ~count:300 straight
    (fun instr ->
      let src = Instr.to_string instr ^ "\nhalt\n" in
      match Assembler.assemble src with
      | Ok p -> Instr.equal (Program.instr p 0) instr
      | Error _ -> false)

(* Fuzz: the assembler never raises on arbitrary text — it returns
   Ok or Error. *)
let prop_assembler_total =
  let open QCheck in
  let fragment =
    Gen.oneofl
      [
        "movi"; "add"; "ld"; "st"; "beq"; "jmp"; "call"; "ret"; "halt";
        "r1"; "r99"; "loop:"; ".entry"; ".data"; ","; "["; "]"; "+"; "-42";
        "12345"; ";comment"; "\n"; " "; "@"; ":"; "loop"; "....";
      ]
  in
  let gen = Gen.(map (String.concat " ") (list_size (int_range 0 30) fragment)) in
  Test.make ~name:"assembler is total on garbage" ~count:500
    (make ~print:(fun s -> s) gen)
    (fun src ->
      match Assembler.assemble src with Ok _ | Error _ -> true)

(* Fuzz: the binary decoder never raises on arbitrary bytes. *)
let prop_decoder_total =
  let open QCheck in
  let gen = Gen.(map Bytes.of_string (string_size (int_range 0 200))) in
  Test.make ~name:"decoder is total on garbage" ~count:500
    (make gen)
    (fun bytes ->
      match Encode.decode_program bytes with Ok _ | Error _ -> true)

let suite =
  [
    ("reg roundtrip", `Quick, test_reg_roundtrip);
    ("reg bounds", `Quick, test_reg_bounds);
    ("reg strings", `Quick, test_reg_strings);
    ("terminators", `Quick, test_terminators);
    ("branch targets", `Quick, test_branch_targets);
    ("eval cond", `Quick, test_eval_cond);
    ("negate cond", `Quick, test_negate_cond);
    ("program validate", `Quick, test_program_validate);
    ("encode roundtrip", `Quick, test_encode_roundtrip);
    ("encode program roundtrip", `Quick, test_encode_program_roundtrip);
    ("decode garbage", `Quick, test_decode_garbage);
    ("encode file roundtrip", `Quick, test_encode_file_roundtrip);
    ("lexer basic", `Quick, test_lexer_basic);
    ("lexer lines", `Quick, test_lexer_lines);
    ("lexer errors", `Quick, test_lexer_errors);
    ("assemble basic", `Quick, test_assemble_basic);
    ("assemble forward refs", `Quick, test_assemble_forward_refs);
    ("assemble mem and data", `Quick, test_assemble_mem_and_data);
    ("assemble errors", `Quick, test_assemble_errors);
    ("assemble all mnemonics", `Quick, test_assemble_all_mnemonics);
    ("disasm roundtrip", `Quick, test_disasm_roundtrip);
    ("check clean program", `Quick, test_check_clean_program);
    ("check unreachable", `Quick, test_check_unreachable);
    ("check read before write", `Quick, test_check_read_before_write);
    ("check branch paths meet", `Quick, test_check_branch_paths_meet);
    ("check no halt", `Quick, test_check_no_halt);
    ("check unreachable halt", `Quick, test_check_unreachable_halt_still_flagged);
    ("check loop-carried init", `Quick, test_check_loop_back_init);
    QCheck_alcotest.to_alcotest prop_assembler_total;
    QCheck_alcotest.to_alcotest prop_decoder_total;
    QCheck_alcotest.to_alcotest prop_encode_roundtrip;
    QCheck_alcotest.to_alcotest prop_pp_parses;
  ]
