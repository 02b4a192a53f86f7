module Machine = Tpdbt_vm.Machine
module Fault = Tpdbt_faults.Fault

(* Version 1: deterministic text serialisation of a mid-run engine
   image, sealed by {!Durable} like the checkpoint store (magic line,
   then "crc <hex> <len>", then exactly <len> payload bytes).  Floats
   travel as %h so they round-trip bit-exactly; the config and program
   are not stored, only digests — restore recomputes all derived state
   from the caller's copies and the digests guard against resuming
   under the wrong ones. *)
let magic = "TPDBT-SNAP 1"

type parsed = {
  sn_config_digest : string;
  sn_program_digest : string;
  sn_image : Engine.image;
}

type classified =
  | Snapshot of parsed
  | Stale_version of string
  | Corrupt of string

(* ---- digests ----------------------------------------------------------- *)

(* Everything that steers execution; the suspension machinery itself
   (deadline, snapshot_every, suspend_on_deadline) is deliberately
   excluded so a resume may re-arm its own triggers, and so are the
   sink (observation only) and the fault plan (the image carries the
   injector's full cursor instead). *)
let config_digest (c : Engine.config) =
  let p = c.Engine.perf in
  Durable.crc_hex
    (Printf.sprintf
       "%d %d %h %d %b %b %b %b %b %h %d %d %h %h %h %h %h %h %h %h %h %d %d \
        %s %s %d %d %d"
       c.Engine.threshold c.Engine.pool_trigger c.Engine.min_branch_prob
       c.Engine.max_region_slots c.Engine.enable_duplication
       c.Engine.enable_diamonds c.Engine.trace_scheduling
       c.Engine.regions_across_calls c.Engine.adaptive
       c.Engine.reopt_side_exit_rate c.Engine.reopt_min_entries
       c.Engine.reopt_limit p.Perf_model.cold_translate_per_instr
       p.Perf_model.profiled_exec_per_instr p.Perf_model.profiling_op_cost
       p.Perf_model.translated_exec_per_instr p.Perf_model.optimize_per_instr
       p.Perf_model.optimized_dispatch p.Perf_model.side_exit_penalty
       p.Perf_model.evict_per_instr p.Perf_model.shadow_replay_per_instr
       c.Engine.max_steps c.Engine.retry_limit
       (match c.Engine.cache_capacity with
       | None -> "-"
       | Some n -> string_of_int n)
       (Code_cache.policy_name c.Engine.cache_policy)
       c.Engine.cache_backoff c.Engine.shadow_sample c.Engine.max_quarantines)

let program_digest (p : Tpdbt_isa.Program.t) =
  (* The program is pure immutable data (no closures, no cycles), so
     an unshared marshal of it is a canonical byte string. *)
  Digest.to_hex (Digest.string (Marshal.to_string p [ Marshal.No_sharing ]))

(* ---- serialisation ----------------------------------------------------- *)

module D = Durable

(* The payload's lines, in file order. *)
module L = struct
  let int64 = D.conv Int64.to_string Int64.of_string_opt D.word
  let fault_kind = D.conv Fault.kind_name Fault.kind_of_name D.word

  let role =
    D.enum
      [ ("t", Region.Taken); ("n", Region.Not_taken); ("a", Region.Always) ]

  let edge =
    D.conv
      (fun (e : Region.edge) -> (e.Region.src, e.Region.dst, e.Region.role))
      (fun (src, dst, role) -> Some { Region.src; dst; role })
      (D.t3 D.int D.int role)

  let config = D.line "config" D.word
  let program = D.line "program" D.word
  let mem_words = D.line "mem_words" D.int
  let regs = D.array "regs" D.int
  let mem = D.array "mem" (D.pair D.int D.int)
  let pc = D.line "pc" D.int
  let ret = D.array "ret" D.int
  let prng = D.line "prng" (D.t4 D.int D.int D.int D.int)
  let outputs = D.array "outputs" D.int
  let msteps = D.line "msteps" D.int
  let halted = D.line "halted" D.flag
  let poisoned = D.list "poisoned" D.int
  let use = D.array "use" D.int
  let taken = D.array "taken" D.int
  let bstate = D.array "bstate" D.int
  let touched = D.array "touched" D.flag
  let dissolve = D.array "dissolve" D.int

  let region_head =
    D.line "region"
      (D.pair D.int (D.enum [ ("trace", Region.Trace); ("loop", Region.Loop) ]))

  let slots = D.array "slots" D.int
  let edges = D.list "edges" edge
  let back = D.list "back" edge
  let fuse = D.array "fuse" D.int
  let ftaken = D.array "ftaken" D.int
  let monitor = D.line "monitor" (D.t5 D.int D.int D.int D.int D.flag)

  (* A region and its monitor, keyed by the region's id. *)
  let regions =
    D.records "regions"
      (D.record
         (fun b ((r : Region.t), (_, mon)) ->
           D.put region_head b (r.Region.id, r.Region.kind);
           D.put slots b r.Region.slots;
           D.put edges b r.Region.edges;
           D.put back b r.Region.back_edges;
           D.put fuse b r.Region.frozen_use;
           D.put ftaken b r.Region.frozen_taken;
           D.put monitor b mon)
         (fun rd ->
           let id, kind = D.get region_head rd in
           let slots = D.get slots rd in
           let edges = D.get edges rd in
           let back_edges = D.get back rd in
           let frozen_use = D.get fuse rd in
           let frozen_taken = D.get ftaken rd in
           let r =
             {
               Region.id;
               kind;
               slots;
               edges;
               back_edges;
               frozen_use;
               frozen_taken;
             }
           in
           (match Region.validate r with
           | Ok () -> ()
           | Error reason ->
               raise (D.Malformed (Printf.sprintf "region %d: %s" id reason)));
           (r, (id, D.get monitor rd))))

  let next_region = D.line "next_region" D.int
  let pool = D.list "pool" D.int
  let pool_trigger = D.line "pool_trigger" D.int
  let fault_fails = D.array "fault_fails" D.int
  let quarantined = D.array "quarantined" D.flag
  let qcount = D.line "qcount" D.int
  let degraded = D.line "degraded" D.flag
  let last_round = D.line "last_round" D.int

  let salt =
    D.conv
      (function None -> "-" | Some s -> Int64.to_string s)
      (function
        | "-" -> Some None
        | s -> Option.map Option.some (Int64.of_string_opt s))
      D.word

  let cache =
    D.records "cache" (D.line "centry" (D.t5 D.int D.int D.int D.int salt))

  let cache_stats = D.line "cache_stats" (D.t4 D.int D.int D.int D.int)

  let arm =
    D.conv
      (fun (a : Fault.arm) -> (a.Fault.step, a.Fault.kind, a.Fault.salt))
      (fun (step, kind, salt) -> Some { Fault.step; kind; salt })
      (D.t3 D.int fault_kind int64)

  let pending = D.records "pending" (D.line "arm" arm)

  let fired =
    D.records "fired"
      (D.line "shot"
         (D.conv
            (fun (s : Fault.shot) ->
              (s.Fault.arm, s.Fault.fired_step, s.Fault.target))
            (fun (arm, fired_step, target) ->
              Some { Fault.arm; fired_step; target })
            (D.t3 arm D.int D.int)))
end

let to_string ~config ~program (im : Engine.image) =
  let m = im.Engine.ex_machine in
  let monitor (r : Region.t) =
    match List.assoc_opt r.Region.id im.Engine.ex_monitors with
    | Some mon -> (r, (r.Region.id, mon))
    | None -> invalid_arg "Exec_snapshot: region without monitor"
  in
  Durable.seal ~magic
    (D.write (fun b ->
         D.put L.config b (config_digest config);
         D.put L.program b (program_digest program);
         D.put L.mem_words b m.Machine.im_mem_words;
         D.put L.regs b m.Machine.im_regs;
         D.put L.mem b m.Machine.im_mem;
         D.put L.pc b m.Machine.im_pc;
         D.put L.ret b m.Machine.im_ret_stack;
         D.put L.prng b m.Machine.im_prng;
         D.put L.outputs b m.Machine.im_outputs;
         D.put L.msteps b m.Machine.im_steps;
         D.put L.halted b m.Machine.im_halted;
         D.put L.poisoned b m.Machine.im_poisoned;
         D.put L.use b im.Engine.ex_use;
         D.put L.taken b im.Engine.ex_taken;
         D.put L.bstate b im.Engine.ex_state;
         D.put L.touched b im.Engine.ex_touched;
         D.put L.dissolve b im.Engine.ex_dissolve;
         D.put L.regions b (List.map monitor im.Engine.ex_regions);
         D.put L.next_region b im.Engine.ex_next_region_id;
         D.put L.pool b im.Engine.ex_pool;
         D.put L.pool_trigger b im.Engine.ex_pool_trigger_now;
         D.put L.fault_fails b im.Engine.ex_fault_fails;
         D.put L.quarantined b im.Engine.ex_quarantined;
         D.put L.qcount b im.Engine.ex_quarantine_count;
         D.put L.degraded b im.Engine.ex_degraded;
         D.put L.last_round b im.Engine.ex_last_round_step;
         D.put L.cache b im.Engine.ex_cache;
         D.put L.cache_stats b im.Engine.ex_cache_stats;
         D.put Perf_model.counters_line b im.Engine.ex_counters;
         D.put L.pending b im.Engine.ex_pending;
         D.put L.fired b im.Engine.ex_fired))

(* ---- parsing ----------------------------------------------------------- *)

let parse_payload rd =
  let sn_config_digest = D.get L.config rd in
  let sn_program_digest = D.get L.program rd in
  let im_mem_words = D.get L.mem_words rd in
  let im_regs = D.get L.regs rd in
  let im_mem = D.get L.mem rd in
  let im_pc = D.get L.pc rd in
  let im_ret_stack = D.get L.ret rd in
  let im_prng = D.get L.prng rd in
  let im_outputs = D.get L.outputs rd in
  let im_steps = D.get L.msteps rd in
  let im_halted = D.get L.halted rd in
  let im_poisoned = D.get L.poisoned rd in
  let ex_use = D.get L.use rd in
  let ex_taken = D.get L.taken rd in
  let ex_state = D.get L.bstate rd in
  let ex_touched = D.get L.touched rd in
  let ex_dissolve = D.get L.dissolve rd in
  let with_monitors = D.get L.regions rd in
  let ex_next_region_id = D.get L.next_region rd in
  let ex_pool = D.get L.pool rd in
  let ex_pool_trigger_now = D.get L.pool_trigger rd in
  let ex_fault_fails = D.get L.fault_fails rd in
  let ex_quarantined = D.get L.quarantined rd in
  let ex_quarantine_count = D.get L.qcount rd in
  let ex_degraded = D.get L.degraded rd in
  let ex_last_round_step = D.get L.last_round rd in
  let ex_cache = D.get L.cache rd in
  let ex_cache_stats = D.get L.cache_stats rd in
  let ex_counters = D.get Perf_model.counters_line rd in
  let ex_pending = D.get L.pending rd in
  let ex_fired = D.get L.fired rd in
  {
    sn_config_digest;
    sn_program_digest;
    sn_image =
      {
        Engine.ex_machine =
          {
            Machine.im_mem_words;
            im_regs;
            im_mem;
            im_pc;
            im_ret_stack;
            im_prng;
            im_outputs;
            im_steps;
            im_halted;
            im_poisoned;
          };
        ex_use;
        ex_taken;
        ex_state;
        ex_touched;
        ex_dissolve;
        ex_regions = List.map fst with_monitors;
        ex_monitors = List.sort compare (List.map snd with_monitors);
        ex_next_region_id;
        ex_pool;
        ex_pool_trigger_now;
        ex_fault_fails;
        ex_quarantined;
        ex_quarantine_count;
        ex_degraded;
        ex_last_round_step;
        ex_cache;
        ex_cache_stats;
        ex_counters;
        ex_pending;
        ex_fired;
      };
  }

let of_string text =
  match Durable.unseal ~magic text with
  | Durable.Payload p -> (
      match D.read parse_payload p with
      | Ok parsed -> Snapshot parsed
      | Error reason -> Corrupt reason)
  | Durable.Stale_version line -> Stale_version line
  | Durable.Corrupt reason -> Corrupt reason

(* ---- restore ----------------------------------------------------------- *)

let restore ~config ~program parsed =
  let cd = config_digest config in
  let pd = program_digest program in
  if not (String.equal cd parsed.sn_config_digest) then
    Error
      (Printf.sprintf "config mismatch: snapshot taken under %s, resuming under %s"
         parsed.sn_config_digest cd)
  else if not (String.equal pd parsed.sn_program_digest) then
    Error
      (Printf.sprintf
         "program mismatch: snapshot taken under %s, resuming under %s"
         parsed.sn_program_digest pd)
  else
    match Engine.restore ~config program parsed.sn_image with
    | t -> Ok t
    | exception Invalid_argument reason -> Error reason

(* ---- info -------------------------------------------------------------- *)

type info = {
  steps : int;
  halted : bool;
  pc : int;
  blocks : int;
  optimized_blocks : int;
  regions : int;
  pool : int;
  cache_entries : int;
  quarantines : int;
  degraded : bool;
  pending_faults : int;
  fired_faults : int;
  cycles : float;
  config_digest : string;
  program_digest : string;
}

let info parsed =
  let im = parsed.sn_image in
  {
    steps = im.Engine.ex_machine.Machine.im_steps;
    halted = im.Engine.ex_machine.Machine.im_halted;
    pc = im.Engine.ex_machine.Machine.im_pc;
    blocks = Array.length im.Engine.ex_use;
    optimized_blocks =
      Array.fold_left (fun n s -> if s = 2 then n + 1 else n) 0
        im.Engine.ex_state;
    regions = List.length im.Engine.ex_regions;
    pool = List.length im.Engine.ex_pool;
    cache_entries = List.length im.Engine.ex_cache;
    quarantines = im.Engine.ex_quarantine_count;
    degraded = im.Engine.ex_degraded;
    pending_faults = List.length im.Engine.ex_pending;
    fired_faults = List.length im.Engine.ex_fired;
    cycles = im.Engine.ex_counters.Perf_model.cycles;
    config_digest = parsed.sn_config_digest;
    program_digest = parsed.sn_program_digest;
  }
