type params = {
  cold_translate_per_instr : float;
  profiled_exec_per_instr : float;
  profiling_op_cost : float;
  translated_exec_per_instr : float;
  optimize_per_instr : float;
  optimized_dispatch : float;
  side_exit_penalty : float;
  evict_per_instr : float;
  shadow_replay_per_instr : float;
}

let default =
  {
    cold_translate_per_instr = 30.0;
    profiled_exec_per_instr = 6.0;
    profiling_op_cost = 2.0;
    translated_exec_per_instr = 3.0;
    optimize_per_instr = 300.0;
    optimized_dispatch = 2.0;
    side_exit_penalty = 6.0;
    evict_per_instr = 1.0;
    shadow_replay_per_instr = 6.0;
  }

type counters = {
  mutable cycles : float;
  mutable blocks_translated : int;
  mutable regions_formed : int;
  mutable region_entries : int;
  mutable region_completions : int;
  mutable loop_backs : int;
  mutable side_exits : int;
  mutable optimization_rounds : int;
  mutable regions_dissolved : int;
  mutable faults_injected : int;
  mutable retrans_retries : int;
  mutable fault_dissolves : int;
  mutable blocks_retranslated : int;
  mutable cache_evictions : int;
  mutable cache_flushes : int;
  mutable cache_evicted_instrs : int;
  mutable cache_peak_instrs : int;
  mutable shadow_replays : int;
  mutable shadow_divergences : int;
  mutable corrupted_entries : int;
  mutable regions_quarantined : int;
  mutable watchdog_degraded : int;
}

let fresh_counters () =
  {
    cycles = 0.0;
    blocks_translated = 0;
    regions_formed = 0;
    region_entries = 0;
    region_completions = 0;
    loop_backs = 0;
    side_exits = 0;
    optimization_rounds = 0;
    regions_dissolved = 0;
    faults_injected = 0;
    retrans_retries = 0;
    fault_dissolves = 0;
    blocks_retranslated = 0;
    cache_evictions = 0;
    cache_flushes = 0;
    cache_evicted_instrs = 0;
    cache_peak_instrs = 0;
    shadow_replays = 0;
    shadow_divergences = 0;
    corrupted_entries = 0;
    regions_quarantined = 0;
    watchdog_degraded = 0;
  }

let record c registry =
  let module M = Tpdbt_telemetry.Metrics in
  let g = M.gauge registry "perf.cycles" in
  M.set g (M.gauge_value g +. c.cycles);
  List.iter
    (fun (name, v) -> M.add (M.counter registry ("perf." ^ name)) v)
    [
      ("blocks_translated", c.blocks_translated);
      ("regions_formed", c.regions_formed);
      ("region_entries", c.region_entries);
      ("region_completions", c.region_completions);
      ("loop_backs", c.loop_backs);
      ("side_exits", c.side_exits);
      ("optimization_rounds", c.optimization_rounds);
      ("regions_dissolved", c.regions_dissolved);
      ("faults_injected", c.faults_injected);
      ("retrans_retries", c.retrans_retries);
      ("fault_dissolves", c.fault_dissolves);
      ("blocks_retranslated", c.blocks_retranslated);
      ("cache_evictions", c.cache_evictions);
      ("cache_flushes", c.cache_flushes);
      ("cache_evicted_instrs", c.cache_evicted_instrs);
      ("cache_peak_instrs", c.cache_peak_instrs);
      ("shadow_replays", c.shadow_replays);
      ("shadow_divergences", c.shadow_divergences);
      ("corrupted_entries", c.corrupted_entries);
      ("regions_quarantined", c.regions_quarantined);
      ("watchdog_degraded", c.watchdog_degraded);
    ]

(* The durable form of a counters record, shared by the checkpoint
   store and engine snapshots: %h round-trips the float exactly; every
   other field is an int. *)
let counters_line =
  let module D = Durable in
  let hex_float = D.conv (Printf.sprintf "%h") float_of_string_opt D.word in
  D.line "counters"
    (D.conv
       (fun c ->
         ( c.cycles,
           [|
             c.blocks_translated;
             c.regions_formed;
             c.region_entries;
             c.region_completions;
             c.loop_backs;
             c.side_exits;
             c.optimization_rounds;
             c.regions_dissolved;
             c.faults_injected;
             c.retrans_retries;
             c.fault_dissolves;
             c.blocks_retranslated;
             c.cache_evictions;
             c.cache_flushes;
             c.cache_evicted_instrs;
             c.cache_peak_instrs;
             c.shadow_replays;
             c.shadow_divergences;
             c.corrupted_entries;
             c.regions_quarantined;
             c.watchdog_degraded;
           |] ))
       (fun (cycles, a) ->
         Some
           {
             cycles;
             blocks_translated = a.(0);
             regions_formed = a.(1);
             region_entries = a.(2);
             region_completions = a.(3);
             loop_backs = a.(4);
             side_exits = a.(5);
             optimization_rounds = a.(6);
             regions_dissolved = a.(7);
             faults_injected = a.(8);
             retrans_retries = a.(9);
             fault_dissolves = a.(10);
             blocks_retranslated = a.(11);
             cache_evictions = a.(12);
             cache_flushes = a.(13);
             cache_evicted_instrs = a.(14);
             cache_peak_instrs = a.(15);
             shadow_replays = a.(16);
             shadow_divergences = a.(17);
             corrupted_entries = a.(18);
             regions_quarantined = a.(19);
             watchdog_degraded = a.(20);
           })
       (D.pair hex_float (D.fixed 21 D.int)))
