(* The benchmark program: runs one workload for a time budget and prints
   one JSON report line.  perfbench/run.py builds this executable, runs
   it, checks exact counts across runs and renders the final result;
   perfbench/README.md explains the workloads and metrics.

   Every layer is measured from outside, by timing calls into its public
   functions.  Untraced runs time whole units of work (a sweep pass, a
   serve round, a store round); a traced run (--trace 1) times one unit
   untraced, then replays it with a [Span] around each layer call and
   folds the spans into per-layer busy times. *)

module Spec = Tpdbt_workloads.Spec
module Suite = Tpdbt_workloads.Suite
module Runner = Tpdbt_experiments.Runner
module Checkpoint = Tpdbt_experiments.Checkpoint
module Figures = Tpdbt_experiments.Figures
module Table = Tpdbt_experiments.Table
module Host_info = Tpdbt_experiments.Host_info
module Engine = Tpdbt_dbt.Engine
module Error = Tpdbt_dbt.Error
module Perf_model = Tpdbt_dbt.Perf_model
module Exec_snapshot = Tpdbt_dbt.Exec_snapshot
module Server = Tpdbt_serve.Server
module Journal = Tpdbt_serve.Journal
module Pool = Tpdbt_parallel.Pool
module Machine = Tpdbt_vm.Machine
module Prng = Tpdbt_vm.Prng
module Gen = Tpdbt_fuzz.Gen
module Tel = Tpdbt_telemetry
module Json = Tpdbt_telemetry.Json

let now = Unix.gettimeofday

(* ---- small utilities --------------------------------------------------- *)

let quantile q xs =
  match List.sort compare xs with
  | [] -> nan
  | sorted ->
      let a = Array.of_list sorted in
      let pos = q *. float_of_int (Array.length a - 1) in
      let lo = truncate pos in
      let hi = min (Array.length a - 1) (lo + 1) in
      let frac = pos -. float_of_int lo in
      a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let median = quantile 0.5
let sum = List.fold_left ( +. ) 0.
let isum = List.fold_left ( + ) 0

let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

let num f = if Float.is_finite f then Json.number f else "null"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let fresh_dir path =
  rm_rf path;
  Sys.mkdir path 0o755;
  path

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* Peak resident set of this process (VmHWM), in MB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> nan
        | line when starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf
              (String.sub line 6 (String.length line - 6))
              " %d"
              (fun kb -> float_of_int kb /. 1024.)
        | _ -> scan ()
      in
      scan ())

(* Reset the peak resident set to the current one (Linux clear_refs),
   so a unit's peak can be read on its own; a no-op where unsupported. *)
let reset_peak_rss () =
  try
    let oc = open_out "/proc/self/clear_refs" in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> output_string oc "5")
  with Sys_error _ -> ()

let bench name =
  match Suite.find name with
  | Some b -> b
  | None -> failwith ("unknown suite benchmark " ^ name)

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* The first unit's peak resident set, in MB.  Later units peak higher
   as the heap grows, and how many fit depends on the host's speed.
   The set-up's garbage is collected first: how many set-ups ran
   depends on the host's speed too. *)
let first_unit_peak = ref nan

(* Run [unit_] at least [min_units] times, and again while another unit
   of typical length still fits in [seconds].  Returns each unit's wall
   time and value, in order. *)
let repeat_units ?(min_units = 1) ~seconds unit_ =
  let t0 = now () in
  let rec go n acc =
    if n = 0 then begin
      Gc.compact ();
      reset_peak_rss ()
    end;
    let v, w = timed unit_ in
    if n = 0 then first_unit_peak := peak_rss_mb ();
    let acc = (w, v) :: acc in
    let typical = median (List.map fst acc) in
    if n + 1 < min_units || now () -. t0 +. typical <= seconds then
      go (n + 1) acc
    else List.rev acc
  in
  go 0 []

(* Set-up runs in [setup_batches] batches.  Each batch repeats it until
   the batch has taken [setup_batch_s] seconds, so that even a
   sub-millisecond set-up is timed over a window long enough to repeat.
   [setup_s] is the median batch's time per set-up. *)
let setup_batches = 5
let setup_batch_s = 0.4

let repeat_setup setup =
  let batch () =
    let t0 = now () in
    let rec go n =
      let v = setup () in
      let elapsed = now () -. t0 in
      if elapsed >= setup_batch_s then (v, elapsed /. float_of_int n, n)
      else go (n + 1)
    in
    go 1
  in
  let batches = List.init setup_batches (fun _ -> batch ()) in
  let v, _, _ = List.hd batches in
  ( v,
    median (List.map (fun (_, s, _) -> s) batches),
    isum (List.map (fun (_, _, n) -> n) batches) )

(* ---- the report -------------------------------------------------------- *)

type report = {
  mutable attempted : int;
  mutable ok : int;
  mutable problems : string list;
  mutable metrics : (string * float) list;
  mutable counts : (string * float) list;
  mutable digests : (string * string) list;
  mutable samples : (string * int) list;
  mutable unit_walls : float list;
}

let report =
  {
    attempted = 0;
    ok = 0;
    problems = [];
    metrics = [];
    counts = [];
    digests = [];
    samples = [];
    unit_walls = [];
  }

let metric name v = report.metrics <- (name, v) :: report.metrics
let sample name n = report.samples <- (name, n) :: report.samples

(* One operation with its output checks; a failed check is recorded and
   counted against [ok_frac], never raised. *)
let operation name checks =
  report.attempted <- report.attempted + 1;
  match List.filter (fun (_, ok) -> not ok) checks with
  | [] -> report.ok <- report.ok + 1
  | bad ->
      List.iter
        (fun (what, _) ->
          report.problems <- (name ^ ": " ^ what) :: report.problems)
        bad

let problem what = report.problems <- what :: report.problems

(* Exact counts of one unit, by name.  Every unit of a run must give the
   same values; run.py also compares them across runs of a seed. *)
let report_counts per_unit =
  match per_unit with
  | [] -> ()
  | first :: _ ->
      List.iter
        (fun (name, v) ->
          if List.exists (fun c -> List.assoc name c <> v) per_unit then
            problem (name ^ " differs between units of the same run");
          report.counts <- (name, v) :: report.counts)
        first

let digest name values =
  match values with
  | [] -> ()
  | v :: rest ->
      if List.exists (fun x -> x <> v) rest then
        problem (name ^ " digest differs between units of the same run");
      report.digests <-
        (name, Digest.to_hex (Digest.string v)) :: report.digests

let count_of name per_unit = List.assoc name (List.hd per_unit)

(* The end-to-end metrics every workload derives from its units. *)
let report_units units ~instrs =
  let walls = List.map fst units in
  let wall = median walls in
  report.unit_walls <- walls;
  sample "units" (List.length units);
  metric "wall_s" wall;
  metric "guest_ips" (instrs /. wall);
  wall

(* ---- tracing ----------------------------------------------------------- *)

(* A traced replay: spans over a memory sink, stamped with the guest
   instructions executed so far so a span's step width is the work it
   did. *)
type tracer = {
  span : Tel.Span.t;
  buffer : Tel.Sink.buffer;
  clock : int ref;
}

let tracer () =
  let sink, buffer = Tel.Sink.memory () in
  let clock = ref 0 in
  { span = Tel.Span.create ~clock:(fun () -> !clock) sink; buffer; clock }

let wrap tr label f = Tel.Span.wrap tr.span label f

(* One closed span: label, step width, wall seconds, minor words. *)
type call = { label : string; steps : int; wall : float; minor : int }

(* Pair begin/end events by label (worker spans interleave). *)
let calls buffer =
  let open_ = Hashtbl.create 16 in
  let out = ref [] in
  List.iter
    (fun { Tel.Event.step; event } ->
      match event with
      | Tel.Event.Span_begin { span } ->
          Hashtbl.replace open_ span
            (step :: Option.value ~default:[] (Hashtbl.find_opt open_ span))
      | Tel.Event.Span_end { span; wall_ns; minor_words; _ } -> (
          match Hashtbl.find_opt open_ span with
          | Some (s0 :: rest) ->
              Hashtbl.replace open_ span rest;
              out :=
                {
                  label = span;
                  steps = step - s0;
                  wall = float_of_int wall_ns /. 1e9;
                  minor = minor_words;
                }
                :: !out
          | _ -> ())
      | _ -> ())
    (Tel.Sink.contents buffer);
  List.rev !out

let walls_of label cs =
  List.filter_map (fun c -> if c.label = label then Some c.wall else None) cs

let busy label cs = sum (walls_of label cs)
let median_ms label cs = 1000. *. median (walls_of label cs)

(* Engine rate from the stage-kind spans, which time [Engine.run] only. *)
let engine_rate_metrics cs =
  let runs =
    List.filter
      (fun c ->
        List.mem c.label [ "engine.avep"; "engine.train"; "engine.threshold" ])
      cs
  in
  metric "engine.ips"
    (median (List.map (fun c -> float_of_int c.steps /. c.wall) runs));
  metric "engine.alloc_words_per_instr"
    (float_of_int (isum (List.map (fun c -> c.minor) runs))
    /. float_of_int (max 1 (isum (List.map (fun c -> c.steps) runs))))

(* Self time of the workload root span: inclusive wall minus its
   children's.  Everything else in the traced run is a layer span. *)
let root_self_s tr =
  let prof = Tel.Profiler.of_events (Tel.Sink.contents tr.buffer) in
  let self node =
    let kids = Tel.Profiler.children node in
    Tel.Profiler.wall_ns node - isum (List.map Tel.Profiler.wall_ns kids)
  in
  float_of_int
    (isum
       (List.map
          (fun n -> if Tel.Profiler.label n = "workload" then self n else 0)
          (Tel.Profiler.roots prof)))
  /. 1e9

(* Share of the traced wall time that no layer span covers.  The layer
   spans must account for the untraced [wall_s] to within the tracing
   overhead, so this share may be at most [trace_tolerance]. *)
let trace_tolerance = 0.02

(* The tracing metrics.  [trace.layer_busy_frac] is the layer spans'
   self time over the untraced wall: 1 + overhead, less the root's own
   share. *)
let report_trace tr ~traced ~untraced =
  let overhead = (traced -. untraced) /. untraced in
  let uncovered = root_self_s tr /. untraced in
  metric "trace.overhead_frac" overhead;
  metric "trace.layer_busy_frac" ((traced /. untraced) -. uncovered);
  if uncovered > trace_tolerance then
    problem
      (Printf.sprintf
         "layer spans leave %.3f of the untraced wall time uncovered, more \
          than %.2f"
         uncovered trace_tolerance)

(* ---- engine accounting shared by the sweep-shaped workloads ------------ *)

let stage_results (d : Runner.data) =
  d.Runner.avep :: d.Runner.train
  :: List.map (fun (r : Runner.threshold_run) -> r.Runner.result) d.Runner.runs

let ref_results (d : Runner.data) =
  d.Runner.avep
  :: List.map (fun (r : Runner.threshold_run) -> r.Runner.result) d.Runner.runs

let truncated (r : Engine.result) =
  match r.Engine.error with Some (Error.Limit_exceeded _) -> true | _ -> false

let engine_counts datas =
  let rs = List.concat_map stage_results datas in
  let f g = float_of_int (isum (List.map g rs)) in
  [
    ("engine.guest_instrs", f (fun r -> r.Engine.steps));
    ("engine.runs", float_of_int (List.length rs));
    ( "engine.regions_formed",
      f (fun r -> r.Engine.counters.Perf_model.regions_formed) );
    ( "engine.model_cycles",
      sum (List.map (fun r -> r.Engine.counters.Perf_model.cycles) rs) );
    ("engine.truncated_runs", f (fun r -> if truncated r then 1 else 0));
  ]

let data_digest datas =
  String.concat "" (List.map Checkpoint.data_to_string datas)

(* ---- the Runner's stage sequence, replayed under spans ----------------- *)

let stage_kind = function
  | Runner.Avep -> "avep"
  | Runner.Train -> "train"
  | Runner.Threshold _ -> "threshold"

let stage_config = function
  | Runner.Avep | Runner.Train -> Engine.profiling_only
  | Runner.Threshold (_, scaled) -> Engine.config ~threshold:scaled ()

let assemble_stages b stages =
  match stages with
  | (Runner.Avep, avep) :: (Runner.Train, train) :: rest ->
      Runner.assemble b avep train
        (List.map
           (function
             | Runner.Threshold (label, scaled), r -> (label, scaled, r)
             | _ -> failwith "stage out of order")
           rest)
  | _ -> failwith "stage out of order"

(* [Engine.run] in a span named after the stage kind, so the engine's
   busy time per kind falls out of the span totals; the tracer's clock
   advances by the instructions the call executed. *)
let traced_run tr stage engine =
  let before = ref (Machine.steps (Engine.machine engine)) in
  fun () ->
    wrap tr ("engine." ^ stage_kind stage) (fun () ->
        let r = Engine.run engine in
        tr.clock := !(tr.clock) + r.Engine.steps - !before;
        before := r.Engine.steps;
        r)

(* The Runner's stage sequence for one benchmark, each layer call in its
   own span.  [every] > 0 arms the snapshot trigger as the Runner does,
   and each suspension's partial state goes to [on_snapshot]. *)
let replay_stages tr ?(every = 0) ?(on_snapshot = fun _ -> ()) ~thresholds b
    =
  let program, ref_input, train_input =
    wrap tr "spec.build" (fun () -> Spec.build b)
  in
  let stages =
    Runner.Avep :: Runner.Train
    :: List.map (fun (l, s) -> Runner.Threshold (l, s)) thresholds
  in
  let done_ =
    List.fold_left
      (fun done_ stage ->
        let config =
          if every = 0 then stage_config stage
          else
            {
              (stage_config stage) with
              Engine.snapshot_every = every;
              suspend_on_deadline = false;
            }
        in
        let input = if stage = Runner.Train then train_input else ref_input in
        let aprogram =
          wrap tr "spec.apply_input" (fun () -> Spec.apply_input program input)
        in
        let engine =
          wrap tr "engine.create" (fun () ->
              Engine.create ~config ~seed:input.Spec.seed aprogram)
        in
        let run = traced_run tr stage engine in
        let rec go () =
          let r = run () in
          if Engine.suspended r then begin
            let image =
              wrap tr "engine.capture" (fun () -> Engine.capture engine)
            in
            on_snapshot
              {
                Runner.p_bench = b;
                p_thresholds = thresholds;
                p_done = List.rev done_;
                p_next = stage;
                p_snapshot =
                  wrap tr "exec_snapshot.encode" (fun () ->
                      Exec_snapshot.to_string ~config ~program:aprogram image);
              };
            go ()
          end
          else r
        in
        (stage, go ()) :: done_)
      [] stages
  in
  wrap tr "runner.assemble" (fun () -> assemble_stages b (List.rev done_))

(* Why these benchmarks: see README.md.  mcf is left out because its
   run length is set by the step watchdog, not by the program. *)
let sweep_names = [ "gzip"; "crafty"; "perlbmk"; "swim"; "wupwise" ]
let par_names = [ "vpr"; "gzip"; "swim" ]
let resume_names = [ "gzip"; "crafty"; "swim" ]

(* The resume workload runs each benchmark at the first, middle and
   last paper threshold only, and snapshots every [snapshot_every]
   guest instructions: small enough that the store calls take most of
   its wall time, with a round still well inside the run's budget. *)
let snapshot_every = 100_000

let resume_thresholds =
  List.filteri (fun i _ -> i = 0 || i = 6 || i = 12) Suite.thresholds

(* ---- workload: sweep ---------------------------------------------------- *)

(* The committed figure rows of the given benchmarks, as
   [(figure id, label) -> CSV line]. *)
let committed_rows names =
  let rows = Hashtbl.create 64 in
  Array.iter
    (fun file ->
      if Filename.check_suffix file ".csv" && starts_with ~prefix:"fig" file
      then
        let id = Filename.chop_suffix file ".csv" in
        List.iter
          (fun line ->
            match String.index_opt line ',' with
            | Some i when List.mem (String.sub line 0 i) names ->
                Hashtbl.replace rows (id, String.sub line 0 i) line
            | _ -> ())
          (String.split_on_char '\n'
             (read_file (Filename.concat "results" file))))
    (Sys.readdir "results");
  rows

let csv_rows tables =
  let rows = Hashtbl.create 64 in
  List.iter
    (fun (id, table) ->
      List.iter
        (fun line ->
          match String.index_opt line ',' with
          | Some i -> Hashtbl.replace rows (id, String.sub line 0 i) line
          | None -> ())
        (String.split_on_char '\n' (Table.to_csv table)))
    tables;
  rows

let write_tables ~csv_dir tables =
  List.iter
    (fun (id, t) ->
      write_file (Filename.concat csv_dir (id ^ ".csv")) (Table.to_csv t))
    tables

(* The [tpdbt sweep] path: run, tabulate, write the CSV files. *)
let sweep_pass ~jobs ?sink ?report:rep ~csv_dir benches =
  let sweep = Runner.run_many_par ~jobs ?sink ?report:rep benches in
  let tables = Figures.all sweep.Runner.data in
  write_tables ~csv_dir tables;
  (sweep, tables)

let check_sweep ~committed benches ((sweep : Runner.sweep), tables) =
  let produced = csv_rows tables in
  List.iter
    (fun (b : Spec.t) ->
      let name = b.Spec.name in
      match
        List.find_opt
          (fun (d : Runner.data) -> d.Runner.bench.Spec.name = name)
          sweep.Runner.data
      with
      | None -> operation name [ ("benchmark failed in the sweep", false) ]
      | Some d ->
          let rows =
            Hashtbl.fold
              (fun (id, label) line acc ->
                if label = name then (id, line) :: acc else acc)
              committed []
          in
          let refs = ref_results d in
          let outputs = (List.hd refs).Engine.outputs in
          operation name
            [
              ( "a stage did not halt cleanly",
                List.for_all (fun r -> r.Engine.error = None) (stage_results d)
              );
              ( "ref-input outputs differ between stages",
                List.for_all (fun r -> r.Engine.outputs = outputs) refs );
              ("no committed figure rows", rows <> []);
              ( "figure rows differ from results/fig*.csv",
                List.for_all
                  (fun (id, line) ->
                    Hashtbl.find_opt produced (id, name) = Some line)
                  rows );
            ])
    benches

(* The Pool layer, measured in the traced run of [sweep]: one pass of
   the [tpdbt sweep] path at two jobs over [par_names] (see README.md
   for why this is not a workload of its own). *)
let pool_pass ~csv_dir names =
  let benches = List.map bench names in
  let committed = committed_rows names in
  let sink, buffer = Tel.Sink.memory () in
  let stats = ref None in
  let pass =
    sweep_pass ~jobs:2 ~sink
      ~report:(fun s -> stats := Some s)
      ~csv_dir benches
  in
  check_sweep ~committed benches pass;
  let tasks =
    List.filter_map
      (fun c ->
        if starts_with ~prefix:"worker" c.label then Some c.wall else None)
      (calls buffer)
  in
  match !stats with
  | Some s ->
      metric "pool.speedup" (Pool.speedup s);
      metric "pool.busy_s" s.Pool.busy;
      metric "pool.idle_s"
        ((float_of_int s.Pool.jobs *. s.Pool.elapsed) -. s.Pool.busy);
      metric "pool.max_task_s" (List.fold_left max 0. tasks);
      metric "pool.steals" (float_of_int s.Pool.steals)
  | None -> problem "the pool reported no statistics"

(* The sweep is a fixed experiment: [--seed] changes nothing.  Even the
   benchmark order stays fixed, because it moves the heap's peak. *)
let sweep_workload ~seconds ~trace ~dir ~quick =
  let names = if quick then [ "perlbmk" ] else sweep_names in
  let benches, setup_s, setups =
    repeat_setup (fun () ->
        let benches = List.map bench names in
        List.iter (fun b -> ignore (Spec.build b)) benches;
        benches)
  in
  metric "setup_s" setup_s;
  sample "setups" setups;
  let csv_dir = fresh_dir (Filename.concat dir "csv") in
  let units =
    repeat_units
      ~seconds:(if trace then 0. else seconds)
      (fun () -> sweep_pass ~jobs:1 ~csv_dir benches)
  in
  let committed = committed_rows names in
  List.iter (fun (_, pass) -> check_sweep ~committed benches pass) units;
  let datas = List.map (fun (_, (s, _)) -> s.Runner.data) units in
  let counts = List.map engine_counts datas in
  report_counts counts;
  digest "sweep.data" (List.map data_digest datas);
  let untraced =
    report_units units ~instrs:(count_of "engine.guest_instrs" counts)
  in
  if trace then begin
    let tr = tracer () in
    let traced_datas, traced =
      timed (fun () ->
          wrap tr "workload" (fun () ->
              let datas =
                List.map
                  (fun b ->
                    wrap tr ("bench." ^ b.Spec.name) (fun () ->
                        replay_stages tr ~thresholds:Suite.thresholds b))
                  benches
              in
              wrap tr "figures.render" (fun () ->
                  write_tables ~csv_dir (Figures.all datas));
              datas))
    in
    if data_digest traced_datas <> data_digest (List.hd datas) then
      problem "traced replay's data differs from the untraced run";
    report_trace tr ~traced ~untraced;
    let cs = calls tr.buffer in
    metric "figures.render_ms" (1000. *. busy "figures.render" cs);
    metric "spec.build_ms" (median_ms "spec.build" cs);
    metric "engine.avep_s" (busy "engine.avep" cs);
    metric "engine.train_s" (busy "engine.train" cs);
    metric "engine.threshold_s" (busy "engine.threshold" cs);
    engine_rate_metrics cs;
    metric "accuracy.assemble_ms" (median_ms "runner.assemble" cs);
    pool_pass ~csv_dir (if quick then [ "perlbmk"; "swim" ] else par_names)
  end

(* ---- workload: serve ---------------------------------------------------- *)

type klass = Translate | Run_miss | Run_hit | Probe

let klass_name = function
  | Translate -> "translate"
  | Run_miss -> "run_miss"
  | Run_hit -> "run_hit"
  | Probe -> "probe"

type request = {
  klass : klass;
  payload : string;
  key : string;
  program : (Tpdbt_isa.Program.t * int64) option;
}

(* The run requests of a stream.  Every (benchmark, paper threshold)
   key is run once cold, so the engine work per round does not depend
   on the seed.  About a quarter of the runs sit at seeded positions
   after the first and repeat a key already run, so they hit the warm
   cache. *)
let run_sequence rng keys =
  shuffle rng keys;
  let n_cold = Array.length keys in
  let n_hit = (n_cold + 1) / 3 in
  let positions = Array.init (n_cold + n_hit - 1) (fun i -> i + 1) in
  shuffle rng positions;
  let is_hit = Array.make (n_cold + n_hit) false in
  Array.iteri (fun i p -> if i < n_hit then is_hit.(p) <- true) positions;
  let cold = ref 0 in
  Array.init (n_cold + n_hit) (fun i ->
      if is_hit.(i) then (keys.(Random.State.int rng !cold), Run_hit)
      else begin
        incr cold;
        (keys.(!cold - 1), Run_miss)
      end)

(* A translate request: a fuzz program of the given size, sent as text.
   Gen may emit [rnd] with a non-positive bound, which the assembler
   refuses, so such a program cannot be sent; draw again from the same
   generator. *)
let translate_request rng ~seed i size =
  let prng = Prng.create ~seed:(Int64.of_int ((seed * 100_003) + i)) in
  let rec draw () =
    let program = Gen.program prng { Gen.default with Gen.size } in
    let text = Tpdbt_isa.Disasm.disassemble program in
    match Tpdbt_isa.Assembler.assemble text with
    | Ok _ -> (program, text)
    | Error _ -> draw ()
  in
  let program, text = draw () in
  let threshold = [| 1; 5; 20; 100 |].(Random.State.int rng 4) in
  let guest_seed = Int64.of_int (1 + Random.State.int rng 1_000_000) in
  {
    klass = Translate;
    payload =
      Json.obj
        [
          ("op", Json.quote "translate");
          ("program", Json.quote text);
          ("threshold", string_of_int threshold);
          ("seed", Int64.to_string guest_seed);
        ];
    key = "translate " ^ string_of_int i;
    program = Some (program, guest_seed);
  }

let run_request ((name, scaled), klass) =
  {
    klass;
    payload =
      Json.obj
        [
          ("op", Json.quote "run");
          ("workload", Json.quote name);
          ("threshold", string_of_int scaled);
        ];
    key = Printf.sprintf "run %s %d" name scaled;
    program = None;
  }

let probe_request i =
  let op = if i mod 2 = 0 then "status" else "metrics" in
  { klass = Probe; payload = Json.obj [ ("op", Json.quote op) ]; key = op;
    program = None }

(* One client's seeded request stream: about 60% translates, whose
   program sizes are spread evenly over a fixed set, 35% runs and 5%
   probes, in seeded order. *)
let serve_stream ~seed ~names ~thresholds =
  let rng = Random.State.make [| seed; 1 |] in
  let keys =
    Array.of_list
      (List.concat_map
         (fun n -> List.map (fun (_, scaled) -> (n, scaled)) thresholds)
         names)
  in
  let runs = Array.map run_request (run_sequence rng keys) in
  let n_run = Array.length runs in
  let n_translate = ((n_run * 60) + 17) / 35 in
  let n_probe = max 1 (((n_run * 5) + 17) / 35) in
  let sizes = [| 16; 32; 48; 64; 96; 128 |] in
  let sizes =
    Array.init n_translate (fun i -> sizes.(i mod Array.length sizes))
  in
  shuffle rng sizes;
  let translates = Array.mapi (translate_request rng ~seed) sizes in
  let tags =
    Array.concat
      [
        Array.make n_translate Translate;
        Array.make n_run Run_miss;
        Array.make n_probe Probe;
      ]
  in
  shuffle rng tags;
  let next = Hashtbl.create 3 in
  Array.map
    (fun tag ->
      let i = Option.value ~default:0 (Hashtbl.find_opt next tag) in
      Hashtbl.replace next tag (i + 1);
      match tag with
      | Translate -> translates.(i)
      | Probe -> probe_request i
      | Run_miss | Run_hit -> runs.(i))
    tags

(* One round: a fresh in-process daemon, the stream offered by one
   closed-loop client, each request timed from offer to reply. *)
let serve_round ?tr reqs =
  let server = Server.create Server.default_config in
  let span label f =
    match tr with None -> f () | Some tr -> wrap tr label f
  in
  let replies =
    Array.map
      (fun r ->
        let t0 = now () in
        let reply =
          span ("request." ^ klass_name r.klass) (fun () ->
              match
                span "server.offer" (fun () ->
                    Server.offer server ~client:0 r.payload)
              with
              | Server.Reply s -> s
              | Server.Enqueued job -> (
                  match
                    span ("server.step." ^ klass_name r.klass) (fun () ->
                        Server.step server)
                  with
                  | Some st when st.Server.job = job -> st.Server.reply
                  | _ -> "{\"ok\":false,\"error\":\"reply lost\"}"))
        in
        (reply, now () -. t0))
      reqs
  in
  let status =
    match Server.offer server ~client:0 "{\"op\":\"status\"}" with
    | Server.Reply s -> s
    | Server.Enqueued _ -> "{}"
  in
  Server.close server;
  (replies, status)

let member_num name json =
  match Option.bind (Json.member name json) Json.as_number with
  | Some f -> f
  | None -> nan

let parse_reply s = match Json.parse s with Ok j -> Some j | Error _ -> None

(* A translate must print exactly what the plain interpreter prints,
   and trap exactly when it traps. *)
let machine_reference (program, seed) =
  let m = Machine.create ~seed program in
  let halted = Result.is_ok (Machine.run m) in
  (Machine.outputs m, halted)

let check_serve_round ~first ~references reqs (replies, _) =
  let firsts = Hashtbl.create 64 in
  Array.iteri
    (fun i r ->
      let reply = fst replies.(i) in
      let json = parse_reply reply in
      let ok =
        match Option.bind json (Json.member "ok") with
        | Some (Json.Bool true) -> true
        | _ -> false
      in
      let specific =
        match r.klass with
        | Run_miss ->
            Hashtbl.replace firsts r.key reply;
            []
        | Run_hit ->
            [
              ( "warm reply differs from the first reply",
                Hashtbl.find_opt firsts r.key = Some reply );
            ]
        | Translate ->
            let outputs, halted = references i in
            let got =
              Option.bind
                (Option.bind json (Json.member "outputs"))
                Json.as_list
              |> Option.map (List.map (fun v -> Json.as_number v))
            in
            let error_null =
              Option.bind json (Json.member "error") = Some Json.Null
            in
            [
              ( "outputs differ from the interpreter",
                got = Some (List.map (fun o -> Some (float_of_int o)) outputs)
              );
              ("trap status differs from the interpreter", error_null = halted);
            ]
        | Probe -> []
      in
      let repeat =
        match (first, r.klass) with
        | Some first, (Translate | Run_miss | Run_hit) ->
            [ ("reply differs from the first round", fst first.(i) = reply) ]
        | _ -> []
      in
      let head = String.sub reply 0 (min 160 (String.length reply)) in
      operation
        (r.key ^ " #" ^ string_of_int i)
        ((("reply not ok: " ^ head, ok) :: specific) @ repeat))
    reqs

(* Exact counts of a round: the engine work behind its cold runs and
   translates, and the warm cache's own tallies. *)
let serve_counts reqs (replies, status) =
  let executed =
    List.filter_map Fun.id
      (List.mapi
         (fun i r ->
           match r.klass with
           | Translate | Run_miss -> parse_reply (fst replies.(i))
           | Run_hit | Probe -> None)
         (Array.to_list reqs))
  in
  let total name = sum (List.map (member_num name) executed) in
  let status = Option.value ~default:Json.Null (parse_reply status) in
  let hits = member_num "cache_hits" status in
  let misses = member_num "cache_misses" status in
  [
    ("engine.guest_instrs", total "steps");
    ("engine.runs", float_of_int (List.length executed));
    ("engine.regions_formed", total "regions");
    ("engine.model_cycles", total "cycles");
    ("warm_cache.hits", hits);
    ("warm_cache.misses", misses);
    ("warm_cache.hit_ratio", hits /. Float.max 1. (hits +. misses));
    ("warm_cache.evictions", member_num "cache_evictions" status);
    ("server.overloaded", member_num "overloaded" status);
  ]

let serve_workload ~seed ~seconds ~trace ~quick =
  let names, thresholds =
    if quick then
      ([ "perlbmk" ], List.filteri (fun i _ -> i < 3) Suite.thresholds)
    else (sweep_names, Suite.thresholds)
  in
  let reqs, setup_s, setups =
    repeat_setup (fun () -> serve_stream ~seed ~names ~thresholds)
  in
  metric "setup_s" setup_s;
  sample "setups" setups;
  (* A round has 87 run and 149 translate requests; the traced run
     reports the request percentiles, so it takes two rounds to put at
     least ten samples beyond each p90. *)
  let units =
    repeat_units
      ~min_units:(if trace then 2 else 1)
      ~seconds:(if trace then 0. else seconds)
      (fun () -> serve_round reqs)
  in
  let refs = Hashtbl.create 64 in
  let references i =
    match Hashtbl.find_opt refs i with
    | Some v -> v
    | None ->
        let v = machine_reference (Option.get reqs.(i).program) in
        Hashtbl.replace refs i v;
        v
  in
  let first = fst (snd (List.hd units)) in
  List.iteri
    (fun n (_, round) ->
      check_serve_round
        ~first:(if n = 0 then None else Some first)
        ~references reqs round)
    units;
  let counts = List.map (fun (_, round) -> serve_counts reqs round) units in
  report_counts counts;
  let expected_hits =
    Array.fold_left (fun n r -> if r.klass = Run_hit then n + 1 else n) 0 reqs
  in
  let hits = int_of_float (count_of "warm_cache.hits" counts) in
  if hits <> expected_hits then
    problem
      (Printf.sprintf "warm cache served %d hits, expected %d" hits
         expected_hits);
  let untraced =
    report_units units ~instrs:(count_of "engine.guest_instrs" counts)
  in
  let latencies pred =
    List.concat_map
      (fun (_, (replies, _)) ->
        List.filteri
          (fun i _ -> pred reqs.(i).klass)
          (Array.to_list (Array.map snd replies)))
      units
  in
  let run_lat = latencies (fun k -> k = Run_miss || k = Run_hit) in
  let tr_lat = latencies (fun k -> k = Translate) in
  sample "run" (List.length run_lat);
  sample "translate" (List.length tr_lat);
  if trace then begin
    metric "req_per_s" (float_of_int (Array.length reqs) /. untraced);
    metric "run_p50_ms" (1000. *. median run_lat);
    metric "run_p90_ms" (1000. *. quantile 0.9 run_lat);
    metric "translate_p50_ms" (1000. *. median tr_lat);
    metric "translate_p90_ms" (1000. *. quantile 0.9 tr_lat);
    let tr = tracer () in
    let round, traced =
      timed (fun () -> wrap tr "workload" (fun () -> serve_round ~tr reqs))
    in
    check_serve_round ~first:(Some first) ~references reqs round;
    report_trace tr ~traced ~untraced;
    let cs = calls tr.buffer in
    metric "server.offer_ms" (median_ms "server.offer" cs);
    metric "server.probe_ms" (median_ms "request.probe" cs);
    metric "server.translate_ms" (median_ms "server.step.translate" cs);
    metric "server.run_miss_ms" (median_ms "server.step.run_miss" cs);
    metric "server.run_hit_ms" (median_ms "server.step.run_hit" cs)
  end

(* ---- workload: resume --------------------------------------------------- *)

let final_stage =
  let label, scaled =
    List.nth resume_thresholds (List.length resume_thresholds - 1)
  in
  Runner.Threshold (label, scaled)

(* The resume point of a benchmark: the snapshot of its final stage
   at a seeded fraction of the stage's length. *)
let point_index ~every ~frac (p : Runner.partial) =
  match List.assoc_opt Runner.Avep p.Runner.p_done with
  | Some avep -> int_of_float (frac *. float_of_int avep.Engine.steps) / every
  | None -> -1

type store_round = {
  datas : (Runner.data, Error.t) result list;
  recovery : Journal.recovery;
  classified : Checkpoint.classified list;
  points : Runner.partial option list;
  resumed : (Runner.data, Error.t) result list;
  snapshots : int;
  snapshot_bytes : int;
}

(* One round of the durable-store path, as [tpdbt serve
   --snapshot-every] drives it: every snapshot goes to the checkpoint
   store and the journal, each finished benchmark is checkpointed, and
   a restart recovers the journal, classifies the store and resumes
   each benchmark from its seeded point. *)
let store_round ~dir ~every ~fracs benches =
  let store = fresh_dir (Filename.concat dir "store") in
  let points_dir = fresh_dir (Filename.concat dir "points") in
  let jpath = Filename.concat store "journal" in
  let names = List.map (fun b -> b.Spec.name) benches in
  let thresholds = resume_thresholds in
  let j, _ = Journal.open_ ~path:jpath in
  Journal.append j (Journal.Sweep_begin { id = 1; benches = names });
  let snapshots = ref 0 and snapshot_bytes = ref 0 in
  let datas =
    List.map2
      (fun b frac ->
        let seen = ref 0 in
        let on_snapshot (p : Runner.partial) =
          incr snapshots;
          snapshot_bytes := !snapshot_bytes + String.length p.Runner.p_snapshot;
          Checkpoint.save_suspended ~dir:store p;
          Journal.append j
            (Journal.Snapshot_ref { id = 1; bench = b.Spec.name });
          if p.Runner.p_next = final_stage then begin
            if !seen = point_index ~every ~frac p then
              Checkpoint.save_suspended ~dir:points_dir p;
            incr seen
          end
        in
        let r =
          Runner.run_benchmark_result ~thresholds ~snapshot_every:every
            ~on_snapshot b
        in
        Result.iter (Checkpoint.save ~dir:store) r;
        r)
      benches fracs
  in
  Journal.close j;
  let j, recovery = Journal.open_ ~path:jpath in
  let classified =
    List.map (fun b -> Checkpoint.classify ~thresholds ~dir:store b) benches
  in
  let points =
    List.map
      (fun b -> Checkpoint.load_suspended ~thresholds ~dir:points_dir b)
      benches
  in
  let resumed =
    List.map2
      (fun b p ->
        match p with
        | Some p -> Runner.run_benchmark_result ~thresholds ~resume:p b
        | None -> Error (Error.Io_error "no resume point"))
      benches points
  in
  Journal.append j (Journal.Sweep_end { id = 1 });
  Journal.close j;
  {
    datas;
    recovery;
    classified;
    points;
    resumed;
    snapshots = !snapshots;
    snapshot_bytes = !snapshot_bytes;
  }

let snapshot_steps (p : Runner.partial) =
  match Exec_snapshot.of_string p.Runner.p_snapshot with
  | Exec_snapshot.Snapshot parsed ->
      (Exec_snapshot.info parsed).Exec_snapshot.steps
  | _ -> 0

let check_store_round benches round =
  let names = List.map (fun b -> b.Spec.name) benches in
  operation "journal recovery"
    [
      ( "in-flight sweep not recovered",
        round.recovery.Journal.inflight = [ (1, names) ] );
      ( "snapshot refs not recovered",
        List.sort compare (List.map snd round.recovery.Journal.snapshot_refs)
        = List.sort compare names );
      ("torn journal records", round.recovery.Journal.torn = 0);
    ];
  List.iteri
    (fun i b ->
      let data = List.nth round.datas i in
      let whole =
        match data with
        | Ok d -> Some (Checkpoint.data_to_string d)
        | Error _ -> None
      in
      operation b.Spec.name
        [
          ("run failed", whole <> None);
          ( "a stage did not halt cleanly",
            match data with
            | Ok d ->
                List.for_all (fun r -> r.Engine.error = None) (stage_results d)
            | Error _ -> false );
          ( "checkpoint not classified valid",
            match List.nth round.classified i with
            | Checkpoint.Valid (Checkpoint.Finished d) ->
                Some (Checkpoint.data_to_string d) = whole
            | _ -> false );
          ("no resume point saved", List.nth round.points i <> None);
          ( "resumed result differs from the uninterrupted run",
            match List.nth round.resumed i with
            | Ok d -> Some (Checkpoint.data_to_string d) = whole
            | Error _ -> false );
        ])
    benches

(* Exact counts of a round.  Guest instructions and runs count what the
   engines actually executed: every stage of the first phase, plus each
   resumed stage's remainder. *)
let store_counts round =
  let remainders =
    List.concat
      (List.map2
         (fun p r ->
           match (p, r) with
           | Some p, Ok d ->
               let last = List.hd (List.rev (stage_results d)) in
               [ last.Engine.steps - snapshot_steps p ]
           | _ -> [])
         round.points round.resumed)
  in
  let extra = function
    | "engine.guest_instrs" -> float_of_int (isum remainders)
    | "engine.runs" -> float_of_int (List.length remainders)
    | _ -> 0.
  in
  List.map
    (fun (name, v) -> (name, v +. extra name))
    (engine_counts (List.filter_map Result.to_option round.datas))
  @ [
      ("snapshot.count", float_of_int round.snapshots);
      ("snapshot.bytes", float_of_int round.snapshot_bytes);
    ]

(* The traced replay of [store_round]: the Runner's stage sequence and
   the store calls, each in its own span. *)
let replay_store_round tr ~dir ~every ~fracs benches =
  let store = fresh_dir (Filename.concat dir "store") in
  let points_dir = fresh_dir (Filename.concat dir "points") in
  let jpath = Filename.concat store "journal" in
  let names = List.map (fun b -> b.Spec.name) benches in
  let thresholds = resume_thresholds in
  wrap tr "workload" (fun () ->
      let j, _ = wrap tr "journal.open" (fun () -> Journal.open_ ~path:jpath) in
      wrap tr "journal.append" (fun () ->
          Journal.append j (Journal.Sweep_begin { id = 1; benches = names }));
      let datas =
        List.map2
          (fun b frac ->
            wrap tr ("bench." ^ b.Spec.name) (fun () ->
                let seen = ref 0 in
                let on_snapshot (p : Runner.partial) =
                  wrap tr "checkpoint.save_suspended" (fun () ->
                      Checkpoint.save_suspended ~dir:store p);
                  wrap tr "journal.append" (fun () ->
                      Journal.append j
                        (Journal.Snapshot_ref { id = 1; bench = b.Spec.name }));
                  if p.Runner.p_next = final_stage then begin
                    if !seen = point_index ~every ~frac p then
                      wrap tr "checkpoint.save_suspended" (fun () ->
                          Checkpoint.save_suspended ~dir:points_dir p);
                    incr seen
                  end
                in
                let d = replay_stages tr ~every ~on_snapshot ~thresholds b in
                wrap tr "checkpoint.save" (fun () ->
                    Checkpoint.save ~dir:store d);
                d))
          benches fracs
      in
      wrap tr "journal.close" (fun () -> Journal.close j);
      let j, _ = wrap tr "journal.open" (fun () -> Journal.open_ ~path:jpath) in
      List.iter
        (fun b ->
          ignore
            (wrap tr "checkpoint.classify" (fun () ->
                 Checkpoint.classify ~thresholds ~dir:store b)))
        benches;
      let resume b (p : Runner.partial) =
        let program, ref_input, _ =
          wrap tr "spec.build" (fun () -> Spec.build b)
        in
        let stage = p.Runner.p_next in
        let config = stage_config stage in
        let aprogram =
          wrap tr "spec.apply_input" (fun () ->
              Spec.apply_input program ref_input)
        in
        match
          wrap tr "exec_snapshot.decode" (fun () ->
              Exec_snapshot.of_string p.Runner.p_snapshot)
        with
        | Exec_snapshot.Snapshot parsed -> (
            match
              wrap tr "exec_snapshot.restore" (fun () ->
                  Exec_snapshot.restore ~config ~program:aprogram parsed)
            with
            | Ok engine ->
                (* The point lies in the last stage: nothing runs after
                   it. *)
                let r = traced_run tr stage engine () in
                Some
                  (wrap tr "runner.assemble" (fun () ->
                       assemble_stages b (p.Runner.p_done @ [ (stage, r) ])))
            | Error _ -> None)
        | _ -> None
      in
      let resumed =
        List.map
          (fun b ->
            Option.bind
              (wrap tr "checkpoint.load_suspended" (fun () ->
                   Checkpoint.load_suspended ~thresholds ~dir:points_dir b))
              (fun p -> wrap tr "resume.remainder" (fun () -> resume b p)))
          benches
      in
      wrap tr "journal.append" (fun () ->
          Journal.append j (Journal.Sweep_end { id = 1 }));
      wrap tr "journal.close" (fun () -> Journal.close j);
      (datas, resumed))

let resume_workload ~seed ~seconds ~trace ~dir ~quick =
  let names = if quick then [ "perlbmk" ] else resume_names in
  let every = if quick then 2_000_000 else snapshot_every in
  let (benches, fracs), setup_s, setups =
    repeat_setup (fun () ->
        let rng = Random.State.make [| seed; 2 |] in
        let benches = List.map bench names in
        List.iter (fun b -> ignore (Spec.build b)) benches;
        ( benches,
          List.map (fun _ -> 0.1 +. Random.State.float rng 0.8) benches ))
  in
  metric "setup_s" setup_s;
  sample "setups" setups;
  let units =
    repeat_units
      ~seconds:(if trace then 0. else seconds)
      (fun () -> store_round ~dir ~every ~fracs benches)
  in
  List.iter (fun (_, round) -> check_store_round benches round) units;
  let counts = List.map (fun (_, round) -> store_counts round) units in
  report_counts counts;
  let oks l = data_digest (List.filter_map Result.to_option l) in
  digest "resume.data" (List.map (fun (_, round) -> oks round.resumed) units);
  let untraced =
    report_units units ~instrs:(count_of "engine.guest_instrs" counts)
  in
  if trace then begin
    let round = snd (List.hd units) in
    let tr = tracer () in
    let (datas, resumed), traced =
      timed (fun () -> replay_store_round tr ~dir ~every ~fracs benches)
    in
    if data_digest datas <> oks round.datas then
      problem "traced replay's data differs from the untraced run";
    if data_digest (List.filter_map Fun.id resumed) <> oks round.resumed then
      problem "traced replay's resumed data differs from the untraced run";
    report_trace tr ~traced ~untraced;
    let cs = calls tr.buffer in
    metric "spec.build_ms" (median_ms "spec.build" cs);
    metric "engine.avep_s" (busy "engine.avep" cs);
    metric "engine.train_s" (busy "engine.train" cs);
    metric "engine.threshold_s" (busy "engine.threshold" cs);
    engine_rate_metrics cs;
    metric "accuracy.assemble_ms" (median_ms "runner.assemble" cs);
    metric "engine.capture_ms" (median_ms "engine.capture" cs);
    metric "exec_snapshot.encode_ms" (median_ms "exec_snapshot.encode" cs);
    metric "exec_snapshot.decode_ms" (median_ms "exec_snapshot.decode" cs);
    metric "checkpoint.save_suspended_ms"
      (median_ms "checkpoint.save_suspended" cs);
    metric "checkpoint.save_ms" (median_ms "checkpoint.save" cs);
    metric "checkpoint.load_suspended_ms"
      (median_ms "checkpoint.load_suspended" cs);
    metric "journal.append_ms" (median_ms "journal.append" cs);
    metric "journal.open_ms" (median_ms "journal.open" cs);
    metric "resume.remainder_s" (busy "resume.remainder" cs)
  end

(* ---- main --------------------------------------------------------------- *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. in
  let trace = ref 0 and quick = ref false and dir = ref ".perfbench/work" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME sweep|serve|resume");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S time budget of the timed part");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
      ("--quick", Arg.Set quick, " tiny inputs, for the self-check");
      ("--dir", Arg.Set_string dir, "DIR scratch directory (removed at exit)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  let trace = !trace = 1 and quick = !quick and seed = !seed in
  let seconds = !seconds in
  let dir = fresh_dir !dir in
  (try
     match !workload with
     | "sweep" -> sweep_workload ~seconds ~trace ~dir ~quick
     | "serve" -> serve_workload ~seed ~seconds ~trace ~quick
     | "resume" -> resume_workload ~seed ~seconds ~trace ~dir ~quick
     | w ->
         prerr_endline ("unknown workload " ^ w);
         exit 2
   with e -> problem ("exception: " ^ Printexc.to_string e));
  rm_rf dir;
  (* In a traced run every exact count is also a per-layer metric. *)
  if trace then List.iter (fun (name, v) -> metric name v) report.counts;
  metric "peak_rss_mb"
    (if Float.is_nan !first_unit_peak then peak_rss_mb ()
     else !first_unit_peak);
  metric "ok_frac"
    (float_of_int report.ok /. float_of_int (max 1 report.attempted));
  let obj f l = Json.obj (List.rev_map (fun (k, v) -> (k, f v)) l) in
  print_endline
    (Json.obj
       [
         ("workload", Json.quote !workload);
         ("seed", string_of_int seed);
         ("trace", string_of_bool trace);
         ("quick", string_of_bool quick);
         ( "correct",
           string_of_bool (report.problems = [] && report.ok = report.attempted)
         );
         ("attempted", string_of_int report.attempted);
         ("failed", string_of_int (report.attempted - report.ok));
         ("problems", Json.arr (List.rev_map Json.quote report.problems));
         ("metrics", obj num report.metrics);
         ("counts", obj num report.counts);
         ("digests", obj Json.quote report.digests);
         ("samples", obj string_of_int report.samples);
         ("unit_walls", Json.arr (List.map num report.unit_walls));
         ("host", Host_info.to_json (Host_info.capture ()));
       ])
