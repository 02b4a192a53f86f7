module Engine = Tpdbt_dbt.Engine
module Perf_model = Tpdbt_dbt.Perf_model
module Spec = Tpdbt_workloads.Spec
module Suite = Tpdbt_workloads.Suite
module Profile_io = Tpdbt_profiles.Profile_io
module Durable = Tpdbt_dbt.Durable

(* Version 4 lets the store hold mid-run state: a file is either a
   finished benchmark (the v3 payload behind a "kind finished" line)
   or a suspended one — the completed stages plus the in-flight
   engine's serialized image — so a killed sweep resumes at
   guest-instruction granularity instead of re-running.  Version 3
   made the store crash-consistent: the header carries a CRC32 and
   byte length of the payload, saves fsync before the atomic rename,
   and loads classify damage (truncation, bit flips, trailing garbage,
   stale versions) instead of conflating it with absence.  Version 2
   widened the counters line with the code-cache and shadow-oracle
   fields. *)
let magic = "TPDBT-CKPT 4"

type stored = Finished of Runner.data | Suspended of Runner.partial

type classified =
  | Valid of stored
  | Missing
  | Stale_version of string
  | Corrupt of string

(* ---- serialisation ----------------------------------------------------- *)

let result_to_buf buf (r : Engine.result) =
  let add fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  add "steps %d" r.Engine.steps;
  add "profiling_ops %d" r.Engine.profiling_ops;
  add "outputs %d%s" (List.length r.Engine.outputs)
    (String.concat ""
       (List.map (fun v -> " " ^ string_of_int v) r.Engine.outputs));
  add "%s" (Perf_model.counters_to_line r.Engine.counters);
  add "regstats %d" (List.length r.Engine.region_stats);
  List.iter
    (fun (id, (s : Engine.region_stats)) ->
      add "regstat %d %d %d %d %d" id s.Engine.entries s.Engine.side_exits
        s.Engine.loop_back_taken s.Engine.loop_back_seen)
    r.Engine.region_stats;
  let text = Profile_io.to_string r.Engine.snapshot in
  let nlines = String.fold_left (fun n c -> if c = '\n' then n + 1 else n) 0 text in
  add "snapshot %d" nlines;
  Buffer.add_string buf text

let payload_of_data (d : Runner.data) =
  let buf = Buffer.create 8192 in
  let add fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  add "bench %s" d.Runner.bench.Spec.name;
  add "kind finished";
  add "thresholds %d" (List.length d.Runner.runs);
  List.iter
    (fun (r : Runner.threshold_run) ->
      add "threshold %s %d" r.Runner.label r.Runner.scaled)
    d.Runner.runs;
  add "avep";
  result_to_buf buf d.Runner.avep;
  add "train";
  result_to_buf buf d.Runner.train;
  List.iter
    (fun (r : Runner.threshold_run) ->
      add "run %s %d" r.Runner.label r.Runner.scaled;
      result_to_buf buf r.Runner.result)
    d.Runner.runs;
  add "end";
  Buffer.contents buf

let stage_header (s : Runner.stage) =
  match s with
  | Runner.Avep -> "avep"
  | Runner.Train -> "train"
  | Runner.Threshold (label, scaled) -> Printf.sprintf "run %s %d" label scaled

let payload_of_partial (p : Runner.partial) =
  let buf = Buffer.create 8192 in
  let add fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  add "bench %s" p.Runner.p_bench.Spec.name;
  add "kind suspended";
  add "thresholds %d" (List.length p.Runner.p_thresholds);
  List.iter
    (fun (label, scaled) -> add "threshold %s %d" label scaled)
    p.Runner.p_thresholds;
  add "done %d" (List.length p.Runner.p_done);
  List.iter
    (fun (stage, result) ->
      add "stage %s" (stage_header stage);
      result_to_buf buf result)
    p.Runner.p_done;
  add "next %s" (stage_header p.Runner.p_next);
  let text = p.Runner.p_snapshot in
  let nlines =
    String.fold_left (fun n c -> if c = '\n' then n + 1 else n) 0 text
  in
  add "exec %d" nlines;
  Buffer.add_string buf text;
  add "end";
  Buffer.contents buf

let data_to_string (d : Runner.data) = Durable.seal ~magic (payload_of_data d)

let partial_to_string (p : Runner.partial) =
  Durable.seal ~magic (payload_of_partial p)

(* ---- parsing ----------------------------------------------------------- *)

exception Malformed = Durable.Malformed

let parse_payload ?expect_thresholds spec text =
  let r = Durable.reader text in
  let next () = Durable.next r and words () = Durable.words r in
  let int_exn = Durable.int_exn in
  let expect s =
    if next () <> s then raise (Malformed (Printf.sprintf "expected %S" s))
  in
  let read_result () =
    let steps =
      match words () with
      | [ "steps"; n ] -> int_exn n
      | _ -> raise (Malformed "bad steps line")
    in
    let profiling_ops =
      match words () with
      | [ "profiling_ops"; n ] -> int_exn n
      | _ -> raise (Malformed "bad profiling_ops line")
    in
    let outputs =
      match words () with
      | "outputs" :: n :: vs when List.length vs = int_exn n ->
          List.map int_exn vs
      | _ -> raise (Malformed "bad outputs line")
    in
    let counters = Perf_model.counters_of_line (next ()) in
    let nstats =
      match words () with
      | [ "regstats"; n ] -> int_exn n
      | _ -> raise (Malformed "bad regstats line")
    in
    let region_stats =
      List.init nstats (fun _ ->
          match words () with
          | [ "regstat"; id; en; se; lbt; lbs ] ->
              ( int_exn id,
                {
                  Engine.entries = int_exn en;
                  side_exits = int_exn se;
                  loop_back_taken = int_exn lbt;
                  loop_back_seen = int_exn lbs;
                } )
          | _ -> raise (Malformed "bad regstat line"))
    in
    let nlines =
      match words () with
      | [ "snapshot"; n ] -> int_exn n
      | _ -> raise (Malformed "bad snapshot line")
    in
    let snapshot =
      match Profile_io.of_string (Durable.embedded r ~what:"snapshot" nlines) with
      | Ok s -> s
      | Error _ -> raise (Malformed "embedded profile rejected")
    in
    {
      Engine.snapshot;
      counters;
      steps;
      profiling_ops;
      outputs;
      region_stats;
      error = None;
      faults = None;
    }
  in
  try
    (match words () with
    | [ "bench"; name ] when name = spec.Spec.name -> ()
    | [ "bench"; name ] ->
        raise
          (Malformed
             (Printf.sprintf "checkpoint is for benchmark %s, not %s" name
                spec.Spec.name))
    | _ -> raise (Malformed "bad bench line"));
    let kind =
      match words () with
      | [ "kind"; k ] -> k
      | _ -> raise (Malformed "bad kind line")
    in
    let nruns =
      match words () with
      | [ "thresholds"; n ] -> int_exn n
      | _ -> raise (Malformed "bad thresholds line")
    in
    let labels =
      List.init nruns (fun _ ->
          match words () with
          | [ "threshold"; label; scaled ] -> (label, int_exn scaled)
          | _ -> raise (Malformed "bad threshold line"))
    in
    (match expect_thresholds with
    | Some expected when labels <> expected ->
        raise (Malformed "recorded under a different threshold list")
    | _ -> ());
    match kind with
    | "finished" ->
        expect "avep";
        let avep = read_result () in
        expect "train";
        let train = read_result () in
        let raw_runs =
          List.map
            (fun (label, scaled) ->
              (match words () with
              | [ "run"; l; s ] when l = label && int_exn s = scaled -> ()
              | _ -> raise (Malformed "run header out of order"));
              (label, scaled, read_result ()))
            labels
        in
        Durable.finish r;
        Valid (Finished (Runner.assemble spec avep train raw_runs))
    | "suspended" ->
        let stage_of = function
          | [ "avep" ] -> Runner.Avep
          | [ "train" ] -> Runner.Train
          | [ "run"; label; scaled ]
            when List.assoc_opt label labels = Some (int_exn scaled) ->
              Runner.Threshold (label, int_exn scaled)
          | _ -> raise (Malformed "bad stage descriptor")
        in
        let ndone =
          match words () with
          | [ "done"; n ] -> int_exn n
          | _ -> raise (Malformed "bad done line")
        in
        if ndone < 0 then raise (Malformed "negative done count");
        let p_done =
          List.init ndone (fun _ ->
              match words () with
              | "stage" :: rest ->
                  let stage = stage_of rest in
                  (stage, read_result ())
              | _ -> raise (Malformed "bad stage line"))
        in
        let p_next =
          match words () with
          | "next" :: rest -> stage_of rest
          | _ -> raise (Malformed "bad next line")
        in
        let nlines =
          match words () with
          | [ "exec"; n ] -> int_exn n
          | _ -> raise (Malformed "bad exec line")
        in
        let p_snapshot = Durable.embedded r ~what:"exec" nlines in
        (* The embedded engine snapshot carries its own magic and CRC —
           validate it now so a damaged one classifies the whole store
           entry as corrupt instead of failing at resume time. *)
        (match Tpdbt_dbt.Exec_snapshot.of_string p_snapshot with
        | Tpdbt_dbt.Exec_snapshot.Snapshot _ -> ()
        | Tpdbt_dbt.Exec_snapshot.Stale_version line ->
            raise (Malformed ("embedded snapshot is stale: " ^ line))
        | Tpdbt_dbt.Exec_snapshot.Corrupt reason ->
            raise (Malformed ("embedded snapshot rejected: " ^ reason)));
        Durable.finish r;
        Valid
          (Suspended
             {
               Runner.p_bench = spec;
               p_thresholds = labels;
               p_done;
               p_next;
               p_snapshot;
             })
    | k -> raise (Malformed (Printf.sprintf "unknown kind %S" k))
  with Malformed reason -> Corrupt reason

let data_of_string ?thresholds spec text =
  match Durable.unseal ~magic text with
  | Durable.Payload payload ->
      parse_payload ?expect_thresholds:thresholds spec payload
  | Durable.Stale_version line -> Stale_version line
  | Durable.Corrupt reason -> Corrupt reason

(* ---- files ------------------------------------------------------------- *)

let path ~dir spec = Filename.concat dir (spec.Spec.name ^ ".ckpt")

let save ~dir (d : Runner.data) =
  Durable.write_atomic (path ~dir d.Runner.bench) (data_to_string d)

(* A mid-run snapshot lives in the same per-benchmark slot the
   finished result will occupy: the file monotonically progresses
   suspended -> ... -> suspended -> finished, and a crash at any point
   leaves the previous (complete, CRC-guarded) state. *)
let save_suspended ~dir (p : Runner.partial) =
  Durable.write_atomic (path ~dir p.Runner.p_bench) (partial_to_string p)

let classify ?(thresholds = Suite.thresholds) ~dir spec =
  let file = path ~dir spec in
  if not (Sys.file_exists file) then Missing
  else
    match Durable.read_file file with
    | text -> data_of_string ~thresholds spec text
    | exception Sys_error reason -> Corrupt reason

let load ?thresholds ~dir spec =
  match classify ?thresholds ~dir spec with
  | Valid (Finished d) -> Some d
  | _ -> None

let load_suspended ?thresholds ~dir spec =
  match classify ?thresholds ~dir spec with
  | Valid (Suspended p) -> Some p
  | _ -> None

(* Everything a sweep needs from the store, for [Runner.run_many_par]
   and [Runner.run_many_supervised]: finished results to reuse (a
   suspended entry is healthy mid-run state, not a finished result —
   the suspended-resume path owns it), where mid-run snapshots land and
   where resumable state comes from (gated on [resume_suspended]). *)
let store ?thresholds ?(resume_suspended = true) ?on_snapshot_saved ~dir () =
  {
    Runner.load =
      (fun spec ->
        match classify ?thresholds ~dir spec with
        | Valid (Finished d) -> Ok (Some d)
        | Valid (Suspended _) | Missing -> Ok None
        | Stale_version line -> Error ("stale checkpoint version: " ^ line)
        | Corrupt reason -> Error reason);
    save = save ~dir;
    load_suspended =
      (fun spec ->
        if resume_suspended then load_suspended ?thresholds ~dir spec
        else None);
    on_snapshot =
      (fun p ->
        save_suspended ~dir p;
        Option.iter (fun f -> f p.Runner.p_bench.Spec.name) on_snapshot_saved);
  }
