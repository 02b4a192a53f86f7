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

module D = Durable

(* The payload's lines.  A finished payload is [bench], [kind],
   [thresholds], then the [avep], [train] and each [run] header
   followed by its result; a suspended one is [bench], [kind],
   [thresholds], [done] stages, [next] and the [exec] snapshot. *)
module L = struct
  let steps = D.line "steps" D.int
  let profiling_ops = D.line "profiling_ops" D.int
  let outputs = D.list "outputs" D.int

  let regstats =
    D.records "regstats"
      (D.line "regstat"
         (D.conv
            (fun (id, (s : Engine.region_stats)) ->
              ( id,
                s.Engine.entries,
                s.Engine.side_exits,
                s.Engine.loop_back_taken,
                s.Engine.loop_back_seen ))
            (fun (id, entries, side_exits, loop_back_taken, loop_back_seen) ->
              Some
                ( id,
                  {
                    Engine.entries;
                    side_exits;
                    loop_back_taken;
                    loop_back_seen;
                  } ))
            (D.t5 D.int D.int D.int D.int D.int)))

  let profile = D.text "snapshot"

  (* One engine run's raw result. *)
  let result =
    D.record
      (fun b (r : Engine.result) ->
        D.put steps b r.Engine.steps;
        D.put profiling_ops b r.Engine.profiling_ops;
        D.put outputs b r.Engine.outputs;
        D.put Perf_model.counters_line b r.Engine.counters;
        D.put regstats b r.Engine.region_stats;
        D.put profile b (Profile_io.to_string r.Engine.snapshot))
      (fun rd ->
        let steps = D.get steps rd in
        let profiling_ops = D.get profiling_ops rd in
        let outputs = D.get outputs rd in
        let counters = D.get Perf_model.counters_line rd in
        let region_stats = D.get regstats rd in
        match Profile_io.of_string (D.get profile rd) with
        | Ok snapshot ->
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
        | Error _ -> raise (D.Malformed "embedded profile rejected"))

  let bench = D.line "bench" D.word

  let kind =
    D.line "kind"
      (D.enum [ ("finished", `Finished); ("suspended", `Suspended) ])

  let thresholds =
    D.records "thresholds" (D.line "threshold" (D.pair D.word D.int))

  let avep = D.tag "avep"
  let train = D.tag "train"
  let run = D.line "run" (D.pair D.word D.int)

  let stage_cell =
    D.conv
      (function
        | Runner.Avep -> ("avep", None)
        | Runner.Train -> ("train", None)
        | Runner.Threshold (label, scaled) -> ("run", Some (label, scaled)))
      (function
        | "avep", None -> Some Runner.Avep
        | "train", None -> Some Runner.Train
        | "run", Some (label, scaled) -> Some (Runner.Threshold (label, scaled))
        | _ -> None)
      (D.pair D.word (D.opt (D.pair D.word D.int)))

  let stage = D.line "stage" stage_cell

  let done_ =
    D.records "done"
      (D.record
         (fun b (st, r) ->
           D.put stage b st;
           D.put result b r)
         (fun rd ->
           let st = D.get stage rd in
           (st, D.get result rd)))

  let next = D.line "next" stage_cell
  let exec = D.text "exec"
end

let data_to_string (d : Runner.data) =
  Durable.seal ~magic
    (D.write (fun b ->
         D.put L.bench b d.Runner.bench.Spec.name;
         D.put L.kind b `Finished;
         D.put L.thresholds b
           (List.map
              (fun (r : Runner.threshold_run) ->
                (r.Runner.label, r.Runner.scaled))
              d.Runner.runs);
         D.put L.avep b ();
         D.put L.result b d.Runner.avep;
         D.put L.train b ();
         D.put L.result b d.Runner.train;
         List.iter
           (fun (r : Runner.threshold_run) ->
             D.put L.run b (r.Runner.label, r.Runner.scaled);
             D.put L.result b r.Runner.result)
           d.Runner.runs))

let partial_to_string (p : Runner.partial) =
  Durable.seal ~magic
    (D.write (fun b ->
         D.put L.bench b p.Runner.p_bench.Spec.name;
         D.put L.kind b `Suspended;
         D.put L.thresholds b p.Runner.p_thresholds;
         D.put L.done_ b p.Runner.p_done;
         D.put L.next b p.Runner.p_next;
         D.put L.exec b p.Runner.p_snapshot))

(* ---- parsing ----------------------------------------------------------- *)

(* Only the checks that belong to this format are left here; the line
   grammar itself is {!L}'s. *)
let parse_payload ?expect_thresholds spec rd =
  let name = D.get L.bench rd in
  if name <> spec.Spec.name then
    raise
      (D.Malformed
         (Printf.sprintf "checkpoint is for benchmark %s, not %s" name
            spec.Spec.name));
  let kind = D.get L.kind rd in
  let labels = D.get L.thresholds rd in
  (match expect_thresholds with
  | Some expected when labels <> expected ->
      raise (D.Malformed "recorded under a different threshold list")
  | _ -> ());
  match kind with
  | `Finished ->
      D.get L.avep rd;
      let avep = D.get L.result rd in
      D.get L.train rd;
      let train = D.get L.result rd in
      let raw_runs =
        List.map
          (fun (label, scaled) ->
            if D.get L.run rd <> (label, scaled) then
              raise (D.Malformed "run header out of order");
            (label, scaled, D.get L.result rd))
          labels
      in
      (* Each result passed its own checks; whether its parts fit
         together (a region id used twice, say) shows only when the
         comparisons are computed. *)
      (match Runner.assemble spec avep train raw_runs with
      | d -> Finished d
      | exception Invalid_argument reason ->
          raise (D.Malformed ("results do not assemble: " ^ reason)))
  | `Suspended ->
      let p_done = D.get L.done_ rd in
      let p_next = D.get L.next rd in
      let p_snapshot = D.get L.exec rd in
      List.iter
        (function
          | Runner.Threshold (label, scaled)
            when List.assoc_opt label labels <> Some scaled ->
              raise (D.Malformed "stage not in the threshold list")
          | _ -> ())
        (p_next :: List.map fst p_done);
      (* The embedded engine snapshot carries its own magic and CRC —
         validate it now so a damaged one classifies the whole store
         entry as corrupt instead of failing at resume time. *)
      (match Tpdbt_dbt.Exec_snapshot.of_string p_snapshot with
      | Tpdbt_dbt.Exec_snapshot.Snapshot _ -> ()
      | Tpdbt_dbt.Exec_snapshot.Stale_version line ->
          raise (D.Malformed ("embedded snapshot is stale: " ^ line))
      | Tpdbt_dbt.Exec_snapshot.Corrupt reason ->
          raise (D.Malformed ("embedded snapshot rejected: " ^ reason)));
      Suspended
        {
          Runner.p_bench = spec;
          p_thresholds = labels;
          p_done;
          p_next;
          p_snapshot;
        }

let data_of_string ?thresholds spec text =
  match Durable.unseal ~magic text with
  | Durable.Payload payload -> (
      match
        D.read (parse_payload ?expect_thresholds:thresholds spec) payload
      with
      | Ok stored -> Valid stored
      | Error reason -> Corrupt reason)
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
