module Json = Tpdbt_telemetry.Json

type request =
  | Ping
  | Status
  | Metrics
  | Drain
  | Translate of {
      program : string;
      threshold : int;
      seed : int64;
      max_steps : int option;
    }
  | Run of { workload : string; threshold : int; max_steps : int option }
  | Sweep of {
      benches : string list;
      max_steps : int option;
      return_results : bool;
    }

(* ---- strict validation ------------------------------------------------- *)

exception Reject of string

let reject fmt = Printf.ksprintf (fun s -> raise (Reject s)) fmt

let members = function
  | Json.Obj ms -> ms
  | _ -> reject "request must be a JSON object"

(* A closed schema: every member must be in [allowed], duplicates are
   rejected, and each extractor sees [Some v] iff its member is
   present. *)
let check_schema ~op ~allowed ms =
  let seen = Hashtbl.create 8 in
  List.iter
    (fun (k, _) ->
      if Hashtbl.mem seen k then reject "duplicate member %S" k;
      Hashtbl.replace seen k ();
      if not (List.mem k ("op" :: allowed)) then
        reject "unknown member %S for op %S" k op)
    ms

let find name ms = List.assoc_opt name ms

let get_string ~what = function
  | None -> None
  | Some (Json.Str s) -> Some s
  | Some _ -> reject "%s must be a string" what

let integral ~what v =
  if Float.is_integer v && Float.abs v <= 1e15 then Int64.of_float v
  else reject "%s must be an integer" what

let get_int ~what = function
  | None -> None
  | Some (Json.Num v) -> Some (Int64.to_int (integral ~what v))
  | Some _ -> reject "%s must be a number" what

let get_int64 ~what = function
  | None -> None
  | Some (Json.Num v) -> Some (integral ~what v)
  | Some _ -> reject "%s must be a number" what

let get_bool ~what = function
  | None -> None
  | Some (Json.Bool b) -> Some b
  | Some _ -> reject "%s must be a boolean" what

let get_string_list ~what = function
  | None -> None
  | Some (Json.Arr vs) ->
      Some
        (List.map
           (function
             | Json.Str s when s <> "" -> s
             | Json.Str _ -> reject "%s must not contain empty strings" what
             | _ -> reject "%s must be an array of strings" what)
           vs)
  | Some _ -> reject "%s must be an array" what

let positive ~what = function
  | None -> None
  | Some n when n > 0 -> Some n
  | Some n -> reject "%s must be positive (got %d)" what n

let non_negative ~what ~default = function
  | None -> default
  | Some n when n >= 0 -> n
  | Some n -> reject "%s must be non-negative (got %d)" what n

let parse_request text =
  match Json.parse text with
  | Error msg -> Error ("malformed JSON: " ^ msg)
  | Ok doc -> (
      try
        let ms = members doc in
        let op =
          match get_string ~what:"\"op\"" (find "op" ms) with
          | Some op -> op
          | None -> reject "missing \"op\" member"
        in
        let schema allowed = check_schema ~op ~allowed ms in
        match op with
        | "ping" ->
            schema [];
            Ok Ping
        | "status" ->
            schema [];
            Ok Status
        | "metrics" ->
            schema [];
            Ok Metrics
        | "drain" ->
            schema [];
            Ok Drain
        | "translate" ->
            schema [ "program"; "threshold"; "seed"; "max_steps" ];
            let program =
              match get_string ~what:"\"program\"" (find "program" ms) with
              | Some p when String.trim p <> "" -> p
              | Some _ -> reject "\"program\" must not be empty"
              | None -> reject "missing \"program\" member"
            in
            Ok
              (Translate
                 {
                   program;
                   threshold =
                     non_negative ~what:"\"threshold\"" ~default:1000
                       (get_int ~what:"\"threshold\"" (find "threshold" ms));
                   seed =
                     Option.value ~default:1L
                       (get_int64 ~what:"\"seed\"" (find "seed" ms));
                   max_steps =
                     positive ~what:"\"max_steps\""
                       (get_int ~what:"\"max_steps\"" (find "max_steps" ms));
                 })
        | "run" ->
            schema [ "workload"; "threshold"; "max_steps" ];
            let workload =
              match get_string ~what:"\"workload\"" (find "workload" ms) with
              | Some w when w <> "" -> w
              | Some _ -> reject "\"workload\" must not be empty"
              | None -> reject "missing \"workload\" member"
            in
            Ok
              (Run
                 {
                   workload;
                   threshold =
                     non_negative ~what:"\"threshold\"" ~default:20
                       (get_int ~what:"\"threshold\"" (find "threshold" ms));
                   max_steps =
                     positive ~what:"\"max_steps\""
                       (get_int ~what:"\"max_steps\"" (find "max_steps" ms));
                 })
        | "sweep" ->
            schema [ "benches"; "max_steps"; "return_results" ];
            Ok
              (Sweep
                 {
                   benches =
                     Option.value ~default:[]
                       (get_string_list ~what:"\"benches\""
                          (find "benches" ms));
                   max_steps =
                     positive ~what:"\"max_steps\""
                       (get_int ~what:"\"max_steps\"" (find "max_steps" ms));
                   return_results =
                     Option.value ~default:true
                       (get_bool ~what:"\"return_results\""
                          (find "return_results" ms));
                 })
        | "fuzz" ->
            (* Named so the refusal is precise: differential fuzzing is
               a CLI-side campaign (it owns a corpus directory and an
               exit code), not a service op.  Like every other unknown
               or unsupported op this must come back as a clean
               [invalid] reply, never [internal]. *)
            reject
              "op \"fuzz\" is not served; run the tpdbt fuzz subcommand \
               locally"
        | op -> reject "unknown op %S" op
      with Reject msg -> Error msg)

let cache_key = function
  | Run { workload; threshold; max_steps } ->
      Some
        (Printf.sprintf "run %s %d %s" workload threshold
           (match max_steps with None -> "-" | Some n -> string_of_int n))
  | Translate { program; threshold; seed; max_steps } ->
      Some
        (Printf.sprintf "translate %d %Ld %s %s" threshold seed
           (match max_steps with None -> "-" | Some n -> string_of_int n)
           program)
  | Ping | Status | Metrics | Drain | Sweep _ -> None

(* ---- replies ----------------------------------------------------------- *)

let error_reply ~kind msg =
  Json.obj
    [ ("ok", "false"); ("kind", Json.quote kind); ("error", Json.quote msg) ]

let overloaded_reply ~queue ~limit =
  Json.obj
    [
      ("ok", "false");
      ("kind", Json.quote "overloaded");
      ( "error",
        Json.quote
          (Printf.sprintf "admission queue full (%d of %d)" queue limit) );
      ("queue", string_of_int queue);
      ("queue_limit", string_of_int limit);
    ]

let draining_reply () =
  Json.obj
    [
      ("ok", "false");
      ("kind", Json.quote "draining");
      ("error", Json.quote "daemon is draining; no new work admitted");
    ]

let ping_reply ~ready =
  Json.obj
    [
      ("ok", "true");
      ("op", Json.quote "ping");
      ("ready", if ready then "true" else "false");
    ]
