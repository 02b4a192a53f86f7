type kind =
  | Retranslate_fail
  | Block_corrupt
  | Region_abort
  | Guest_trap
  | Silent_corruption
  | Cache_thrash

let all_kinds =
  [
    Retranslate_fail;
    Block_corrupt;
    Region_abort;
    Guest_trap;
    Silent_corruption;
    Cache_thrash;
  ]

let recoverable_kinds =
  [ Retranslate_fail; Block_corrupt; Region_abort; Cache_thrash ]

let kind_name = function
  | Retranslate_fail -> "retranslate_fail"
  | Block_corrupt -> "block_corrupt"
  | Region_abort -> "region_abort"
  | Guest_trap -> "guest_trap"
  | Silent_corruption -> "silent_corruption"
  | Cache_thrash -> "cache_thrash"

let kind_of_name = function
  | "retranslate_fail" -> Some Retranslate_fail
  | "block_corrupt" -> Some Block_corrupt
  | "region_abort" -> Some Region_abort
  | "guest_trap" -> Some Guest_trap
  | "silent_corruption" -> Some Silent_corruption
  | "cache_thrash" -> Some Cache_thrash
  | _ -> None

type arm = { step : int; kind : kind; salt : int64 }
type shot = { arm : arm; fired_step : int; target : int }
type report = { fired : shot list; unfired : arm list }

let injected report =
  List.length (List.filter (fun s -> s.target >= 0) report.fired)

let pp_arm ppf arm =
  Format.fprintf ppf "@[<h>%s@@%d@]" (kind_name arm.kind) arm.step
