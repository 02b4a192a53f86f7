(** OpenMetrics / Prometheus text exposition of a {!Metrics} registry.

    The scrape format ROADMAP item 5's [tpdbt serve] will speak, and
    the third artefact of [tpdbt profile].  Rendering is deterministic:
    families are sorted by (mangled) metric name, histogram buckets are
    emitted cumulatively with a final [le="+Inf"], counters become
    [<name>_total], and the document ends with [# EOF].  Values are
    printed as integers when exact, [%.17g] otherwise, so equal
    registries render byte-identically.

    [parse]/[validate] form a strict self-check mirroring
    {!Json.validate}: every exposition the CLI writes is re-parsed
    before it is reported as written. *)

val content_type : string
(** The OpenMetrics 1.0 media type, for HTTP-ish transports ([tpdbt
    serve] echoes it next to the exposition body). *)

val render : ?prefix:string -> Metrics.t -> string
(** Metric names are mangled to the exposition charset (every
    character outside [[a-zA-Z0-9_]] becomes ['_'] — dots in registry
    names become underscores) and prefixed with [prefix] (default
    ["tpdbt_"]). *)

type kind = Counter | Gauge | Histogram

type sample = {
  sample_name : string;
  labels : (string * string) list;
  value : float;
}

type family = { family_name : string; kind : kind; samples : sample list }

val parse : string -> family list
(** @raise Bad on the first violation: missing [# TYPE] or [# EOF],
    duplicate families, samples outside their family, non-cumulative
    or unsorted histogram buckets, a [_count] disagreeing with the
    [+Inf] bucket, malformed names, labels or numbers. *)

exception Bad of int * string
(** Line number and reason. *)

val validate : string -> (unit, string) result
