(** The [tpdbt serve] request protocol: strictly validated JSON.

    A request is one JSON object per frame ({!Frame}) with a required
    ["op"] member naming the operation; the remaining members are
    op-specific, typed, and {e closed} — an unknown member, a duplicate
    member, a wrong type or an out-of-range value rejects the request
    with a descriptive [invalid] reply.  Strictness is the robustness
    property: a malformed or adversarial client can never crash the
    daemon or smuggle an half-understood request into execution; the
    worst it can achieve is an error reply (protocol damage) or a
    dropped connection (framing damage).

    Operations:
    - [ping] — liveness/readiness probe
    - [status] — serving-state snapshot (queue, counters, cache)
    - [metrics] — OpenMetrics exposition of the [serve.*] registry
    - [drain] — stop admitting work, finish what is queued, shut down
    - [translate] — assemble and translate a guest program
    - [run] — execute one suite workload under the two-phase engine
    - [sweep] — the paper's threshold sweep over suite benchmarks

    Replies are JSON objects with an ["ok"] boolean.  Failures carry
    ["kind"] — ["invalid"] (rejected request), ["overloaded"]
    (admission queue full — explicit backpressure), ["draining"]
    (daemon shutting down), ["internal"] (a bug, never expected) —
    and a human-readable ["error"]. *)

type request =
  | Ping
  | Status
  | Metrics
  | Drain
  | Translate of {
      program : string;  (** G32 assembly text *)
      threshold : int;
      seed : int64;
      max_steps : int option;
    }
  | Run of {
      workload : string;  (** suite benchmark name *)
      threshold : int;
      max_steps : int option;
    }
  | Sweep of {
      benches : string list;  (** empty = the whole suite *)
      max_steps : int option;
      return_results : bool;
          (** include each benchmark's serialised result in the reply
              (the checkpoint text — byte-comparable to an offline
              run); default true *)
    }

val parse_request : string -> (request, string) result
(** Strict parse: RFC 8259 syntax via {!Tpdbt_telemetry.Json.parse},
    then closed-schema validation.  [Error] carries the reason echoed
    in the [invalid] reply. *)

val cache_key : request -> string option
(** Canonical warm-cache key for requests whose reply is a pure
    function of their parameters ([translate], [run]); [None]
    otherwise. *)

(** {2 Reply rendering} *)

val error_reply : kind:string -> string -> string
(** [{"ok":false,"kind":<kind>,"error":<msg>}]. *)

val overloaded_reply : queue:int -> limit:int -> string
val draining_reply : unit -> string
val ping_reply : ready:bool -> string
