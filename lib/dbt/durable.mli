(** Durable records: the one codec behind the three on-disk stores —
    the checkpoint store ([TPDBT-CKPT]), serialized engine images
    ([TPDBT-SNAP]) and the serve journal ([TPDBT-JRNL]).

    A {e sealed} record is a magic line, a [crc <hex> <len>] header,
    then exactly [len] payload bytes whose CRC32 is [<hex>].  Reading
    one back {e classifies} it: a valid payload, a stale version of the
    same store, or corruption with the reason it was detected.  The
    journal frames each of its lines with the same {!crc_hex}.

    Files are published crash-consistently: temp file, fsync, atomic
    rename, then fsync of the directory so the rename itself survives a
    power cut. *)

val crc_hex : string -> string
(** CRC32 (IEEE 802.3, reflected — the zlib/PNG polynomial) as eight
    lower-case hex digits. *)

type unsealed =
  | Payload of string  (** magic, header, length and CRC all check out *)
  | Stale_version of string
      (** the magic line of another version of the same store: the same
          text up to the last space, then other digits *)
  | Corrupt of string
      (** empty, missing newline, foreign magic, malformed or negative
          header, truncated, trailing garbage or CRC mismatch; the
          string says which *)

val seal : magic:string -> string -> string
(** [seal ~magic payload] is [magic ^ "\ncrc <hex> <len>\n" ^ payload]. *)

val unseal : magic:string -> string -> unsealed
(** Total: never raises.  The inverse of {!seal} on its image. *)

(** {2 Reading payloads}

    The stores' payloads are line-oriented text.  A {!reader} walks
    one; every malformation raises {!Malformed} with its reason, which
    the store turns into its [Corrupt] classification. *)

exception Malformed of string

val malformed : ('a, unit, string, 'b) format4 -> 'a
(** [malformed fmt ...] raises {!Malformed} with the formatted reason. *)

val int_exn : string -> int
(** @raise Malformed if the string is not an integer. *)

type reader

val reader : string -> reader

val next : reader -> string
(** The next line, without its newline.
    @raise Malformed at the end of the payload. *)

val words : reader -> string list
(** The next line split on single spaces. *)

val embedded : reader -> what:string -> int -> string
(** [embedded r ~what n]: the next [n] lines, each with its newline —
    a text embedded in the payload.
    @raise Malformed if [n] is negative (naming [what]) or fewer lines
    remain. *)

val finish : reader -> unit
(** The [end] marker, then nothing but the final newline.
    @raise Malformed otherwise. *)

(** {2 Files} *)

val write_atomic : string -> string -> unit
(** [write_atomic path text] publishes [text] at [path]: it writes
    [path ^ ".tmp"], fsyncs it, renames it over [path] and fsyncs the
    directory (best effort — a filesystem that refuses to fsync a
    directory is tolerated).  Creates the directory if it is missing
    (one level).
    @raise Sys_error on I/O failure. *)

val read_file : string -> string
(** The whole file.
    @raise Sys_error on I/O failure. *)
