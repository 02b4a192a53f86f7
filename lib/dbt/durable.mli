(** Durable records: the one codec behind the three on-disk stores —
    the checkpoint store ([TPDBT-CKPT]), serialized engine images
    ([TPDBT-SNAP]) and the serve journal ([TPDBT-JRNL]).

    A {e sealed} record is a magic line, a [crc <hex> <len>] header,
    then exactly [len] payload bytes whose CRC32 is [<hex>].  Reading
    one back {e classifies} it: a valid payload, a stale version of the
    same store, or corruption with the reason it was detected.  The
    journal frames each of its lines with the same {!crc_hex}.

    The checkpoint and snapshot payloads share one line grammar,
    declared here as two-way {!line} codecs: the stores list their
    lines once and keep only the checks that belong to their own
    format.

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

(** {2 Payload lines}

    A payload is line-oriented text ending in an [end] line.  Its
    grammar is declared once, as {!line} values: each one both prints
    its lines into a [Buffer] and reads them back, so a store's writer
    and reader are two lists of calls to the same values and cannot
    drift apart.  A line is a tag followed by {!cell}s, each a
    space-separated word or a fixed group of words. *)

exception Malformed of string
(** Raised inside {!read} — by a line that does not parse, or by a
    store's own check — and returned as its [Error]. *)

type reader
(** A payload being read, line by line. *)

type 'a cell

val word : string cell
(** One word, as is (it must hold no space or newline). *)

val int : int cell
val flag : bool cell
(** [0] or [1]. *)

val enum : (string * 'a) list -> 'a cell
(** One word naming a constant: [enum [("trace", Trace); ("loop", Loop)]]. *)

val conv : ('a -> 'b) -> ('b -> 'a option) -> 'b cell -> 'a cell
(** [conv enc dec c] carries ['a] as [c]; [dec] returning [None] makes
    the line bad. *)

val opt : 'a cell -> 'a option cell
(** Nothing for [None]; must be the last cell of its line. *)

val pair : 'a cell -> 'b cell -> ('a * 'b) cell
val t3 : 'a cell -> 'b cell -> 'c cell -> ('a * 'b * 'c) cell
val t4 : 'a cell -> 'b cell -> 'c cell -> 'd cell -> ('a * 'b * 'c * 'd) cell

val t5 :
  'a cell ->
  'b cell ->
  'c cell ->
  'd cell ->
  'e cell ->
  ('a * 'b * 'c * 'd * 'e) cell

val fixed : int -> 'a cell -> 'a array cell
(** Exactly [n] cells, with no count. *)

type 'a line
(** One or more payload lines carrying an ['a]. *)

val put : 'a line -> Buffer.t -> 'a -> unit

val get : 'a line -> reader -> 'a
(** @raise Malformed ["bad <tag> line"] if the lines do not parse. *)

val line : string -> 'a cell -> 'a line
(** [<tag> <cell>] — the tag followed by exactly the cell's words. *)

val tag : string -> unit line
(** [<tag>] alone. *)

val array : string -> 'a cell -> 'a array line
(** [<tag> <n> <cell>*n].  A negative [n], or one larger than the
    words left on the line, is bad. *)

val list : string -> 'a cell -> 'a list line
(** As {!array}. *)

val records : string -> 'a line -> 'a list line
(** [<tag> <n>], then [n] sub-records.  A negative [n] is bad. *)

val text : string -> string line
(** [<tag> <n>], then a text of [n] newline-terminated lines, embedded
    verbatim.  A negative [n] is bad. *)

val record : (Buffer.t -> 'a -> unit) -> (reader -> 'a) -> 'a line
(** A sub-record of several lines, from its writer and its reader —
    each a list of {!put}s and {!get}s of other lines. *)

val write : (Buffer.t -> unit) -> string
(** The payload [f] writes, followed by the [end] line. *)

val read : (reader -> 'a) -> string -> ('a, string) result
(** [read f payload] runs [f], then expects the [end] line and nothing
    after it.  Total: {!Malformed} comes back as [Error reason]. *)

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
