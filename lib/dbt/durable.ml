(* ---- CRC32 ------------------------------------------------------------- *)

(* Table-driven CRC32 (IEEE 802.3, reflected — the zlib/PNG polynomial),
   local so the stores stay dependency-free.  Native ints hold the 32-bit
   state, so the loop allocates nothing. *)
let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c :=
             if !c land 1 <> 0 then (!c lsr 1) lxor 0xEDB88320 else !c lsr 1
         done;
         !c))

let crc32 s =
  let table = Lazy.force crc_table in
  let c = ref 0xFFFFFFFF in
  String.iter
    (fun ch ->
      c := table.((!c lxor Char.code ch) land 0xFF) lxor (!c lsr 8))
    s;
  !c lxor 0xFFFFFFFF

let crc_hex s = Printf.sprintf "%08x" (crc32 s)

(* ---- sealed records ---------------------------------------------------- *)

type unsealed = Payload of string | Stale_version of string | Corrupt of string

let seal ~magic payload =
  Printf.sprintf "%s\ncrc %s %d\n%s" magic (crc_hex payload)
    (String.length payload) payload

let split_line s pos =
  match String.index_from_opt s pos '\n' with
  | None -> None
  | Some i -> Some (String.sub s pos (i - pos), i + 1)

(* Another version of the same store is stale, not foreign: for
   "TPDBT-CKPT 4" that is "TPDBT-CKPT " followed by any other digits.
   Anything else after the prefix — a flipped bit in the newline, say —
   is damage. *)
let stale_version ~magic line =
  match String.rindex_opt magic ' ' with
  | None -> false
  | Some i ->
      let prefix = String.sub magic 0 (i + 1) in
      let n = String.length prefix in
      String.length line > n
      && String.starts_with ~prefix line
      && String.for_all
           (fun c -> c >= '0' && c <= '9')
           (String.sub line n (String.length line - n))

let unseal ~magic text =
  if String.trim text = "" then Corrupt "empty file"
  else
    match split_line text 0 with
    | None -> Corrupt "missing newline after magic"
    | Some (line1, p1) -> (
        if String.equal line1 magic then
          match split_line text p1 with
          | None -> Corrupt "missing crc header"
          | Some (line2, p2) -> (
              match String.split_on_char ' ' line2 with
              | [ "crc"; hex; len ] -> (
                  match int_of_string_opt len with
                  | None -> Corrupt "malformed crc header"
                  | Some len when len < 0 -> Corrupt "malformed crc header"
                  | Some len ->
                      let avail = String.length text - p2 in
                      if avail < len then
                        Corrupt
                          (Printf.sprintf "truncated: %d of %d payload bytes"
                             avail len)
                      else if avail > len then
                        Corrupt
                          (Printf.sprintf
                             "trailing garbage: %d bytes past the payload"
                             (avail - len))
                      else
                        let payload = String.sub text p2 len in
                        let actual = crc_hex payload in
                        if not (String.equal actual hex) then
                          Corrupt
                            (Printf.sprintf "crc mismatch: header %s, payload %s"
                               hex actual)
                        else Payload payload)
              | _ -> Corrupt "malformed crc header")
        else if stale_version ~magic line1 then Stale_version line1
        else Corrupt "unrecognised header")

(* ---- payload lines ----------------------------------------------------- *)

exception Malformed of string

let malformed fmt = Printf.ksprintf (fun reason -> raise (Malformed reason)) fmt

type reader = { lines : string array; mutable pos : int }

let next r =
  if r.pos >= Array.length r.lines then malformed "payload ends mid-record"
  else (
    r.pos <- r.pos + 1;
    r.lines.(r.pos - 1))

(* A cell is one or more words of a line.  [print] writes each word
   after its separating space; [scan] takes words off the front of the
   rest of the line and raises [Bad] on a missing or unreadable one,
   which the enclosing line reports as "bad <tag> line". *)
exception Bad

type 'a cell = { print : Buffer.t -> 'a -> unit; scan : string list ref -> 'a }

let word =
  {
    print =
      (fun b w ->
        Buffer.add_char b ' ';
        Buffer.add_string b w);
    scan =
      (fun rest ->
        match !rest with
        | w :: tl ->
            rest := tl;
            w
        | [] -> raise Bad);
  }

let conv enc dec c =
  {
    print = (fun b v -> c.print b (enc v));
    scan =
      (fun rest ->
        match dec (c.scan rest) with Some v -> v | None -> raise Bad);
  }

let int = conv string_of_int int_of_string_opt word

let enum cases =
  conv
    (fun v -> fst (List.find (fun (_, x) -> x = v) cases))
    (fun w -> List.assoc_opt w cases)
    word

let flag = enum [ ("0", false); ("1", true) ]

let opt c =
  {
    print = (fun b -> Option.iter (c.print b));
    scan = (fun rest -> if !rest = [] then None else Some (c.scan rest));
  }

let pair a b =
  {
    print =
      (fun buf (x, y) ->
        a.print buf x;
        b.print buf y);
    scan =
      (fun rest ->
        let x = a.scan rest in
        (x, b.scan rest));
  }

let t3 a b c =
  conv
    (fun (x, y, z) -> (x, (y, z)))
    (fun (x, (y, z)) -> Some (x, y, z))
    (pair a (pair b c))

let t4 a b c d =
  conv
    (fun (x, y, z, w) -> (x, (y, z, w)))
    (fun (x, (y, z, w)) -> Some (x, y, z, w))
    (pair a (t3 b c d))

let t5 a b c d e =
  conv
    (fun (x, y, z, w, v) -> (x, (y, z, w, v)))
    (fun (x, (y, z, w, v)) -> Some (x, y, z, w, v))
    (pair a (t4 b c d e))

let fixed n c =
  {
    print = (fun b xs -> Array.iter (c.print b) xs);
    scan = (fun rest -> Array.init n (fun _ -> c.scan rest));
  }

type 'a line = { put : Buffer.t -> 'a -> unit; get : reader -> 'a }

let put l = l.put
let get l = l.get
let record put get = { put; get }

let line tag c =
  {
    put =
      (fun b v ->
        Buffer.add_string b tag;
        c.print b v;
        Buffer.add_char b '\n');
    get =
      (fun r ->
        match String.split_on_char ' ' (next r) with
        | t :: words when String.equal t tag -> (
            let rest = ref words in
            match c.scan rest with
            | v when !rest = [] -> v
            | _ | (exception Bad) -> malformed "bad %s line" tag)
        | _ -> malformed "bad %s line" tag);
  }

let tag t = line t { print = (fun _ () -> ()); scan = (fun _ -> ()) }

(* Counts are never negative, and every element takes at least one
   word, so a count larger than the words left is damage too — caught
   before anything is allocated. *)
let count = conv Fun.id (fun n -> if n < 0 then None else Some n) int

let counted ~length ~iter ~init tag c =
  line tag
    {
      print =
        (fun b xs ->
          count.print b (length xs);
          iter (c.print b) xs);
      scan =
        (fun rest ->
          let n = count.scan rest in
          if n > List.length !rest then raise Bad;
          init n (fun _ -> c.scan rest));
    }

let array tag c =
  counted ~length:Array.length ~iter:Array.iter ~init:Array.init tag c

let list tag c =
  counted ~length:List.length ~iter:List.iter ~init:List.init tag c

let records tag sub =
  let head = line tag count in
  {
    put =
      (fun b xs ->
        head.put b (List.length xs);
        List.iter (sub.put b) xs);
    get = (fun r -> List.init (head.get r) (fun _ -> sub.get r));
  }

let text tag =
  let head = line tag count in
  {
    put =
      (fun b s ->
        head.put b
          (String.fold_left (fun n c -> if c = '\n' then n + 1 else n) 0 s);
        Buffer.add_string b s);
    get =
      (fun r ->
        let buf = Buffer.create 4096 in
        for _ = 1 to head.get r do
          Buffer.add_string buf (next r);
          Buffer.add_char buf '\n'
        done;
        Buffer.contents buf);
  }

let write f =
  let b = Buffer.create 8192 in
  f b;
  Buffer.add_string b "end\n";
  Buffer.contents b

let read f payload =
  let r =
    { lines = Array.of_list (String.split_on_char '\n' payload); pos = 0 }
  in
  match
    let v = f r in
    if next r <> "end" then malformed "expected %S" "end";
    (* the payload always ends "end\n", so the final split element is
       one empty string; anything more is garbage a broken writer
       appended inside the measured payload *)
    if not (r.pos = Array.length r.lines - 1 && r.lines.(r.pos) = "") then
      malformed "trailing garbage after end marker";
    v
  with
  | v -> Ok v
  | exception Malformed reason -> Error reason

(* ---- files ------------------------------------------------------------- *)

(* The rename itself lives in the directory: without fsyncing it, a
   power cut can forget the new name (or resurrect the old file) even
   though the data blocks are safe.  Directories cannot be opened for
   writing; O_RDONLY is the documented way to fsync one.  Filesystems
   that refuse (EINVAL and friends) get the rename's usual eventual
   durability — no worse than before. *)
let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | dfd ->
      Fun.protect
        ~finally:(fun () -> try Unix.close dfd with Unix.Unix_error _ -> ())
        (fun () -> try Unix.fsync dfd with Unix.Unix_error _ -> ())

let write_atomic path text =
  let dir = Filename.dirname path in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc text;
      (* Crash consistency: the payload must be durable before the
         rename publishes it, or a power cut can leave a complete-
         looking file full of zeroes. *)
      flush oc;
      Unix.fsync (Unix.descr_of_out_channel oc));
  Sys.rename tmp path;
  fsync_dir dir

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))
