(** The one JSON module: a minimal reader, a deterministic writer, the
    layout every JSON file uses, and the file reader and atomic writer
    every output goes through (stats, explain, checkpoint, run record,
    archive, flight, trace and metrics files).

    Integers and floats are distinct constructors so count fields
    round-trip exactly: a number parses to {!Float} iff its lexeme
    contains ['.'], ['e'] or ['E']. Integer lexemes that overflow the
    native 63-bit [int] degrade to {!Float} instead of failing; leading
    zeros are rejected per RFC 8259. Strings carry the usual escapes;
    [\uXXXX] escapes decode to UTF-8 bytes, with surrogate pairs
    combined into the astral code point (lone surrogates are
    rejected), so event labels survive a JSONL round-trip whatever
    their alphabet. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Error of string

val parse : string -> (t, string) result
val parse_exn : string -> t
(** Raises {!Error} with an offset-tagged message. *)

val fail : ('a, unit, string, 'b) format4 -> 'a
(** Raise {!Error} with a formatted message: how decoders reject a
    value. *)

(** {2 Accessors}

    All raise {!Error} naming the offending field; the [name] argument
    is only used in the error message. *)

val member : string -> t -> t
val member_opt : string -> t -> t option
val to_int : string -> t -> int
val to_float : string -> t -> float
(** Accepts both {!Int} and {!Float}. *)

val to_str : string -> t -> string
val to_bool : string -> t -> bool
val to_list : string -> t -> t list

(** {2 Writer}

    A fixed point of the parser: [write (parse_exn (to_string v))]
    emits the same bytes as [write v], which is what lets the archive
    content-address payloads by their canonical serialization.
    Integer-valued floats below 1e15 print without a fraction (and so
    reparse as {!Int}, printing identically); other floats use
    ["%.17g"], which round-trips doubles exactly; [-0.] normalizes to
    [0]; NaN and infinities print as [null]. Object member order is
    preserved as given. *)

val write : Buffer.t -> t -> unit
val to_string : t -> string
(** Compact single-line form, [", "]/[": "] separated. *)

val optional : string -> ('a -> t) -> 'a option -> (string * t) list
(** The member [(name, f v)] for [Some v], nothing for [None]: how the
    file builders leave absent fields out. *)

val add_string : Buffer.t -> string -> unit
(** A JSON string literal: quoted, with backslash escapes for the quote,
    the backslash, newline, return and tab, and [\u00XX] for the other
    control characters. *)

val add_float : Buffer.t -> float -> unit
(** A number as {!write} prints [Float f]. These two primitives are for
    writers that print their own compact lines (the JSONL and Chrome
    trace sinks). *)

val pretty : t -> string
(** The layout of every JSON file beast writes; ends with a newline.
    The root value prints one member (or element) per line with a
    two-space indent, and so does a member whose value is an object
    holding an array or object. A member whose value is an array
    holding an array or object prints one element per line. Everything
    else prints on one line: a non-empty object as ["{ "] ^ compact
    members ^ [" }"], with anything nested inside it in the compact
    {!write} form ([[1, 2]], [{"k": "v"}]); empty containers print as
    [[]] and [{}]. *)

(** {2 Files} *)

val of_file : string -> (t, string) result
(** Read and parse a whole file; an unreadable file or bad JSON is the
    error message. *)

val decode :
  ?what:string -> (t -> 'a) -> (t, string) result -> ('a, string) result
(** Run a decoder that raises {!Error} over the result of {!parse} or
    {!of_file}; every error, read, parse or decode, is prefixed with
    [what ^ ": "] when [what] is given. *)

val write_with : string -> (out_channel -> unit) -> unit
(** [write_with path f] replaces [path] atomically: [f] writes to
    [path.<pid>.tmp], which a rename then moves over [path], so a
    reader never sees a torn file. A failed write (a full disk, say)
    raises before the rename, so [path] keeps its previous contents; the
    temp file is removed and [Sys_error] names [path]. Since [path] is
    replaced, not opened, a symlink at [path] is replaced rather than
    followed, and a read-only file in a writable directory is
    overwritten. [f] may stream; it must not close the channel. *)

val write_file : string -> string -> unit
(** [write_file path text] is {!write_with} writing [text]. *)

val check_writable : string -> unit
(** Check that {!write_with} can create its temp file: [path]'s
    directory exists and is writable. A run refuses an unwritable output
    path this way before it does any work. Raises [Sys_error] naming
    [path]; writes nothing. *)
