(* The repo's one JSON module (the repo deliberately carries no JSON
   dependency): the reader, the compact and pretty printers, and the
   file reader and atomic writer every JSON file goes through. Modules
   that write files build a [t] and never print JSON themselves; the
   trace sinks print their compact per-event lines with [add_string]
   and [add_float]. Integers and floats are kept distinct so exact
   round-trips of counts stay exact; a number is a float iff its lexeme
   contains '.', 'e' or 'E'. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Error m)) fmt

let parse_exn s =
  let n = String.length s in
  let pos = ref 0 in
  let fail fmt =
    Printf.ksprintf
      (fun m -> raise (Error (Printf.sprintf "at offset %d: %s" !pos m)))
      fmt
  in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | Some c' -> fail "expected %c, got %c" c c'
    | None -> fail "expected %c, got end of input" c
  in
  let literal word v =
    let m = String.length word in
    if !pos + m <= n && String.sub s !pos m = word then begin
      pos := !pos + m;
      v
    end
    else fail "invalid literal"
  in
  (* \uXXXX escapes decode to UTF-8; surrogate pairs combine into the
     astral code point, lone surrogates are rejected. *)
  let read_u4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let hex = String.sub s !pos 4 in
    pos := !pos + 4;
    try int_of_string ("0x" ^ hex) with _ -> fail "invalid \\u escape %s" hex
  in
  let add_utf8 buf cp =
    if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
    else if cp < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else if cp < 0x10000 then begin
      Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xF0 lor (cp lsr 18)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
        advance ();
        match peek () with
        | None -> fail "unterminated escape"
        | Some c ->
          advance ();
          (match c with
          | '"' -> Buffer.add_char buf '"'
          | '\\' -> Buffer.add_char buf '\\'
          | '/' -> Buffer.add_char buf '/'
          | 'n' -> Buffer.add_char buf '\n'
          | 'r' -> Buffer.add_char buf '\r'
          | 't' -> Buffer.add_char buf '\t'
          | 'b' -> Buffer.add_char buf '\b'
          | 'f' -> Buffer.add_char buf '\012'
          | 'u' ->
            let code = read_u4 () in
            if code >= 0xD800 && code <= 0xDBFF then begin
              (* High surrogate: must be chased by \uDC00-\uDFFF. *)
              if
                not
                  (!pos + 2 <= n && s.[!pos] = '\\' && s.[!pos + 1] = 'u')
              then fail "unpaired high surrogate \\u%04X" code;
              pos := !pos + 2;
              let low = read_u4 () in
              if not (low >= 0xDC00 && low <= 0xDFFF) then
                fail "invalid low surrogate \\u%04X" low;
              add_utf8 buf
                (0x10000 + ((code - 0xD800) lsl 10) + (low - 0xDC00))
            end
            else if code >= 0xDC00 && code <= 0xDFFF then
              fail "unpaired low surrogate \\u%04X" code
            else add_utf8 buf code
          | c -> fail "invalid escape \\%c" c);
          go ())
      | Some c ->
        advance ();
        Buffer.add_char buf c;
        go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_float = ref false in
    if peek () = Some '-' then advance ();
    let rec digits () =
      match peek () with
      | Some '0' .. '9' ->
        advance ();
        digits ()
      | _ -> ()
    in
    (* RFC 8259 integer part: "0" or a nonzero digit followed by more
       digits — "01" is not a number. *)
    (match peek () with
    | Some '0' -> (
      advance ();
      match peek () with
      | Some '0' .. '9' -> fail "leading zero in number"
      | _ -> ())
    | Some '1' .. '9' -> digits ()
    | _ -> fail "expected a number");
    (match peek () with
    | Some '.' ->
      is_float := true;
      advance ();
      digits ()
    | _ -> ());
    (match peek () with
    | Some ('e' | 'E') ->
      is_float := true;
      advance ();
      (match peek () with
      | Some ('+' | '-') -> advance ()
      | _ -> ());
      digits ()
    | _ -> ());
    let lexeme = String.sub s start (!pos - start) in
    if !is_float then
      match float_of_string_opt lexeme with
      | Some f -> Float f
      | None -> fail "invalid number %s" lexeme
    else
      match int_of_string_opt lexeme with
      | Some k -> Int k
      | None -> (
        (* Integer lexeme overflowing the native 63-bit int: keep the
           value, at float precision, rather than rejecting the file. *)
        match float_of_string_opt lexeme with
        | Some f -> Float f
        | None -> fail "invalid integer %s" lexeme)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let rec members acc =
          skip_ws ();
          let key = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            members ((key, v) :: acc)
          | Some '}' ->
            advance ();
            List.rev ((key, v) :: acc)
          | _ -> fail "expected , or } in object"
        in
        Obj (members [])
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        Arr []
      end
      else begin
        let rec elems acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            elems (v :: acc)
          | Some ']' ->
            advance ();
            List.rev (v :: acc)
          | _ -> fail "expected , or ] in array"
        in
        Arr (elems [])
      end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail "unexpected character %c" c
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let parse s = match parse_exn s with v -> Ok v | exception Error m -> Error m

(* ------------------------------------------------------------------ *)
(* Accessors (raising [Error] with the offending field's name)         *)
(* ------------------------------------------------------------------ *)

let member_opt name = function
  | Obj members -> List.assoc_opt name members
  | _ -> None

let member name = function
  | Obj members -> (
    match List.assoc_opt name members with
    | Some v -> v
    | None -> fail "missing field %S" name)
  | _ -> fail "expected an object with field %S" name

let to_int name = function
  | Int k -> k
  | _ -> fail "%s: expected an integer" name

let to_float name = function
  | Int k -> float_of_int k
  | Float f -> f
  | _ -> fail "%s: expected a number" name

let to_str name = function
  | Str s -> s
  | _ -> fail "%s: expected a string" name

let to_bool name = function
  | Bool b -> b
  | _ -> fail "%s: expected a boolean" name

let to_list name = function
  | Arr l -> l
  | _ -> fail "%s: expected an array" name

(* ------------------------------------------------------------------ *)
(* Deterministic writer                                                *)
(* ------------------------------------------------------------------ *)

(* The writer is a fixed point of the parser: for any [v],
   [write (parse_exn (to_string v))] produces the same bytes as
   [write v]. Integer-valued floats print without a fraction (so they
   reparse as [Int], which prints identically); everything else uses
   ["%.17g"], which round-trips doubles exactly. NaN and infinities
   have no JSON spelling and print as [null]. *)

let add_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let add_float buf f =
  if not (Float.is_finite f) then Buffer.add_string buf "null"
  else if f = 0.0 then Buffer.add_char buf '0' (* normalizes -0. *)
  else if Float.is_integer f && Float.abs f < 1e15 then
    Buffer.add_string buf (Printf.sprintf "%.0f" f)
  else Buffer.add_string buf (Printf.sprintf "%.17g" f)

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool true -> Buffer.add_string buf "true"
  | Bool false -> Buffer.add_string buf "false"
  | Int k -> Buffer.add_string buf (string_of_int k)
  | Float f -> add_float buf f
  | Str s -> add_string buf s
  | Arr l ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_string buf ", ";
        write buf v)
      l;
    Buffer.add_char buf ']'
  | Obj members ->
    Buffer.add_char buf '{';
    add_members buf members;
    Buffer.add_char buf '}'

and add_members buf members =
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_string buf ", ";
      add_string buf k;
      Buffer.add_string buf ": ";
      write buf v)
    members

let optional name f = function None -> [] | Some v -> [ (name, f v) ]

let to_string v =
  let buf = Buffer.create 256 in
  write buf v;
  Buffer.contents buf

(* The layout of every JSON file the repo writes. A block prints one
   member (or element) per line; the root is a block, and so is a
   member value that holds an array or object. Everything else stays on
   one line: a non-empty object as "{ " ^ compact members ^ " }", any
   other value in the compact [write] form. *)
let pretty v =
  let buf = Buffer.create 1024 in
  let container = function Arr _ | Obj _ -> true | _ -> false in
  let nested = function
    | Arr l -> List.exists container l
    | Obj m -> List.exists (fun (_, v) -> container v) m
    | _ -> false
  in
  let line = function
    | Obj (_ :: _ as m) ->
      Buffer.add_string buf "{ ";
      add_members buf m;
      Buffer.add_string buf " }"
    | v -> write buf v
  in
  let rec block pad open_ close items =
    let inner = pad ^ "  " in
    Buffer.add_string buf open_;
    List.iteri
      (fun i item ->
        Buffer.add_string buf (if i = 0 then "\n" else ",\n");
        Buffer.add_string buf inner;
        item inner)
      items;
    Buffer.add_char buf '\n';
    Buffer.add_string buf pad;
    Buffer.add_string buf close
  and value pad v =
    match v with
    | Obj (_ :: _ as m) when pad = "" || nested v ->
      block pad "{" "}"
        (List.map
           (fun (k, v) pad ->
             add_string buf k;
             Buffer.add_string buf ": ";
             value pad v)
           m)
    | Arr (_ :: _ as l) when pad = "" || nested v ->
      block pad "[" "]" (List.map (fun v _ -> line v) l)
    | v -> line v
  in
  value "" v;
  Buffer.add_char buf '\n';
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Files                                                               *)
(* ------------------------------------------------------------------ *)

let of_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | text -> parse text
  | exception Sys_error msg -> Error msg

let decode ?what f (r : (t, string) result) : (_, string) result =
  let prefix msg = match what with None -> msg | Some w -> w ^ ": " ^ msg in
  match r with
  | Ok json -> ( try Ok (f json) with Error msg -> Error (prefix msg))
  | Error msg -> Error (prefix msg)

(* Every file goes through a temp file named after the target and this
   process, and reaches its real name by one rename: a reader never sees
   a torn file, and two processes pointed at one path cannot clobber
   each other's temp file. Failures name the target, not the temp file,
   and leave no temp file behind. The explicit [close_out] matters: most
   files fit in the channel buffer, so the real write happens at close,
   and [with_open_bin] closes with [close_out_noerr], which would drop a
   full disk or a quota error and let the rename put an empty file over
   [path]. *)
let write_with path f =
  let tmp = Printf.sprintf "%s.%d.tmp" path (Unix.getpid ()) in
  try
    Out_channel.with_open_bin tmp (fun oc ->
        f oc;
        close_out oc);
    Sys.rename tmp path
  with Sys_error msg ->
    (try Sys.remove tmp with Sys_error _ -> ());
    let prefix = tmp ^ ": " in
    let reason =
      if String.starts_with ~prefix msg then
        String.sub msg (String.length prefix)
          (String.length msg - String.length prefix)
      else msg
    in
    raise (Sys_error (Printf.sprintf "%s: %s" path reason))

let write_file path text = write_with path (fun oc -> output_string oc text)

(* One access(2) call, not a trial write: the probe runs on every run
   with an output file, and creating and removing a file costs more. *)
let check_writable path =
  try Unix.access (Filename.dirname path) [ Unix.W_OK; Unix.X_OK ]
  with Unix.Unix_error (e, _, _) ->
    raise (Sys_error (Printf.sprintf "%s: %s" path (Unix.error_message e)))
