open Beast_core

type error = {
  line : int;
  message : string;
}

let pp_error ppf e = Format.fprintf ppf "line %d: %s" e.line e.message

exception Parse_error of error

let fail line fmt =
  Printf.ksprintf (fun message -> raise (Parse_error { line; message })) fmt

(* ------------------------------------------------------------------ *)
(* Lexer                                                               *)
(* ------------------------------------------------------------------ *)

type token =
  | Tint of int
  | Tstring of string
  | Tident of string
  | Top of string  (* + - * / % == != < <= > >= && || ! ? : , ( ) = *)
  | Teof

let keywords_ops =
  [ "and", "&&"; "or", "||"; "not", "!" ]

let lex ~line src =
  let n = String.length src in
  let tokens = ref [] in
  let push t = tokens := t :: !tokens in
  let i = ref 0 in
  let peek k = if !i + k < n then Some src.[!i + k] else None in
  while !i < n do
    let c = src.[!i] in
    if c = ' ' || c = '\t' then incr i
    else if c = '#' then i := n
    else if c >= '0' && c <= '9' then begin
      let j = ref !i in
      while !j < n && src.[!j] >= '0' && src.[!j] <= '9' do
        incr j
      done;
      push (Tint (int_of_string (String.sub src !i (!j - !i))));
      i := !j
    end
    else if c = '"' then begin
      let j = ref (!i + 1) in
      while !j < n && src.[!j] <> '"' do
        incr j
      done;
      if !j >= n then fail line "unterminated string literal";
      push (Tstring (String.sub src (!i + 1) (!j - !i - 1)));
      i := !j + 1
    end
    else if
      (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
    then begin
      let j = ref !i in
      let ident_char ch =
        (ch >= 'a' && ch <= 'z')
        || (ch >= 'A' && ch <= 'Z')
        || (ch >= '0' && ch <= '9')
        || ch = '_'
      in
      while !j < n && ident_char src.[!j] do
        incr j
      done;
      let word = String.sub src !i (!j - !i) in
      (match List.assoc_opt word keywords_ops with
      | Some op -> push (Top op)
      | None -> push (Tident word));
      i := !j
    end
    else begin
      let two =
        match peek 1 with
        | Some c2 -> String.init 2 (fun k -> if k = 0 then c else c2)
        | None -> String.make 1 c
      in
      match two with
      | "==" | "!=" | "<=" | ">=" | "&&" | "||" ->
        push (Top two);
        i := !i + 2
      | _ -> (
        match c with
        | '+' | '-' | '*' | '/' | '%' | '<' | '>' | '!' | '?' | ':' | ','
        | '(' | ')' | '=' ->
          push (Top (String.make 1 c));
          incr i
        | _ -> fail line "unexpected character %C" c)
    end
  done;
  push Teof;
  List.rev !tokens

(* ------------------------------------------------------------------ *)
(* Expression parser (recursive descent)                               *)
(* ------------------------------------------------------------------ *)

type stream = {
  mutable toks : token list;
  sline : int;
}

let peek_tok s =
  match s.toks with
  | t :: _ -> t
  | [] -> Teof

let advance s =
  match s.toks with
  | _ :: rest -> s.toks <- rest
  | [] -> ()

let eat_op s op =
  match peek_tok s with
  | Top o when o = op -> advance s
  | _ -> fail s.sline "expected %S" op

let accept_op s op =
  match peek_tok s with
  | Top o when o = op ->
    advance s;
    true
  | _ -> false

let token_descr = function
  | Tint k -> string_of_int k
  | Tstring str -> Printf.sprintf "%S" str
  | Tident id -> id
  | Top op -> Printf.sprintf "operator %S" op
  | Teof -> "end of line"

let builtin_of_name = function
  | "min" -> Some (Expr.Min, 2)
  | "max" -> Some (Expr.Max, 2)
  | "abs" -> Some (Expr.Abs, 1)
  | "ceil_div" -> Some (Expr.Ceil_div, 2)
  | _ -> None

let rec parse_expr s = parse_ternary s

and parse_ternary s =
  let cond = parse_or s in
  if accept_op s "?" then begin
    let t = parse_expr s in
    eat_op s ":";
    let f = parse_expr s in
    Expr.If (cond, t, f)
  end
  else cond

and parse_or s =
  let rec go acc =
    if accept_op s "||" then go (Expr.Binop (Expr.Or, acc, parse_and s))
    else acc
  in
  go (parse_and s)

and parse_and s =
  let rec go acc =
    if accept_op s "&&" then go (Expr.Binop (Expr.And, acc, parse_not s))
    else acc
  in
  go (parse_not s)

and parse_not s =
  if accept_op s "!" then Expr.Unop (Expr.Not, parse_not s)
  else parse_cmp s

and parse_cmp s =
  let lhs = parse_add s in
  let op =
    match peek_tok s with
    | Top "==" -> Some Expr.Eq
    | Top "!=" -> Some Expr.Ne
    | Top "<" -> Some Expr.Lt
    | Top "<=" -> Some Expr.Le
    | Top ">" -> Some Expr.Gt
    | Top ">=" -> Some Expr.Ge
    | _ -> None
  in
  match op with
  | None -> lhs
  | Some op ->
    advance s;
    Expr.Binop (op, lhs, parse_add s)

and parse_add s =
  let rec go acc =
    if accept_op s "+" then go (Expr.Binop (Expr.Add, acc, parse_mul s))
    else if accept_op s "-" then go (Expr.Binop (Expr.Sub, acc, parse_mul s))
    else acc
  in
  go (parse_mul s)

and parse_mul s =
  let rec go acc =
    if accept_op s "*" then go (Expr.Binop (Expr.Mul, acc, parse_unary s))
    else if accept_op s "/" then go (Expr.Binop (Expr.Div, acc, parse_unary s))
    else if accept_op s "%" then go (Expr.Binop (Expr.Mod, acc, parse_unary s))
    else acc
  in
  go (parse_unary s)

and parse_unary s =
  if accept_op s "-" then Expr.Unop (Expr.Neg, parse_unary s)
  else parse_atom s

and parse_atom s =
  match peek_tok s with
  | Tint k ->
    advance s;
    Expr.int k
  | Tstring str ->
    advance s;
    Expr.string str
  | Top "(" ->
    advance s;
    let e = parse_expr s in
    eat_op s ")";
    e
  | Tident "true" ->
    advance s;
    Expr.bool true
  | Tident "false" ->
    advance s;
    Expr.bool false
  | Tident name -> (
    advance s;
    match builtin_of_name name with
    | Some (b, arity) ->
      eat_op s "(";
      let args = parse_args s in
      if List.length args <> arity then
        fail s.sline "%s expects %d argument(s), got %d" name arity
          (List.length args);
      Expr.Call (b, args)
    | None ->
      if peek_tok s = Top "(" then
        fail s.sline "unknown function %s" name
      else Expr.var name)
  | t -> fail s.sline "unexpected %s in expression" (token_descr t)

and parse_args s =
  (* after the opening parenthesis; consumes the closing one *)
  if accept_op s ")" then []
  else begin
    let rec go acc =
      let e = parse_expr s in
      if accept_op s "," then go (e :: acc)
      else begin
        eat_op s ")";
        List.rev (e :: acc)
      end
    in
    go []
  end

(* ------------------------------------------------------------------ *)
(* Iterator parser                                                     *)
(* ------------------------------------------------------------------ *)

type parsed_iter =
  | Prange of Expr.t * Expr.t * Expr.t
  | Pother of Iter.t

let to_iter = function
  | Prange (a, b, c) -> Iter.Range (a, b, c)
  | Pother it -> it

let literal_value s e =
  match (e : Expr.t) with
  | Lit v -> v
  | Unop (Expr.Neg, Lit (Value.Int k)) -> Value.Int (-k)
  | _ -> fail s.sline "values(...) takes literal values only"

let rec parse_iter s =
  (* iterator-level ternary: cond ? iter : iter, both arms ranges *)
  let save = s.toks in
  match parse_iter_atom s with
  | exception Parse_error _ ->
    (* Maybe an expression condition prefixes a ternary of iterators. *)
    s.toks <- save;
    parse_iter_ternary s
  | first ->
    if
      match peek_tok s with
      | Teof | Top ")" | Top "," | Top ":" -> true
      | _ -> false
    then first
    else begin
      (* Something follows a complete iterator: re-parse as a ternary
         whose condition is an expression. *)
      s.toks <- save;
      parse_iter_ternary s
    end

and parse_iter_ternary s =
  let cond = parse_or s in
  if not (accept_op s "?") then
    fail s.sline "expected an iterator (range/values/... or a conditional)";
  let a = parse_iter s in
  eat_op s ":";
  let b = parse_iter s in
  match a, b with
  | Prange (a1, a2, a3), Prange (b1, b2, b3) ->
    Prange
      ( Expr.If (cond, a1, b1),
        Expr.If (cond, a2, b2),
        Expr.If (cond, a3, b3) )
  | _ ->
    fail s.sline "both arms of a conditional iterator must be range(...)"

and parse_iter_atom s =
  match peek_tok s with
  | Top "(" ->
    (* A parenthesized iterator (e.g. a conditional arm). If the inner
       parse fails this raises, and the caller backtracks to try the
       whole thing as an expression condition instead. *)
    advance s;
    let it = parse_iter s in
    eat_op s ")";
    it
  | Tident "range" ->
    advance s;
    eat_op s "(";
    let args = parse_args s in
    (match args with
    | [ stop ] -> Prange (Expr.int 0, stop, Expr.int 1)
    | [ start; stop ] -> Prange (start, stop, Expr.int 1)
    | [ start; stop; step ] -> Prange (start, stop, step)
    | _ -> fail s.sline "range expects 1 to 3 arguments")
  | Tident "values" ->
    advance s;
    eat_op s "(";
    let args = parse_args s in
    if args = [] then fail s.sline "values(...) needs at least one value";
    Pother (Iter.values (List.map (literal_value s) args))
  | Tident "single" ->
    advance s;
    eat_op s "(";
    (match parse_args s with
    | [ e ] -> Pother (Iter.single e)
    | _ -> fail s.sline "single expects 1 argument")
  | Tident (("union" | "inter" | "concat") as kind) ->
    advance s;
    eat_op s "(";
    let a = parse_iter s in
    eat_op s ",";
    let b = parse_iter s in
    eat_op s ")";
    let combine =
      match kind with
      | "union" -> Iter.union
      | "inter" -> Iter.inter
      | _ -> Iter.concat
    in
    Pother (combine (to_iter a) (to_iter b))
  | t -> fail s.sline "expected an iterator, got %s" (token_descr t)

(* ------------------------------------------------------------------ *)
(* Declarations                                                        *)
(* ------------------------------------------------------------------ *)

let expect_eof s =
  match peek_tok s with
  | Teof -> ()
  | t -> fail s.sline "trailing %s" (token_descr t)

(* Merge continuation lines (trailing backslash) keeping line numbers of
   the first physical line. *)
let logical_lines text =
  let physical = String.split_on_char '\n' text in
  let rec go lineno acc = function
    | [] -> List.rev acc
    | l :: rest ->
      let rec absorb l consumed rest =
        let trimmed = String.trim l in
        if String.length trimmed > 0 && trimmed.[String.length trimmed - 1] = '\\'
        then
          match rest with
          | [] -> (String.sub trimmed 0 (String.length trimmed - 1), consumed, [])
          | next :: rest' ->
            absorb
              (String.sub trimmed 0 (String.length trimmed - 1) ^ " " ^ next)
              (consumed + 1) rest'
        else (l, consumed, rest)
      in
      let merged, consumed, rest = absorb l 0 rest in
      go (lineno + consumed + 1) ((lineno, merged) :: acc) rest
  in
  go 1 [] physical

let parse_declaration sp seen_name (lineno, line) =
  let stripped = String.trim line in
  if stripped = "" || stripped.[0] = '#' then ()
  else begin
    let s = { toks = lex ~line:lineno stripped; sline = lineno } in
    match peek_tok s with
    | Tident "space" ->
      advance s;
      (match peek_tok s with
      | Tident n ->
        advance s;
        expect_eof s;
        seen_name := Some n
      | t -> fail lineno "space expects a name, got %s" (token_descr t))
    | Tident "setting" -> (
      advance s;
      match peek_tok s with
      | Tident name -> (
        advance s;
        eat_op s "=";
        let e = parse_expr s in
        expect_eof s;
        match Expr.simplify e with
        | Expr.Lit v -> Space.setting sp name v
        | _ -> fail lineno "setting %s must be a constant" name)
      | t -> fail lineno "setting expects a name, got %s" (token_descr t))
    | Tident "iter" -> (
      advance s;
      match peek_tok s with
      | Tident name ->
        advance s;
        eat_op s "=";
        let it = parse_iter s in
        expect_eof s;
        Space.iterator sp name (to_iter it)
      | t -> fail lineno "iter expects a name, got %s" (token_descr t))
    | Tident "derived" -> (
      advance s;
      match peek_tok s with
      | Tident name ->
        advance s;
        eat_op s "=";
        let e = parse_expr s in
        expect_eof s;
        Space.derived sp name e
      | t -> fail lineno "derived expects a name, got %s" (token_descr t))
    | Tident "constraint" -> (
      advance s;
      let cls =
        match peek_tok s with
        | Tident "hard" ->
          advance s;
          Space.Hard
        | Tident "soft" ->
          advance s;
          Space.Soft
        | Tident "correctness" ->
          advance s;
          Space.Correctness
        | _ -> Space.Hard
      in
      match peek_tok s with
      | Tident name ->
        advance s;
        eat_op s "=";
        let e = parse_expr s in
        expect_eof s;
        Space.constrain sp ~cls name e
      | t -> fail lineno "constraint expects a name, got %s" (token_descr t))
    | t ->
      fail lineno
        "expected space/setting/iter/derived/constraint, got %s"
        (token_descr t)
  end

let space_of_string ?(name = "space") text =
  try
    let sp_name = ref None in
    (* Two passes: the space name may appear anywhere, and Space.create
       fixes the name up front. *)
    let lines = logical_lines text in
    List.iter
      (fun (lineno, line) ->
        let stripped = String.trim line in
        if String.length stripped >= 6 && String.sub stripped 0 6 = "space " then begin
          let s = { toks = lex ~line:lineno stripped; sline = lineno } in
          advance s;
          match peek_tok s with
          | Tident n -> sp_name := Some n
          | _ -> ()
        end)
      lines;
    let seen_name = ref None in
    (* Space.build funnels declaration errors (Duplicate_name raised by
       the mutators) and validation errors (Undefined_reference, Cyclic)
       into one result, so the parser only translates the payload. *)
    match
      Space.build
        ~name:(Option.value !sp_name ~default:name)
        (fun sp -> List.iter (parse_declaration sp seen_name) lines)
    with
    | Ok sp -> Ok sp
    | Error e ->
      Error { line = 0; message = Format.asprintf "%a" Space.pp_error e }
  with Parse_error e -> Error e

let space_of_file path =
  let name = Filename.remove_extension (Filename.basename path) in
  space_of_string ~name (In_channel.with_open_text path In_channel.input_all)

let expr_of_string text =
  try
    let s = { toks = lex ~line:1 (String.trim text); sline = 1 } in
    let e = parse_expr s in
    expect_eof s;
    Ok e
  with Parse_error e -> Error e
