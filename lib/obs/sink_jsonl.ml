let arg buf (a : Obs.arg) =
  match a with
  | Obs.Int i -> Buffer.add_string buf (string_of_int i)
  | Obs.Float f -> Jsonx.add_float buf f
  | Obs.Str s -> Jsonx.add_string buf s

let args_object buf args =
  Buffer.add_char buf '{';
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char buf ',';
      Jsonx.add_string buf k;
      Buffer.add_char buf ':';
      arg buf v)
    args;
  Buffer.add_char buf '}'

let write_event buf (ev : Obs.event) =
  Buffer.add_string buf "{\"name\":";
  Jsonx.add_string buf ev.Obs.ev_name;
  Buffer.add_string buf ",\"cat\":";
  Jsonx.add_string buf ev.Obs.ev_cat;
  Buffer.add_string buf ",\"kind\":";
  Jsonx.add_string buf (Obs.kind_name ev.Obs.ev_kind);
  Buffer.add_string buf (Printf.sprintf ",\"ts_ns\":%d" ev.Obs.ev_ts_ns);
  Buffer.add_string buf (Printf.sprintf ",\"dom\":%d" ev.Obs.ev_dom);
  (match ev.Obs.ev_kind with
  | Obs.Complete dur -> Buffer.add_string buf (Printf.sprintf ",\"dur_ns\":%d" dur)
  | Obs.Counter v ->
    Buffer.add_string buf ",\"value\":";
    Jsonx.add_float buf v
  | Obs.Begin | Obs.End | Obs.Instant -> ());
  if ev.Obs.ev_args <> [] then begin
    Buffer.add_string buf ",\"args\":";
    args_object buf ev.Obs.ev_args
  end;
  Buffer.add_string buf "}\n"

let write oc events =
  let buf = Buffer.create 4096 in
  Array.iter
    (fun ev ->
      Buffer.clear buf;
      write_event buf ev;
      Buffer.output_buffer oc buf)
    events

(* ------------------------------------------------------------------ *)
(* Reading the log back (cross-shard trace merge)                      *)
(* ------------------------------------------------------------------ *)

let arg_of_jsonx = function
  | Jsonx.Int i -> Obs.Int i
  | Jsonx.Float f -> Obs.Float f
  | Jsonx.Str s -> Obs.Str s
  | Jsonx.Bool b -> Obs.Str (string_of_bool b)
  | Jsonx.Null -> Obs.Str "null"
  | Jsonx.Arr _ | Jsonx.Obj _ ->
    raise (Jsonx.Error "args: nested values unsupported")

let event_of_jsonx row =
  let kind =
    match Jsonx.to_str "kind" (Jsonx.member "kind" row) with
    | "begin" -> Obs.Begin
    | "end" -> Obs.End
    | "complete" ->
      Obs.Complete (Jsonx.to_int "dur_ns" (Jsonx.member "dur_ns" row))
    | "instant" -> Obs.Instant
    | "counter" ->
      Obs.Counter (Jsonx.to_float "value" (Jsonx.member "value" row))
    | other -> Jsonx.fail "unknown kind %S" other
  in
  let args =
    match Jsonx.member_opt "args" row with
    | Some (Jsonx.Obj kvs) -> List.map (fun (k, v) -> (k, arg_of_jsonx v)) kvs
    | Some _ -> raise (Jsonx.Error "args: expected an object")
    | None -> []
  in
  {
    Obs.ev_name = Jsonx.to_str "name" (Jsonx.member "name" row);
    ev_cat = Jsonx.to_str "cat" (Jsonx.member "cat" row);
    ev_ts_ns = Jsonx.to_int "ts_ns" (Jsonx.member "ts_ns" row);
    ev_dom = Jsonx.to_int "dom" (Jsonx.member "dom" row);
    ev_kind = kind;
    ev_args = args;
  }

let parse_line line =
  match Jsonx.parse line with
  | Error msg -> Error msg
  | Ok row -> (
    match event_of_jsonx row with
    | ev -> Ok ev
    | exception Jsonx.Error msg -> Error msg)

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let events = ref [] in
      let lineno = ref 0 in
      match
        try
          while true do
            let line = input_line ic in
            incr lineno;
            if String.trim line <> "" then
              match parse_line line with
              | Ok ev -> events := ev :: !events
              | Error msg ->
                raise
                  (Jsonx.Error (Printf.sprintf "%s:%d: %s" path !lineno msg))
          done
        with End_of_file -> ()
      with
      | () -> Ok (Array.of_list (List.rev !events))
      | exception Jsonx.Error msg -> Error msg)
