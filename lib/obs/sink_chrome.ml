(* Chrome trace-event JSON (the "JSON Array Format" plus metadata),
   loadable in chrome://tracing and Perfetto. Mapping:

     Begin/End      -> ph "B"/"E"
     Complete dur   -> ph "X" with "dur" (aggregate spans: constraints,
                       loop levels)
     Instant        -> ph "i", thread-scoped
     Counter v      -> ph "C" with args {"value": v}

   pid is fixed at 1; tid is the emitting domain id, so domains show up
   as separate track rows. Timestamps are microseconds (floats) relative
   to the recorder's start so traces begin near zero. *)

let metadata_event buf ~what ~pid ~tid ~name =
  Buffer.add_string buf
    (Printf.sprintf "{\"name\":\"%s\",\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"args\":{\"name\":"
       what pid tid);
  Trace_json.escape buf name;
  Buffer.add_string buf "}}"

let thread_name_event buf ~pid ~tid ~name =
  metadata_event buf ~what:"thread_name" ~pid ~tid ~name

let process_name_event buf ~pid ~name =
  metadata_event buf ~what:"process_name" ~pid ~tid:0 ~name

let write_event buf ?(pid = 1) ~start_ns (ev : Obs.event) =
  let ph =
    match ev.Obs.ev_kind with
    | Obs.Begin -> "B"
    | Obs.End -> "E"
    | Obs.Complete _ -> "X"
    | Obs.Instant -> "i"
    | Obs.Counter _ -> "C"
  in
  Buffer.add_string buf "{\"name\":";
  Trace_json.escape buf ev.Obs.ev_name;
  if ev.Obs.ev_cat <> "" then begin
    Buffer.add_string buf ",\"cat\":";
    Trace_json.escape buf ev.Obs.ev_cat
  end;
  Buffer.add_string buf (Printf.sprintf ",\"ph\":\"%s\"" ph);
  Buffer.add_string buf ",\"ts\":";
  Trace_json.float buf (Clock.ns_to_us (ev.Obs.ev_ts_ns - start_ns));
  Buffer.add_string buf (Printf.sprintf ",\"pid\":%d,\"tid\":%d" pid ev.Obs.ev_dom);
  (match ev.Obs.ev_kind with
  | Obs.Complete dur ->
    Buffer.add_string buf ",\"dur\":";
    Trace_json.float buf (Clock.ns_to_us dur)
  | Obs.Instant -> Buffer.add_string buf ",\"s\":\"t\""
  | Obs.Begin | Obs.End | Obs.Counter _ -> ());
  (match ev.Obs.ev_kind with
  | Obs.Counter v ->
    Buffer.add_string buf ",\"args\":{\"value\":";
    Trace_json.float buf v;
    Buffer.add_string buf "}"
  | _ ->
    if ev.Obs.ev_args <> [] then begin
      Buffer.add_string buf ",\"args\":";
      Sink_jsonl.args_object buf ev.Obs.ev_args
    end);
  Buffer.add_string buf "}"

let add_process buf ~sep ~pid ~pname ~start_ns events =
  sep ();
  process_name_event buf ~pid ~name:pname;
  (* Name the domain tracks. *)
  let doms = Hashtbl.create 8 in
  Array.iter (fun ev -> Hashtbl.replace doms ev.Obs.ev_dom ()) events;
  Hashtbl.fold (fun d () acc -> d :: acc) doms []
  |> List.sort Int.compare
  |> List.iter (fun d ->
         sep ();
         thread_name_event buf ~pid ~tid:d ~name:(Printf.sprintf "domain %d" d));
  Array.iter
    (fun ev ->
      sep ();
      write_event buf ~pid ~start_ns ev)
    events

let render_processes processes =
  let buf = Buffer.create 8192 in
  Buffer.add_string buf "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  let first = ref true in
  let sep () =
    if !first then first := false else Buffer.add_string buf ",\n"
  in
  List.iter
    (fun (pid, pname, start_ns, events) ->
      add_process buf ~sep ~pid ~pname ~start_ns events)
    processes;
  Buffer.add_string buf "]}\n";
  Buffer.contents buf

let render ?(start_ns = 0) events =
  render_processes [ (1, "beast", start_ns, events) ]

let write ?start_ns oc events = output_string oc (render ?start_ns events)
