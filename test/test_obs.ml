(* Tests for the Beast_obs tracing layer: span balance, agreement
   between recorded aggregates and engine statistics across all four
   engines, trace-output well-formedness and the progress reporter. *)

open Beast_core
open Beast_obs

(* ------------------------------------------------------------------ *)
(* Minimal JSON parser (no external dependency) for validating the     *)
(* Chrome and JSONL writers. Handles the full value grammar emitted by *)
(* Trace_json: objects, arrays, strings with escapes, numbers, true,   *)
(* false, null.                                                        *)
(* ------------------------------------------------------------------ *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  exception Bad of string

  let parse s =
    let n = String.length s in
    let pos = ref 0 in
    let peek () = if !pos < n then s.[!pos] else '\255' in
    let advance () = incr pos in
    let fail msg = raise (Bad (Printf.sprintf "%s at %d" msg !pos)) in
    let skip_ws () =
      while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
        advance ()
      done
    in
    let expect c =
      if peek () = c then advance ()
      else fail (Printf.sprintf "expected %c, got %c" c (peek ()))
    in
    let literal word value =
      String.iter expect word;
      value
    in
    let parse_string () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec go () =
        match peek () with
        | '"' -> advance ()
        | '\\' ->
          advance ();
          (match peek () with
          | '"' -> Buffer.add_char buf '"'; advance ()
          | '\\' -> Buffer.add_char buf '\\'; advance ()
          | '/' -> Buffer.add_char buf '/'; advance ()
          | 'b' -> Buffer.add_char buf '\b'; advance ()
          | 'f' -> Buffer.add_char buf '\012'; advance ()
          | 'n' -> Buffer.add_char buf '\n'; advance ()
          | 'r' -> Buffer.add_char buf '\r'; advance ()
          | 't' -> Buffer.add_char buf '\t'; advance ()
          | 'u' ->
            advance ();
            for _ = 1 to 4 do
              (match peek () with
              | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> advance ()
              | _ -> fail "bad \\u escape")
            done;
            Buffer.add_char buf '?'
          | _ -> fail "bad escape");
          go ()
        | '\255' -> fail "unterminated string"
        | c ->
          Buffer.add_char buf c;
          advance ();
          go ()
      in
      go ();
      Buffer.contents buf
    in
    let parse_number () =
      let start = !pos in
      while
        !pos < n
        && match s.[!pos] with
           | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
           | _ -> false
      do
        advance ()
      done;
      match float_of_string_opt (String.sub s start (!pos - start)) with
      | Some f -> Num f
      | None -> fail "bad number"
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | '{' ->
        advance ();
        skip_ws ();
        if peek () = '}' then begin
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
            | ',' ->
              advance ();
              members ((key, v) :: acc)
            | '}' ->
              advance ();
              List.rev ((key, v) :: acc)
            | _ -> fail "expected , or } in object"
          in
          Obj (members [])
        end
      | '[' ->
        advance ();
        skip_ws ();
        if peek () = ']' then begin
          advance ();
          Arr []
        end
        else begin
          let rec elements acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | ',' ->
              advance ();
              elements (v :: acc)
            | ']' ->
              advance ();
              List.rev (v :: acc)
            | _ -> fail "expected , or ] in array"
          in
          Arr (elements [])
        end
      | '"' -> Str (parse_string ())
      | 't' -> literal "true" (Bool true)
      | 'f' -> literal "false" (Bool false)
      | 'n' -> literal "null" Null
      | '-' | '0' .. '9' -> parse_number ()
      | c -> fail (Printf.sprintf "unexpected %c" c)
    in
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v

  let member key = function
    | Obj fields -> List.assoc_opt key fields
    | _ -> None
end

(* ------------------------------------------------------------------ *)
(* Helpers                                                             *)
(* ------------------------------------------------------------------ *)

(* A traced run's context, as --trace installs it. *)
let record f =
  let r = Recorder.create () in
  let x =
    Obs.with_context
      { Obs.off with Obs.sink = Some (Recorder.sink r); instrumented = true }
      f
  in
  (x, r)

(* A run with terminal progress on: the tally in the context. *)
let with_tally tally f =
  Obs.with_context
    { Obs.off with Obs.tally = Some tally; instrumented = true }
    f

let int_arg name ev =
  match List.assoc_opt name ev.Obs.ev_args with
  | Some (Obs.Int n) -> n
  | _ -> Alcotest.failf "event %s: missing int arg %s" ev.Obs.ev_name name

let engines : (string * (Space.t -> Engine.stats)) list =
  [
    ("interp", fun sp -> Engine_interp.run sp);
    ("interp-naive", fun sp -> Engine_interp.run ~variant:`Naive sp);
    ("vm", fun sp -> Engine_vm.run_plan (Plan.make_exn sp));
    ("staged", fun sp -> Engine_staged.run_space sp);
    ("parallel", fun sp -> Engine_parallel.run ~domains:3 (Plan.make_exn sp));
  ]

(* ------------------------------------------------------------------ *)
(* Clock                                                               *)
(* ------------------------------------------------------------------ *)

let test_clock () =
  let a = Clock.now_ns () in
  let b = Clock.now_ns () in
  Alcotest.(check bool) "positive" true (a > 0);
  Alcotest.(check bool) "monotonic" true (b >= a);
  Alcotest.(check bool) "elapsed non-negative" true (Clock.elapsed_s ~since:a >= 0.0);
  Alcotest.(check (float 1e-9)) "unit conversion" 1.5 (Clock.ns_to_s 1_500_000_000)

(* ------------------------------------------------------------------ *)
(* Disabled-path behaviour                                             *)
(* ------------------------------------------------------------------ *)

let test_disabled_is_silent () =
  Alcotest.(check bool) "off by default" false (Obs.enabled ());
  Alcotest.(check bool) "not instrumenting" false
    (Engine.Run.instrumenting ());
  (* Emission helpers must be no-ops, not crashes. *)
  Obs.instant "nobody-listens";
  Obs.counter "nothing" 1.0;
  Obs.with_span "quiet" (fun () -> ())

(* ------------------------------------------------------------------ *)
(* Span balance                                                        *)
(* ------------------------------------------------------------------ *)

let check_spans_balanced events =
  (* Per domain, Begin/End events must nest like parentheses. The global
     stream is time-sorted; per-domain order is preserved because each
     domain's timestamps are non-decreasing. *)
  let stacks = Hashtbl.create 4 in
  Array.iter
    (fun ev ->
      let stack =
        match Hashtbl.find_opt stacks ev.Obs.ev_dom with
        | Some s -> s
        | None ->
          let s = ref [] in
          Hashtbl.replace stacks ev.Obs.ev_dom s;
          s
      in
      match ev.Obs.ev_kind with
      | Obs.Begin -> stack := ev.Obs.ev_name :: !stack
      | Obs.End -> (
        match !stack with
        | top :: rest ->
          Alcotest.(check string) "span end matches begin" top ev.Obs.ev_name;
          stack := rest
        | [] -> Alcotest.failf "unmatched end of %s" ev.Obs.ev_name)
      | _ -> ())
    events;
  Hashtbl.iter
    (fun dom stack ->
      Alcotest.(check (list string))
        (Printf.sprintf "domain %d stack empty" dom)
        [] !stack)
    stacks

let test_span_balance () =
  let sp = Support.triangle_space () in
  List.iter
    (fun (name, run) ->
      let _, r = record (fun () -> run sp) in
      let events = Recorder.events r in
      Alcotest.(check bool)
        (name ^ " recorded something")
        true
        (Array.length events > 0);
      check_spans_balanced events)
    engines

let test_nested_spans () =
  let _, r =
    record (fun () ->
        Obs.with_span "outer" (fun () ->
            Obs.with_span "inner" (fun () -> Obs.instant "leaf")))
  in
  let events = Recorder.events r in
  check_spans_balanced events;
  Alcotest.(check (list string))
    "order" [ "outer"; "inner"; "leaf"; "inner"; "outer" ]
    (Array.to_list (Array.map (fun ev -> ev.Obs.ev_name) events));
  (* A raising computation still closes its span. *)
  let _, r =
    record (fun () ->
        try Obs.with_span "throws" (fun () -> failwith "boom")
        with Failure _ -> ())
  in
  check_spans_balanced (Recorder.events r)

(* ------------------------------------------------------------------ *)
(* Recorded aggregates agree with engine statistics                    *)
(* ------------------------------------------------------------------ *)

let test_aggregates_match_stats () =
  let sp = Support.triangle_space () in
  List.iter
    (fun (name, run) ->
      let stats, r = record (fun () -> run sp) in
      let events = Recorder.events r in
      (* Per-constraint Complete spans: summed firings = stats.pruned
         (triangle_space has no depth-0 constraints, so the parallel
         engine's per-domain aggregates sum cleanly). *)
      let fired = Hashtbl.create 4 in
      let level_entries = ref 0 in
      Array.iter
        (fun ev ->
          match ev.Obs.ev_kind with
          | Obs.Complete _ when ev.Obs.ev_cat = "constraint" ->
            let prev =
              Option.value ~default:0 (Hashtbl.find_opt fired ev.Obs.ev_name)
            in
            Hashtbl.replace fired ev.Obs.ev_name (prev + int_arg "fired" ev)
          | Obs.Complete _ when ev.Obs.ev_cat = "level" ->
            level_entries := !level_entries + int_arg "entries" ev
          | _ -> ())
        events;
      Array.iter
        (fun (cname, _, k) ->
          Alcotest.(check int)
            (Printf.sprintf "%s: %s firings" name cname)
            k
            (Option.value ~default:(-1) (Hashtbl.find_opt fired cname)))
        stats.Engine.pruned;
      Alcotest.(check int)
        (Printf.sprintf "%s: level entries sum to loop iterations" name)
        stats.Engine.loop_iterations !level_entries)
    engines

let test_cross_engine_agreement_while_traced () =
  (* Instrumented code paths must compute the same statistics as the
     uninstrumented ones the rest of the suite exercises. *)
  let sp = Support.mixed_space () in
  let reference = Engine_staged.run_space sp in
  List.iter
    (fun (name, run) ->
      let stats, _ = record (fun () -> run sp) in
      Alcotest.(check int)
        (name ^ " survivors") reference.Engine.survivors stats.Engine.survivors)
    engines

(* ------------------------------------------------------------------ *)
(* Trace output formats                                                *)
(* ------------------------------------------------------------------ *)

let recorded_sweep () =
  let sp = Support.triangle_space () in
  let _, r =
    record (fun () -> Engine_parallel.run ~domains:2 (Plan.make_exn sp))
  in
  r

let test_chrome_well_formed () =
  let r = recorded_sweep () in
  let events = Recorder.events r in
  let doc =
    match Json.parse (Sink_chrome.render ~start_ns:(Recorder.start_ns r) events) with
    | doc -> doc
    | exception Json.Bad msg -> Alcotest.failf "invalid JSON: %s" msg
  in
  let trace_events =
    match Json.member "traceEvents" doc with
    | Some (Json.Arr l) -> l
    | _ -> Alcotest.fail "missing traceEvents array"
  in
  (* Every real event appears, plus one thread_name metadata row per
     domain and one process_name row. *)
  Alcotest.(check int) "event count"
    (Array.length events + List.length (Recorder.domains r) + 1)
    (List.length trace_events);
  (match
     List.find_opt
       (fun ev -> Json.member "name" ev = Some (Json.Str "process_name"))
       trace_events
   with
  | Some ev ->
    Alcotest.(check bool) "process_name is metadata" true
      (Json.member "ph" ev = Some (Json.Str "M"))
  | None -> Alcotest.fail "missing process_name metadata event");
  List.iter
    (fun ev ->
      (match Json.member "ph" ev with
      | Some (Json.Str ("B" | "E" | "X" | "i" | "C" | "M")) -> ()
      | _ -> Alcotest.fail "bad or missing ph");
      (match Json.member "name" ev with
      | Some (Json.Str _) -> ()
      | _ -> Alcotest.fail "missing name");
      (match Json.member "pid" ev with
      | Some (Json.Num _) -> ()
      | _ -> Alcotest.fail "missing pid");
      match Json.member "ts" ev with
      | Some (Json.Num ts) ->
        Alcotest.(check bool) "ts non-negative" true (ts >= 0.0)
      | None -> () (* metadata events carry no timestamp *)
      | Some _ -> Alcotest.fail "non-numeric ts")
    trace_events;
  (* Per-constraint aggregates survive the round trip. *)
  let names =
    List.filter_map
      (fun ev ->
        match Json.member "name" ev with
        | Some (Json.Str s) -> Some s
        | _ -> None)
      trace_events
  in
  List.iter
    (fun expected ->
      Alcotest.(check bool) (expected ^ " present") true
        (List.mem expected names))
    [ "odd_sum"; "big_x"; "sweep:parallel"; "plan:make" ]

let test_jsonl_well_formed () =
  let r = recorded_sweep () in
  let buf = Buffer.create 4096 in
  Array.iter (Sink_jsonl.write_event buf) (Recorder.events r);
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' (Buffer.contents buf))
  in
  Alcotest.(check int) "one line per event" (Recorder.event_count r)
    (List.length lines);
  List.iter
    (fun line ->
      match Json.parse line with
      | Json.Obj _ as obj ->
        (match Json.member "name" obj, Json.member "kind" obj with
        | Some (Json.Str _), Some (Json.Str _) -> ()
        | _ -> Alcotest.fail "line missing name/kind")
      | _ -> Alcotest.fail "line is not an object"
      | exception Json.Bad msg -> Alcotest.failf "invalid JSONL line: %s" msg)
    lines

let test_jsonl_parse_roundtrip () =
  (* Sink_jsonl.parse_line must reconstruct exactly what write_event
     emitted: same kind, timestamps, domain and args. This is what
     `beast merge --traces` relies on to stitch shard traces. *)
  let r = recorded_sweep () in
  Array.iter
    (fun ev ->
      let buf = Buffer.create 256 in
      Sink_jsonl.write_event buf ev;
      let line = String.trim (Buffer.contents buf) in
      match Sink_jsonl.parse_line line with
      | Error msg -> Alcotest.failf "parse_line failed: %s on %s" msg line
      | Ok ev' ->
        if ev <> ev' then
          Alcotest.failf "event did not round-trip: %s" line)
    (Recorder.events r);
  (match Sink_jsonl.parse_line "{\"kind\": \"wat\"}" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad kind accepted")

let test_summary_mentions_constraints () =
  let r = recorded_sweep () in
  let text = Sink_summary.to_string (Recorder.events r) in
  let contains sub =
    let n = String.length text and m = String.length sub in
    let rec go i = i + m <= n && (String.sub text i m = sub || go (i + 1)) in
    go 0
  in
  List.iter
    (fun sub ->
      Alcotest.(check bool) (sub ^ " mentioned") true (contains sub))
    [ "odd_sum"; "big_x"; "sweep:parallel"; "loop levels"; "constraints" ]

(* ------------------------------------------------------------------ *)
(* Recorder merge ordering under concurrent emission                   *)
(* ------------------------------------------------------------------ *)

let test_recorder_merge_ordering () =
  (* Several domains emit concurrently; the merged stream must contain
     every event, be globally time-sorted, and preserve each domain's
     own emission order. *)
  let n_domains = 4 and per_domain = 250 in
  let (), r =
    record (fun () ->
        let workers =
          List.init n_domains (fun w ->
              Domain.spawn (fun () ->
                  for i = 0 to per_domain - 1 do
                    Obs.instant
                      ~args:[ ("seq", Obs.Int i); ("worker", Obs.Int w) ]
                      "tick"
                  done))
        in
        List.iter Domain.join workers)
  in
  let events = Recorder.events r in
  Alcotest.(check int) "no events dropped" (n_domains * per_domain)
    (Array.length events);
  let last_ts = ref min_int in
  let last_seq = Hashtbl.create 8 in
  Array.iter
    (fun ev ->
      Alcotest.(check bool) "globally time-sorted" true
        (ev.Obs.ev_ts_ns >= !last_ts);
      last_ts := ev.Obs.ev_ts_ns;
      let seq = int_arg "seq" ev in
      let prev =
        Option.value ~default:(-1) (Hashtbl.find_opt last_seq ev.Obs.ev_dom)
      in
      Alcotest.(check bool)
        (Printf.sprintf "domain %d order preserved" ev.Obs.ev_dom)
        true (seq = prev + 1);
      Hashtbl.replace last_seq ev.Obs.ev_dom seq)
    events;
  Alcotest.(check int) "all domains present" n_domains
    (Hashtbl.length last_seq)

(* ------------------------------------------------------------------ *)
(* Progress reporting                                                  *)
(* ------------------------------------------------------------------ *)

let test_progress_hook () =
  let tally = Tally.create () in
  let last = ref None in
  Tally.watch tally ~every_s:0.0 (fun s -> last := Some s);
  let stats =
    with_tally tally (fun () ->
        Engine_staged.run_space (Support.triangle_space ()))
  in
  match !last with
  | None -> Alcotest.fail "the tally was never drawn"
  | Some s ->
    Alcotest.(check int) "final points" stats.Engine.loop_iterations
      s.Tally.points;
    Alcotest.(check int) "final survivors" stats.Engine.survivors
      s.Tally.survivors;
    Alcotest.(check (option (float 1e-9))) "final frac" (Some 1.0) s.Tally.frac;
    Alcotest.(check bool) "tally uninstalled" true
      ((Obs.current ()).Obs.tally = None)

let test_progress_reporter_output () =
  let file = Filename.temp_file "beast_obs" ".progress" in
  let oc = open_out file in
  let tally = Tally.create () in
  let p = Progress.create ~interval_s:0.0 ~out:oc tally in
  ignore
    (with_tally tally (fun () ->
         Engine_staged.run_space (Support.triangle_space ())));
  Progress.finish p;
  close_out oc;
  let ic = open_in file in
  let len = in_channel_length ic in
  let content = really_input_string ic len in
  close_in ic;
  Sys.remove file;
  Alcotest.(check bool) "wrote a status line" true (len > 0);
  Alcotest.(check bool) "mentions points" true
    (let sub = "points" in
     let n = String.length content and m = String.length sub in
     let rec go i = i + m <= n && (String.sub content i m = sub || go (i + 1)) in
     go 0);
  Alcotest.(check bool) "terminated by newline" true
    (content.[String.length content - 1] = '\n');
  (* The channel is a regular file, not a tty: the reporter must emit
     plain newline-terminated lines with no carriage-return redraws. *)
  Alcotest.(check bool) "no CR redraws when not a tty" false
    (String.contains content '\r')

let test_progress_tty_redraw () =
  (* Forcing tty mode turns on in-place redraw: lines start with \r and
     only `finish` appends the final newline. *)
  let file = Filename.temp_file "beast_obs" ".progress" in
  let oc = open_out file in
  let tally = Tally.create () in
  let p = Progress.create ~interval_s:0.0 ~out:oc ~tty:true tally in
  ignore
    (with_tally tally (fun () ->
         Engine_staged.run_space (Support.triangle_space ())));
  Progress.finish p;
  close_out oc;
  let ic = open_in file in
  let content = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove file;
  Alcotest.(check bool) "uses CR redraws" true (String.contains content '\r');
  Alcotest.(check bool) "finish adds trailing newline" true
    (content.[String.length content - 1] = '\n')

(* ------------------------------------------------------------------ *)
(* Jsonx \uXXXX decoding: escapes above 0x7f become UTF-8 bytes, with  *)
(* surrogate pairs combined into the astral code point.                *)
(* ------------------------------------------------------------------ *)

let jsonx_str what text =
  match Jsonx.parse text with
  | Ok (Jsonx.Str s) -> s
  | Ok _ -> Alcotest.failf "%s: parsed to a non-string" what
  | Error msg -> Alcotest.failf "%s: %s" what msg

let test_jsonx_unicode_escapes () =
  Alcotest.(check string) "ascii escape" "A" (jsonx_str "u0041" {|"A"|});
  Alcotest.(check string) "2-byte utf-8 (e acute)" "caf\xc3\xa9"
    (jsonx_str "u00e9" {|"caf\u00e9"|});
  Alcotest.(check string) "3-byte utf-8 (euro sign)" "\xe2\x82\xac"
    (jsonx_str "u20ac" {|"\u20ac"|});
  Alcotest.(check string) "4-byte utf-8 via surrogate pair"
    "\xf0\x9f\x98\x80"
    (jsonx_str "smiley" {|"\ud83d\ude00"|});
  Alcotest.(check string) "text around the pair survives" "a\xf0\x9f\x98\x80b"
    (jsonx_str "embedded" {|"a\ud83d\ude00b"|});
  (* Case-insensitive hex, as in the JSON grammar. *)
  Alcotest.(check string) "uppercase hex" "\xe2\x82\xac"
    (jsonx_str "u20AC" {|"\u20AC"|})

let test_jsonx_lone_surrogates_rejected () =
  let rejects what text =
    match Jsonx.parse text with
    | Ok _ -> Alcotest.failf "%s was accepted" what
    | Error _ -> ()
  in
  rejects "lone high surrogate" {|"\ud83d"|};
  rejects "high surrogate chased by text" {|"\ud83dxy"|};
  rejects "high surrogate chased by non-low escape" {|"\ud83dA"|};
  rejects "lone low surrogate" {|"\ude00"|};
  rejects "truncated escape" {|"\u00"|};
  rejects "non-hex escape" {|"\uzzzz"|}

let test_jsonx_unicode_round_trips_jsonl () =
  (* An event label that needs every escape class must survive
     write_event → parse_line byte-for-byte. *)
  let name = "caf\xc3\xa9 \xe2\x82\xac \xf0\x9f\x98\x80" in
  let ev =
    {
      Obs.ev_name = name;
      ev_cat = "test";
      ev_ts_ns = 1;
      ev_dom = 0;
      ev_kind = Obs.Instant;
      ev_args = [];
    }
  in
  let buf = Buffer.create 64 in
  Sink_jsonl.write_event buf ev;
  match Sink_jsonl.parse_line (String.trim (Buffer.contents buf)) with
  | Error msg -> Alcotest.failf "parse_line: %s" msg
  | Ok ev' -> Alcotest.(check string) "name round trips" name ev'.Obs.ev_name

let test_jsonx_numeric_edges () =
  let value what text =
    match Jsonx.parse text with
    | Ok v -> v
    | Error msg -> Alcotest.failf "%s: %s" what msg
  in
  let rejects what text =
    match Jsonx.parse text with
    | Ok _ -> Alcotest.failf "%s was accepted" what
    | Error _ -> ()
  in
  (* Exponent notation always reads as a float, even when integral. *)
  (match value "1e3" "1e3" with
  | Jsonx.Float f -> Alcotest.(check (float 0.0)) "1e3" 1000.0 f
  | _ -> Alcotest.fail "1e3: expected Float");
  (match value "0e3" "0e3" with
  | Jsonx.Float f -> Alcotest.(check (float 0.0)) "0e3" 0.0 f
  | _ -> Alcotest.fail "0e3: expected Float");
  (* A literal beyond OCaml's 63-bit int falls back to Float instead of
     erroring out (9223372036854775807 = Int64 max > OCaml max_int). *)
  (match value "int64 max" "9223372036854775807" with
  | Jsonx.Float f ->
    Alcotest.(check (float 0.0)) "int64 max" 9.223372036854775807e18 f
  | _ -> Alcotest.fail "int64 max: expected Float fallback");
  (* OCaml's own max_int still reads exactly as an Int. *)
  (match value "ocaml max_int" (string_of_int max_int) with
  | Jsonx.Int k -> Alcotest.(check int) "ocaml max_int" max_int k
  | _ -> Alcotest.fail "ocaml max_int: expected Int");
  (match value "-0" "-0" with
  | Jsonx.Int 0 -> ()
  | _ -> Alcotest.fail "-0: expected Int 0");
  (match value "0" "0" with
  | Jsonx.Int 0 -> ()
  | _ -> Alcotest.fail "0: expected Int 0");
  (match value "0.5" "0.5" with
  | Jsonx.Float f -> Alcotest.(check (float 0.0)) "0.5" 0.5 f
  | _ -> Alcotest.fail "0.5: expected Float");
  (* The JSON grammar forbids leading zeros and bare signs. *)
  rejects "01" "01";
  rejects "-012" "-012";
  rejects "00" "00";
  rejects "bare minus" "-";
  rejects "minus-dot" "-.5"

let test_jsonx_writer_fixed_point () =
  (* The writer must be a fixed point of the parser: re-parsing emitted
     text and writing it again reproduces the same bytes. This is what
     makes archive-record validation an exact comparison. *)
  let check_fp what v =
    let s = Jsonx.to_string v in
    match Jsonx.parse s with
    | Error msg -> Alcotest.failf "%s: reparse failed: %s" what msg
    | Ok v' -> Alcotest.(check string) what s (Jsonx.to_string v')
  in
  check_fp "mixed object"
    (Jsonx.Obj
       [
         ("a", Jsonx.Int 42);
         ("b", Jsonx.Float 0.1);
         ("c", Jsonx.Float 99.97);
         ("d", Jsonx.Float 1e20);
         ("e", Jsonx.Float (-0.0));
         ("f", Jsonx.Arr [ Jsonx.Bool true; Jsonx.Null; Jsonx.Str "x\n" ]);
       ]);
  check_fp "integral float" (Jsonx.Float 1000.0);
  check_fp "tiny float" (Jsonx.Float 1e-300);
  (* Non-finite values have no JSON spelling and normalize to null. *)
  Alcotest.(check string) "nan is null" "null" (Jsonx.to_string (Jsonx.Float Float.nan));
  Alcotest.(check string) "inf is null" "null"
    (Jsonx.to_string (Jsonx.Float Float.infinity));
  Alcotest.(check string) "neg zero is 0" "0" (Jsonx.to_string (Jsonx.Float (-0.0)))

let () =
  Alcotest.run "obs"
    [
      ( "clock",
        [ Alcotest.test_case "monotonic ns" `Quick test_clock ] );
      ( "spans",
        [
          Alcotest.test_case "disabled is silent" `Quick test_disabled_is_silent;
          Alcotest.test_case "balance across engines" `Quick test_span_balance;
          Alcotest.test_case "nesting" `Quick test_nested_spans;
        ] );
      ( "aggregates",
        [
          Alcotest.test_case "match engine stats" `Quick
            test_aggregates_match_stats;
          Alcotest.test_case "traced engines agree" `Quick
            test_cross_engine_agreement_while_traced;
        ] );
      ( "formats",
        [
          Alcotest.test_case "chrome JSON" `Quick test_chrome_well_formed;
          Alcotest.test_case "jsonl" `Quick test_jsonl_well_formed;
          Alcotest.test_case "jsonl parse roundtrip" `Quick
            test_jsonl_parse_roundtrip;
          Alcotest.test_case "summary" `Quick test_summary_mentions_constraints;
        ] );
      ( "recorder",
        [
          Alcotest.test_case "multi-domain merge ordering" `Quick
            test_recorder_merge_ordering;
        ] );
      ( "progress",
        [
          Alcotest.test_case "hook totals" `Quick test_progress_hook;
          Alcotest.test_case "reporter output" `Quick
            test_progress_reporter_output;
          Alcotest.test_case "tty redraw mode" `Quick test_progress_tty_redraw;
        ] );
      ( "jsonx",
        [
          Alcotest.test_case "unicode escapes decode to utf-8" `Quick
            test_jsonx_unicode_escapes;
          Alcotest.test_case "lone surrogates rejected" `Quick
            test_jsonx_lone_surrogates_rejected;
          Alcotest.test_case "unicode survives a jsonl round trip" `Quick
            test_jsonx_unicode_round_trips_jsonl;
          Alcotest.test_case "numeric edge cases" `Quick
            test_jsonx_numeric_edges;
          Alcotest.test_case "writer is a parser fixed point" `Quick
            test_jsonx_writer_fixed_point;
        ] );
    ]
