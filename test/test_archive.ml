(* The cross-run performance archive: content-addressed ingest with
   dedupe, tamper rejection on read-back, series-wise diff with the
   timing/count split, and median/MAD change-point detection — the
   machinery behind [beast archive], [beast diff] and
   [beast trends]. *)

open Beast_obs

let temp_dir () =
  let dir = Filename.temp_file "beast_archive" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  dir

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Unix.rmdir dir
  end

let with_dir f =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let parse_exn what text =
  match Jsonx.parse text with
  | Ok v -> v
  | Error msg -> Alcotest.failf "%s: %s" what msg

(* A minimal stats payload, shaped like Stats_io.to_json output. *)
let stats_payload ?run_id ?(survivors = 100) ?(fired = 7) () =
  let run_id_field =
    match run_id with
    | None -> ""
    | Some id -> Printf.sprintf "  \"run_id\": \"%s\",\n" id
  in
  parse_exn "stats payload"
    (Printf.sprintf
       "{\n\
       \  \"space\": \"triangle\",\n\
        %s\
       \  \"shard\": { \"index\": 0, \"of\": 1 },\n\
       \  \"survivors\": %d,\n\
       \  \"loop_iterations\": 5000,\n\
       \  \"constraints\": [\n\
       \    { \"name\": \"diag\", \"class\": \"hard\", \"depth0\": false, \
        \"fired\": %d }\n\
       \  ]\n\
        }\n"
       run_id_field survivors fired)

let bench_payload ?(elapsed = 1.0) ?(survivors = 100) () =
  parse_exn "bench payload"
    (Printf.sprintf
       "{ \"bench\": \"synthetic\", \"elapsed_s\": %g, \"survivors\": %d }"
       elapsed survivors)

let ok what = function
  | Ok v -> v
  | Error msg -> Alcotest.failf "%s: %s" what msg

(* ------------------------------------------------------------------ *)
(* Ingest                                                              *)
(* ------------------------------------------------------------------ *)

let test_ingest_round_trip () =
  with_dir (fun dir ->
      let r, fresh =
        ok "ingest"
          (Archive.ingest ~dir ~engine:"staged" ~commit:"deadbeef"
             ~host:"testhost"
             (stats_payload ~run_id:"run-1" ()))
      in
      Alcotest.(check bool) "fresh" true fresh;
      Alcotest.(check int) "seq" 1 r.Archive.meta.Archive.a_seq;
      Alcotest.(check string) "kind" "stats" r.Archive.meta.Archive.a_kind;
      Alcotest.(check string) "label" "triangle" r.Archive.meta.Archive.a_label;
      Alcotest.(check (option string))
        "run id from payload" (Some "run-1") r.Archive.meta.Archive.a_run_id;
      let file = Filename.concat dir (r.Archive.meta.Archive.a_id ^ ".json") in
      Alcotest.(check bool) "record file exists" true (Sys.file_exists file);
      (* Read-back revalidates and reproduces the exact record, and
         re-serializing it reproduces the file bytes (the writer is a
         fixed point of the parser). *)
      let text = In_channel.with_open_bin file In_channel.input_all in
      let r' = ok "of_file" (Archive.of_file file) in
      Alcotest.(check string)
        "byte round trip" text (Jsonx.pretty (Archive.to_jsonx r'));
      Alcotest.(check bool) "records equal" true (r = r');
      (* Series extraction covers the funnel and the constraint. *)
      let value name =
        match List.assoc_opt name r.Archive.series with
        | Some v -> v
        | None -> Alcotest.failf "series %s missing" name
      in
      Alcotest.(check (float 0.0)) "survivors" 100.0 (value "survivors");
      Alcotest.(check (float 0.0)) "fired" 7.0 (value "constraint/diag/fired"))

let test_ingest_dedupes_and_sequences () =
  with_dir (fun dir ->
      let r1, fresh1 =
        ok "first" (Archive.ingest ~dir (stats_payload ~run_id:"a" ()))
      in
      let r2, fresh2 =
        ok "same again" (Archive.ingest ~dir (stats_payload ~run_id:"a" ()))
      in
      let r3, fresh3 =
        ok "different run" (Archive.ingest ~dir (stats_payload ~run_id:"b" ()))
      in
      Alcotest.(check bool) "first is fresh" true fresh1;
      Alcotest.(check bool) "identical content dedupes" false fresh2;
      Alcotest.(check string)
        "dedupe returns the stored record" r1.Archive.meta.Archive.a_id
        r2.Archive.meta.Archive.a_id;
      Alcotest.(check bool) "distinct run id is fresh" true fresh3;
      Alcotest.(check int) "sequence advances" 2 r3.Archive.meta.Archive.a_seq;
      let records, errors = Archive.load ~dir in
      Alcotest.(check int) "two records" 2 (List.length records);
      Alcotest.(check int) "no errors" 0 (List.length errors))

(* Records written before the payload was laid out one member per line
   carry it compact on one line. The id hashes the compact payload, not
   the file's layout, so such a record still loads, verifies, and
   re-encodes with the same id. *)
let test_one_line_payload_record_loads () =
  let text =
    "{\n\
    \  \"beast_archive\": 1,\n\
    \  \"id\": \"ef88f98f148c\",\n\
    \  \"seq\": 1,\n\
    \  \"kind\": \"bench\",\n\
    \  \"label\": \"ablation-x\",\n\
    \  \"commit\": \"c0ffee\",\n\
    \  \"host\": \"h\",\n\
    \  \"series\": [\n\
    \    { \"name\": \"elapsed_s\", \"value\": 1.5 },\n\
    \    { \"name\": \"shares_pct/0\", \"value\": 1.5 },\n\
    \    { \"name\": \"shares_pct/1\", \"value\": 98.5 },\n\
    \    { \"name\": \"survivors\", \"value\": 12 }\n\
    \  ],\n\
    \  \"payload\": {\"bench\": \"ablation-x\", \"survivors\": 12, \
     \"elapsed_s\": 1.5, \"shares_pct\": [1.5, 98.5]}\n\
     }\n"
  in
  let r = ok "one-line payload record" (Archive.of_json text) in
  Alcotest.(check string) "id" "ef88f98f148c" r.Archive.meta.Archive.a_id;
  let text' = Jsonx.pretty (Archive.to_jsonx r) in
  Alcotest.(check bool) "payload now spans lines" true (text' <> text);
  let r' = ok "re-encoded record" (Archive.of_json text') in
  Alcotest.(check bool) "same record" true (r = r')

let test_corrupt_records_rejected () =
  with_dir (fun dir ->
      let r, _ = ok "ingest" (Archive.ingest ~dir (bench_payload ())) in
      let file = Filename.concat dir (r.Archive.meta.Archive.a_id ^ ".json") in
      let text = In_channel.with_open_bin file In_channel.input_all in
      let rejects what text' =
        match Archive.of_json text' with
        | Ok _ -> Alcotest.failf "%s was accepted" what
        | Error _ -> ()
      in
      rejects "truncated" (String.sub text 0 (String.length text / 2));
      rejects "not an archive record" "{ \"bench\": \"x\", \"elapsed_s\": 1 }";
      (* Tampering with a payload value breaks the content id. *)
      let tampered =
        let sub = "\"elapsed_s\": 1" and by = "\"elapsed_s\": 9" in
        let n = String.length text and m = String.length sub in
        let rec splice i =
          if i + m > n then text
          else if String.sub text i m = sub then
            String.sub text 0 i ^ by ^ String.sub text (i + m) (n - i - m)
          else splice (i + 1)
        in
        splice 0
      in
      Alcotest.(check bool)
        "tamper changed the text" true (tampered <> text);
      rejects "tampered payload" tampered;
      (* And load surfaces the broken file as an error, not a record. *)
      let out = open_out_bin file in
      output_string out tampered;
      close_out out;
      let records, errors = Archive.load ~dir in
      Alcotest.(check int) "no records" 0 (List.length records);
      Alcotest.(check int) "one error" 1 (List.length errors))

(* ------------------------------------------------------------------ *)
(* Diff                                                                *)
(* ------------------------------------------------------------------ *)

let test_diff_identical_is_clean () =
  let r1 = ok "make a" (Archive.make ~seq:1 (stats_payload ())) in
  let r2 = ok "make b" (Archive.make ~seq:2 (stats_payload ())) in
  let deltas = Archive.diff r1 r2 in
  Alcotest.(check bool) "compared something" true (deltas <> []);
  Alcotest.(check int)
    "zero regressions" 0
    (List.length (Archive.regressions deltas))

let test_diff_flags_slowdown_by_name () =
  let fast = ok "fast" (Archive.make ~seq:1 (bench_payload ~elapsed:1.0 ())) in
  let slow = ok "slow" (Archive.make ~seq:2 (bench_payload ~elapsed:2.0 ())) in
  (match Archive.regressions (Archive.diff fast slow) with
  | [ d ] ->
    Alcotest.(check string) "named series" "elapsed_s" d.Archive.d_name;
    Alcotest.(check bool) "timing class" true d.Archive.d_timing;
    Alcotest.(check bool)
      "regressed flag" true
      (d.Archive.d_flag = Archive.Regressed)
  | ds -> Alcotest.failf "expected exactly the slowdown, got %d" (List.length ds));
  (* Within the threshold the same pair is clean... *)
  let slight = ok "slight" (Archive.make ~seq:2 (bench_payload ~elapsed:1.05 ())) in
  Alcotest.(check int)
    "5% growth under 10% threshold" 0
    (List.length (Archive.regressions (Archive.diff fast slight)));
  (* ...and a count change of any size always flags. *)
  let drifted =
    ok "drifted" (Archive.make ~seq:2 (bench_payload ~survivors:101 ()))
  in
  match Archive.regressions (Archive.diff fast drifted) with
  | [ d ] ->
    Alcotest.(check string) "count series" "survivors" d.Archive.d_name;
    Alcotest.(check bool)
      "changed flag" true
      (d.Archive.d_flag = Archive.Changed)
  | ds -> Alcotest.failf "expected exactly the drift, got %d" (List.length ds)

let test_diff_one_sided_series_flag () =
  let a = ok "a" (Archive.make ~seq:1 (bench_payload ())) in
  let b =
    ok "b"
      (Archive.make ~seq:2
         (parse_exn "extra"
            "{ \"bench\": \"synthetic\", \"elapsed_s\": 1, \"survivors\": \
             100, \"extra_metric\": 3 }"))
  in
  match Archive.regressions (Archive.diff a b) with
  | [ d ] ->
    Alcotest.(check string) "the extra series" "extra_metric" d.Archive.d_name;
    Alcotest.(check bool)
      "only-b flag" true
      (d.Archive.d_flag = Archive.Only_b)
  | ds -> Alcotest.failf "expected one one-sided delta, got %d" (List.length ds)

(* ------------------------------------------------------------------ *)
(* Change-point detection and trends                                   *)
(* ------------------------------------------------------------------ *)

let test_change_point_on_step () =
  (match
     Archive.change_point [| 10.; 10.; 10.; 10.; 20.; 20.; 20.; 20. |]
   with
  | None -> Alcotest.fail "clean step not detected"
  | Some s ->
    Alcotest.(check int) "split index" 4 s.Archive.c_index;
    Alcotest.(check (float 0.0)) "before" 10.0 s.Archive.c_before;
    Alcotest.(check (float 0.0)) "after" 20.0 s.Archive.c_after);
  (* No-signal series must stay quiet. *)
  Alcotest.(check bool)
    "constant" true
    (Archive.change_point [| 5.; 5.; 5.; 5.; 5. |] = None);
  Alcotest.(check bool)
    "alternating noise" true
    (Archive.change_point [| 1.; 2.; 1.; 2.; 1.; 2.; 1.; 2. |] = None);
  Alcotest.(check bool)
    "too short" true
    (Archive.change_point [| 1.; 100.; 100. |] = None)

let test_trends_groups_and_flags_shift () =
  with_dir (fun dir ->
      (* Four fast points then four slow ones, as distinct bench runs
         (content differs through elapsed_s). *)
      List.iter
        (fun e ->
          ignore (ok "ingest" (Archive.ingest ~dir (bench_payload ~elapsed:e ()))))
        [ 1.0; 1.01; 0.99; 1.02; 2.0; 2.01; 1.99; 2.02 ];
      let records, errors = Archive.load ~dir in
      Alcotest.(check int) "no load errors" 0 (List.length errors);
      Alcotest.(check int) "eight records" 8 (List.length records);
      match Archive.trends records with
      | [ g ] -> (
        Alcotest.(check string) "group label" "synthetic" g.Archive.g_label;
        Alcotest.(check int) "group size" 8 g.Archive.g_records;
        let t =
          List.find
            (fun (t : Archive.trend) -> t.Archive.t_name = "elapsed_s")
            g.Archive.g_trends
        in
        Alcotest.(check int) "eight points" 8 (List.length t.Archive.t_points);
        match t.Archive.t_shift with
        | None -> Alcotest.fail "injected slowdown not flagged"
        | Some s ->
          Alcotest.(check int) "shift at the fifth point" 4 s.Archive.c_index;
          Alcotest.(check bool) "regime grew" true
            (s.Archive.c_after > s.Archive.c_before);
          (* The constant survivors series must not shift. *)
          let surv =
            List.find
              (fun (t : Archive.trend) -> t.Archive.t_name = "survivors")
              g.Archive.g_trends
          in
          Alcotest.(check bool)
            "constant series quiet" true
            (surv.Archive.t_shift = None))
      | gs -> Alcotest.failf "expected one group, got %d" (List.length gs))

let () =
  Alcotest.run "archive"
    [
      ( "ingest",
        [
          Alcotest.test_case "round trip" `Quick test_ingest_round_trip;
          Alcotest.test_case "dedupe and sequencing" `Quick
            test_ingest_dedupes_and_sequences;
          Alcotest.test_case "corrupt records rejected" `Quick
            test_corrupt_records_rejected;
          Alcotest.test_case "one-line payload record loads" `Quick
            test_one_line_payload_record_loads;
        ] );
      ( "diff",
        [
          Alcotest.test_case "identical runs are clean" `Quick
            test_diff_identical_is_clean;
          Alcotest.test_case "slowdown flagged by name" `Quick
            test_diff_flags_slowdown_by_name;
          Alcotest.test_case "one-sided series flagged" `Quick
            test_diff_one_sided_series_flag;
        ] );
      ( "trends",
        [
          Alcotest.test_case "change point on a step" `Quick
            test_change_point_on_step;
          Alcotest.test_case "grouping and shift detection" `Quick
            test_trends_groups_and_flags_shift;
        ] );
    ]
