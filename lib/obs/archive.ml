(* Cross-run performance archive. One content-addressed JSON record per
   ingested run result; see archive.mli for the model. Determinism is
   the design center: record bytes are a function of the payload and
   the identity fields alone (no wall clock), so CI can re-ingest and
   compare archives byte-wise, and the id doubles as a tamper check. *)

let format_version = 1

type meta = {
  a_id : string;
  a_seq : int;
  a_kind : string;
  a_label : string;
  a_engine : string option;
  a_run_id : string option;
  a_commit : string option;
  a_host : string option;
}

type record = {
  meta : meta;
  series : (string * float) list;
  payload : Jsonx.t;
}

let default_dir () =
  match Sys.getenv_opt "BEAST_ARCHIVE" with
  | Some d when d <> "" -> d
  | _ -> Filename.concat ".beast" "archive"

let commit_from_env () =
  match Sys.getenv_opt "BEAST_COMMIT" with
  | Some c when c <> "" -> Some c
  | _ -> (
    match Sys.getenv_opt "GITHUB_SHA" with
    | Some c when c <> "" -> Some c
    | _ -> None)

(* ------------------------------------------------------------------ *)
(* Classification and series extraction                                *)
(* ------------------------------------------------------------------ *)

let classify payload =
  match payload with
  | Jsonx.Obj _ -> (
    match Jsonx.member_opt "beast_archive" payload with
    | Some _ ->
      Error "already an archive record (ingest the original stats or \
             bench file instead)"
    | None -> (
      match Jsonx.member_opt "bench" payload with
      | Some (Jsonx.Str b) -> Ok ("bench", b, None)
      | Some _ -> Error "\"bench\" field is not a string"
      | None -> (
        match
          ( Jsonx.member_opt "space" payload,
            Jsonx.member_opt "survivors" payload,
            Jsonx.member_opt "constraints" payload )
        with
        | Some (Jsonx.Str sp), Some _, Some _ ->
          let run_id =
            match Jsonx.member_opt "run_id" payload with
            | Some (Jsonx.Str id) -> Some id
            | _ -> None
          in
          Ok ("stats", sp, run_id)
        | _ ->
          Error
            "unrecognized payload: expected a sweep statistics file \
             (space/survivors/constraints) or an object with a string \
             \"bench\" field")))
  | _ -> Error "payload is not a JSON object"

let label_suffix = function
  | [] -> ""
  | labels ->
    "{"
    ^ String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) labels)
    ^ "}"

(* Histogram quantiles/means are derived from the bucket grid, so the
   same payload always extracts the same floats — the series stay a
   pure function of the record content. Empty histograms and NaN
   gauges are skipped (NaN has no JSON spelling). *)
let metrics_series json =
  match Metrics.Snapshot.of_jsonx json with
  | Error msg -> Error ("metrics section: " ^ msg)
  | Ok snap ->
    Ok
      (List.concat_map
         (fun (it : Metrics.item) ->
           let base = "metric/" ^ it.name ^ label_suffix it.labels in
           match it.value with
           | Metrics.Vcounter v -> [ (base, float_of_int v) ]
           | Metrics.Vgauge g -> if Float.is_nan g then [] else [ (base, g) ]
           | Metrics.Vhist h ->
             if h.Metrics.s_count = 0 then []
             else
               [
                 (base ^ "/count", float_of_int h.Metrics.s_count);
                 (base ^ "/p50", Metrics.Snapshot.quantile h 0.50);
                 (base ^ "/p95", Metrics.Snapshot.quantile h 0.95);
                 (base ^ "/p99", Metrics.Snapshot.quantile h 0.99);
                 (base ^ "/mean", Metrics.Snapshot.mean h);
               ])
         snap)

let stats_series payload =
  try
    let num name =
      (name, Jsonx.to_float name (Jsonx.member name payload))
    in
    let constraints =
      Jsonx.to_list "constraints" (Jsonx.member "constraints" payload)
      |> List.map (fun c ->
             let name = Jsonx.to_str "name" (Jsonx.member "name" c) in
             ( "constraint/" ^ name ^ "/fired",
               Jsonx.to_float "fired" (Jsonx.member "fired" c) ))
    in
    let metrics =
      match Jsonx.member_opt "metrics" payload with
      | None -> Ok []
      | Some m -> metrics_series m
    in
    Result.map
      (fun m -> (num "survivors" :: num "loop_iterations" :: constraints) @ m)
      metrics
  with Jsonx.Error msg -> Error msg

let bench_series payload =
  match payload with
  | Jsonx.Obj members ->
    Ok
      (List.concat_map
         (fun (k, v) ->
           match v with
           | Jsonx.Int i -> [ (k, float_of_int i) ]
           | Jsonx.Float f -> if Float.is_nan f then [] else [ (k, f) ]
           | Jsonx.Bool b -> [ (k, if b then 1.0 else 0.0) ]
           | Jsonx.Arr l ->
             List.mapi
               (fun i e ->
                 match e with
                 | Jsonx.Int n ->
                   Some (k ^ "/" ^ string_of_int i, float_of_int n)
                 | Jsonx.Float f when not (Float.is_nan f) ->
                   Some (k ^ "/" ^ string_of_int i, f)
                 | _ -> None)
               l
             |> List.filter_map Fun.id
           | _ -> [])
         members)
  | _ -> Error "payload is not a JSON object"

let extract_series ~kind payload =
  let r =
    if kind = "stats" then stats_series payload else bench_series payload
  in
  Result.map
    (List.sort (fun (a, _) (b, _) -> String.compare a b))
    r

(* ------------------------------------------------------------------ *)
(* Identity                                                            *)
(* ------------------------------------------------------------------ *)

let content_id ~kind ~label ~engine ~run_id ~commit ~host canonical =
  let opt = Option.value ~default:"" in
  let identity =
    String.concat "\x00"
      [ kind; label; opt engine; opt run_id; opt commit; opt host; canonical ]
  in
  String.sub (Digest.to_hex (Digest.string identity)) 0 12

let make ~seq ?engine ?run_id ?commit ?host payload =
  match classify payload with
  | Error _ as e -> e
  | Ok (kind, label, payload_run_id) -> (
    let run_id =
      match payload_run_id with Some _ as id -> id | None -> run_id
    in
    match extract_series ~kind payload with
    | Error msg -> Error msg
    | Ok series ->
      let canonical = Jsonx.to_string payload in
      let a_id =
        content_id ~kind ~label ~engine ~run_id ~commit ~host canonical
      in
      Ok
        {
          meta =
            {
              a_id;
              a_seq = seq;
              a_kind = kind;
              a_label = label;
              a_engine = engine;
              a_run_id = run_id;
              a_commit = commit;
              a_host = host;
            };
          series;
          payload;
        })

(* ------------------------------------------------------------------ *)
(* Encoding                                                            *)
(* ------------------------------------------------------------------ *)

let to_jsonx r =
  let opt name = Jsonx.optional name (fun v -> Jsonx.Str v) in
  Jsonx.Obj
    ([
       ("beast_archive", Jsonx.Int format_version);
       ("id", Jsonx.Str r.meta.a_id);
       ("seq", Jsonx.Int r.meta.a_seq);
       ("kind", Jsonx.Str r.meta.a_kind);
       ("label", Jsonx.Str r.meta.a_label);
     ]
    @ opt "engine" r.meta.a_engine
    @ opt "run_id" r.meta.a_run_id
    @ opt "commit" r.meta.a_commit
    @ opt "host" r.meta.a_host
    @ [
        ( "series",
          Jsonx.Arr
            (List.map
               (fun (name, value) ->
                 Jsonx.Obj
                   [ ("name", Jsonx.Str name); ("value", Jsonx.Float value) ])
               r.series) );
        ("payload", r.payload);
      ])

let fail = Jsonx.fail

let decode json =
  (match Jsonx.member_opt "beast_archive" json with
  | None -> fail "not an archive record (missing \"beast_archive\" tag)"
  | Some v ->
    let version = Jsonx.to_int "beast_archive" v in
    if version <> format_version then
      fail "unsupported archive format version %d (this build reads %d)"
        version format_version);
  let str_opt name =
    Option.map (Jsonx.to_str name) (Jsonx.member_opt name json)
  in
  let series =
    Jsonx.to_list "series" (Jsonx.member "series" json)
    |> List.map (fun row ->
           ( Jsonx.to_str "name" (Jsonx.member "name" row),
             Jsonx.to_float "value" (Jsonx.member "value" row) ))
  in
  {
    meta =
      {
        a_id = Jsonx.to_str "id" (Jsonx.member "id" json);
        a_seq = Jsonx.to_int "seq" (Jsonx.member "seq" json);
        a_kind = Jsonx.to_str "kind" (Jsonx.member "kind" json);
        a_label = Jsonx.to_str "label" (Jsonx.member "label" json);
        a_engine = str_opt "engine";
        a_run_id = str_opt "run_id";
        a_commit = str_opt "commit";
        a_host = str_opt "host";
      };
    series;
    payload = Jsonx.member "payload" json;
  }

(* A record is only as trustworthy as its digest: rebuild it from the
   stored payload and identity fields and require an exact match — of
   the id, the classification, and every extracted series value. *)
let validate r =
  match
    make ~seq:r.meta.a_seq ?engine:r.meta.a_engine ?run_id:r.meta.a_run_id
      ?commit:r.meta.a_commit ?host:r.meta.a_host r.payload
  with
  | Error msg -> Error (Printf.sprintf "stored payload rejected: %s" msg)
  | Ok fresh ->
    if fresh.meta.a_id <> r.meta.a_id then
      Error
        (Printf.sprintf
           "content does not match its id (stored %s, recomputed %s): \
            corrupt or tampered record"
           r.meta.a_id fresh.meta.a_id)
    else if fresh.meta.a_kind <> r.meta.a_kind
            || fresh.meta.a_label <> r.meta.a_label
            || fresh.meta.a_run_id <> r.meta.a_run_id then
      Error "stored kind/label/run_id do not match the payload"
    else if fresh.series <> r.series then
      Error "stored series do not match the payload: corrupt record"
    else Ok r

let load r = Result.bind (Jsonx.decode ~what:"archive record" decode r) validate
let of_jsonx json = load (Ok json)
let of_json text = load (Jsonx.parse text)
let of_file file = load (Jsonx.of_file file)

(* ------------------------------------------------------------------ *)
(* Store                                                               *)
(* ------------------------------------------------------------------ *)

let mkdir_p dir =
  let parent = Filename.dirname dir in
  if parent <> dir && parent <> "." && not (Sys.file_exists parent) then (
    try Unix.mkdir parent 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()

let record_files dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then []
  else
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".json")
    |> List.sort String.compare
    |> List.map (Filename.concat dir)

(* The next sequence number scans leniently (raw "seq" field, no
   validation) so one corrupt record cannot make its neighbours' seq
   numbers collide. *)
let next_seq dir =
  let seq_of file =
    match Jsonx.of_file file with
    | Ok json -> (
      match Jsonx.member_opt "seq" json with Some (Jsonx.Int s) -> s | _ -> 0)
    | Error _ -> 0
  in
  1 + List.fold_left (fun acc f -> max acc (seq_of f)) 0 (record_files dir)

let write_record ~dir r =
  mkdir_p dir;
  Jsonx.write_file
    (Filename.concat dir (r.meta.a_id ^ ".json"))
    (Jsonx.pretty (to_jsonx r))

let ingest ~dir ?engine ?run_id ?commit ?host payload =
  match make ~seq:0 ?engine ?run_id ?commit ?host payload with
  | Error _ as e -> e
  | Ok probe -> (
    let file = Filename.concat dir (probe.meta.a_id ^ ".json") in
    if Sys.file_exists file then
      match of_file file with
      | Ok existing -> Ok (existing, false)
      | Error msg ->
        Error
          (Printf.sprintf
             "record %s already exists but fails validation (%s); remove \
              it to re-ingest"
             file msg)
    else
      match
        make ~seq:(next_seq dir) ?engine ?run_id ?commit ?host payload
      with
      | Error _ as e -> e
      | Ok r ->
        write_record ~dir r;
        Ok (r, true))

let load ~dir =
  let records, errors =
    List.fold_left
      (fun (rs, es) file ->
        match of_file file with
        | Ok r -> (r :: rs, es)
        | Error msg -> (rs, (file, msg) :: es))
      ([], []) (record_files dir)
  in
  ( List.sort
      (fun a b -> compare (a.meta.a_seq, a.meta.a_id) (b.meta.a_seq, b.meta.a_id))
      records,
    List.rev errors )

let find ~dir prefix =
  let matches =
    record_files dir
    |> List.filter (fun file ->
           let id = Filename.remove_extension (Filename.basename file) in
           String.length id >= String.length prefix
           && String.sub id 0 (String.length prefix) = prefix)
  in
  match matches with
  | [] -> Error (Printf.sprintf "no archive record matches id %S" prefix)
  | [ file ] -> (
    match of_file file with
    | Ok r -> Ok r
    | Error msg -> Error (Printf.sprintf "%s: %s" file msg))
  | files ->
    Error
      (Printf.sprintf "ambiguous id %S matches %d records (%s)" prefix
         (List.length files)
         (String.concat ", "
            (List.map
               (fun f -> Filename.remove_extension (Filename.basename f))
               files)))

(* ------------------------------------------------------------------ *)
(* Diff                                                                *)
(* ------------------------------------------------------------------ *)

type flag = Same | Changed | Regressed | Only_a | Only_b

type delta = {
  d_name : string;
  d_timing : bool;
  d_a : float option;
  d_b : float option;
  d_flag : flag;
}

let has_suffix s suf =
  let ls = String.length s and lf = String.length suf in
  ls >= lf && String.sub s (ls - lf) lf = suf

let contains s sub =
  let ls = String.length s and lb = String.length sub in
  let rec go i = i + lb <= ls && (String.sub s i lb = sub || go (i + 1)) in
  lb = 0 || go 0

let series_is_timing name =
  has_suffix name "_s" || has_suffix name "_ms" || has_suffix name "_us"
  || has_suffix name "_ns" || has_suffix name "_pct"
  || contains name "/p50" || contains name "/p95" || contains name "/p99"
  || contains name "/mean"

let diff ?(threshold_pct = 10.0) a b =
  let rec merge xs ys =
    match (xs, ys) with
    | [], [] -> []
    | (n, v) :: xs', [] -> (n, Some v, None) :: merge xs' []
    | [], (n, v) :: ys' -> (n, None, Some v) :: merge [] ys'
    | (na, va) :: xs', (nb, vb) :: ys' ->
      let c = String.compare na nb in
      if c = 0 then (na, Some va, Some vb) :: merge xs' ys'
      else if c < 0 then (na, Some va, None) :: merge xs' ys
      else (nb, None, Some vb) :: merge xs ys'
  in
  merge a.series b.series
  |> List.map (fun (name, va, vb) ->
         let timing = series_is_timing name in
         let flag =
           match (va, vb) with
           | Some _, None -> Only_a
           | None, Some _ -> Only_b
           | None, None -> Same
           | Some x, Some y ->
             if timing then
               if x = 0.0 then if y = 0.0 then Same else Changed
               else if y > x *. (1.0 +. (threshold_pct /. 100.0)) then
                 Regressed
               else Same
             else if x = y then Same
             else Changed
         in
         { d_name = name; d_timing = timing; d_a = va; d_b = vb; d_flag = flag })

let regressions deltas =
  List.filter (fun d -> d.d_flag <> Same) deltas

(* ------------------------------------------------------------------ *)
(* Trends                                                              *)
(* ------------------------------------------------------------------ *)

type point = { p_seq : int; p_commit : string option; p_value : float }
type shift = { c_index : int; c_before : float; c_after : float }

type trend = {
  t_name : string;
  t_timing : bool;
  t_points : point list;
  t_median : float;
  t_mad : float;
  t_shift : shift option;
}

type group = {
  g_kind : string;
  g_label : string;
  g_engine : string option;
  g_records : int;
  g_trends : trend list;
}

let median a =
  let n = Array.length a in
  if n = 0 then nan
  else begin
    let s = Array.copy a in
    Array.sort compare s;
    if n mod 2 = 1 then s.(n / 2)
    else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.0
  end

let mad a =
  let m = median a in
  median (Array.map (fun x -> Float.abs (x -. m)) a)

(* Two-segment split by maximum median distance; a shift is real when
   that distance dominates the within-segment scatter. Mean absolute
   deviation (not MAD) measures the scatter: on a clean step every
   residual is zero, so the step is flagged, while on an alternating or
   noisy series the scatter stays proportional to the oscillation and
   suppresses the false positive that a median-of-residuals (often
   exactly zero) would allow. *)
let change_point a =
  let n = Array.length a in
  if n < 4 then None
  else begin
    let seg_median lo hi = median (Array.sub a lo (hi - lo)) in
    (* Pick the split by best two-segment fit: minimal total absolute
       deviation of the points around their own segment's median.
       (Maximizing the median distance instead can tie between an early
       sloppy split and the true one — on a clean step every split
       between the plateaus has the same distance — whereas the residual
       criterion is zero exactly at the true edge.) *)
    let best = ref None in
    for k = 2 to n - 2 do
      let m1 = seg_median 0 k and m2 = seg_median k n in
      let scatter = ref 0.0 in
      for i = 0 to n - 1 do
        let m = if i < k then m1 else m2 in
        scatter := !scatter +. Float.abs (a.(i) -. m)
      done;
      match !best with
      | Some (_, _, _, cost) when !scatter >= cost -> ()
      | _ -> best := Some (k, m1, m2, !scatter)
    done;
    match !best with
    | None -> None
    | Some (k, m1, m2, scatter) ->
      let d = Float.abs (m2 -. m1) in
      let mean_ad = scatter /. float_of_int n in
      let floor =
        1e-12 +. (0.001 *. Float.max (Float.abs m1) (Float.abs m2))
      in
      if d > 3.0 *. mean_ad && d > floor then
        Some { c_index = k; c_before = m1; c_after = m2 }
      else None
  end

let trends ?series_prefix records =
  let has_prefix name =
    match series_prefix with
    | None -> true
    | Some p ->
      String.length name >= String.length p
      && String.sub name 0 (String.length p) = p
  in
  let keys =
    List.map (fun r -> (r.meta.a_kind, r.meta.a_label, r.meta.a_engine)) records
    |> List.sort_uniq compare
  in
  List.map
    (fun (kind, label, engine) ->
      let rs =
        List.filter
          (fun r ->
            r.meta.a_kind = kind && r.meta.a_label = label
            && r.meta.a_engine = engine)
          records
      in
      let names =
        List.concat_map (fun r -> List.map fst r.series) rs
        |> List.sort_uniq String.compare
        |> List.filter has_prefix
      in
      let trend_of name =
        let points =
          List.filter_map
            (fun r ->
              List.assoc_opt name r.series
              |> Option.map (fun v ->
                     {
                       p_seq = r.meta.a_seq;
                       p_commit = r.meta.a_commit;
                       p_value = v;
                     }))
            rs
        in
        let values = Array.of_list (List.map (fun p -> p.p_value) points) in
        {
          t_name = name;
          t_timing = series_is_timing name;
          t_points = points;
          t_median = median values;
          t_mad = mad values;
          t_shift = change_point values;
        }
      in
      {
        g_kind = kind;
        g_label = label;
        g_engine = engine;
        g_records = List.length rs;
        g_trends = List.map trend_of names;
      })
    keys
