open Beast_core

let result_testable =
  Alcotest.testable
    (fun ppf t -> Format.pp_print_string ppf (Stats_io.to_json t))
    ( = )

let full_result sp =
  let plan = Plan.make_exn sp in
  (plan, Stats_io.of_stats ~plan (Engine_staged.run plan))

let shard_results plan ~of_ =
  List.init of_ (fun index ->
      let stats = Engine_staged.run (Plan.chunk_outer plan ~index ~of_) in
      Stats_io.of_stats ~plan
        ~shard:{ Stats_io.shard_index = index; shard_of = of_ }
        stats)

let test_json_roundtrip () =
  let _, r = full_result (Support.mixed_space ()) in
  match Stats_io.of_json (Stats_io.to_json r) with
  | Error msg -> Alcotest.fail msg
  | Ok r' -> Alcotest.check result_testable "roundtrip" r r'

let test_json_roundtrip_escapes () =
  let r =
    {
      Stats_io.space = "we\"ird\\name\n\ttab";
      run_id = None;
      shard = { Stats_io.shard_index = 2; shard_of = 5 };
      survivors = 0;
      loop_iterations = 0;
      constraints =
        [
          {
            Stats_io.cr_name = "a \"quoted\" one";
            cr_class = Space.Correctness;
            cr_depth0 = true;
            cr_fired = 7;
          };
        ];
      metrics = None;
      provenance = None;
    }
  in
  match Stats_io.of_json (Stats_io.to_json r) with
  | Error msg -> Alcotest.fail msg
  | Ok r' -> Alcotest.check result_testable "escaped roundtrip" r r'

let test_merge_reproduces_unsharded_bytes () =
  (* The tentpole guarantee: merging any N-way split writes the same
     bytes as the unsharded sweep. *)
  List.iter
    (fun sp ->
      let plan, full = full_result sp in
      List.iter
        (fun of_ ->
          match Stats_io.merge (shard_results plan ~of_) with
          | Error msg -> Alcotest.fail msg
          | Ok merged ->
            Alcotest.(check string)
              (Printf.sprintf "%s, %d-way" (Space.name sp) of_)
              (Stats_io.to_json full) (Stats_io.to_json merged))
        [ 1; 2; 3; 7 ])
    [ Support.triangle_space (); Support.mixed_space () ]

let test_merge_order_independent () =
  let plan, full = full_result (Support.triangle_space ()) in
  let shards = shard_results plan ~of_:3 in
  List.iter
    (fun shards ->
      match Stats_io.merge shards with
      | Error msg -> Alcotest.fail msg
      | Ok merged -> Alcotest.check result_testable "permuted" full merged)
    [ List.rev shards; (match shards with [ a; b; c ] -> [ b; c; a ] | l -> l) ]

let test_merge_depth0_dedup () =
  (* A firing depth-0 constraint is counted once per shard but reported
     once after the merge. *)
  let sp = Support.triangle_space () in
  let open Expr.Infix in
  Space.constrain sp ~cls:Space.Hard "d0_always" (Expr.int 8 <: Expr.int 9);
  let plan, full = full_result sp in
  let fired r name =
    (List.find (fun c -> c.Stats_io.cr_name = name) r.Stats_io.constraints)
      .Stats_io.cr_fired
  in
  Alcotest.(check int) "sequential count" 1 (fired full "d0_always");
  match Stats_io.merge (shard_results plan ~of_:4) with
  | Error msg -> Alcotest.fail msg
  | Ok merged ->
    Alcotest.(check int) "merged count" 1 (fired merged "d0_always");
    Alcotest.check result_testable "whole record" full merged

let test_merge_rejects_bad_sets () =
  let plan, _ = full_result (Support.triangle_space ()) in
  let shards = shard_results plan ~of_:3 in
  let is_error = function Error _ -> true | Ok _ -> false in
  Alcotest.(check bool) "empty" true (is_error (Stats_io.merge []));
  Alcotest.(check bool) "missing shard" true
    (is_error (Stats_io.merge (List.tl shards)));
  Alcotest.(check bool) "duplicate shard" true
    (is_error (Stats_io.merge (List.hd shards :: shards)));
  let other_plan, _ = full_result (Support.mixed_space ()) in
  let foreign = shard_results other_plan ~of_:3 in
  Alcotest.(check bool) "mixed spaces" true
    (is_error (Stats_io.merge (List.hd foreign :: List.tl shards)));
  let resharded =
    List.map
      (fun s -> { s with Stats_io.shard = { s.Stats_io.shard with Stats_io.shard_of = 4 } })
      shards
  in
  Alcotest.(check bool) "mixed arity" true
    (is_error (Stats_io.merge (List.hd resharded :: List.tl shards)))

let test_of_json_rejects_garbage () =
  let is_error = function Error _ -> true | Ok _ -> false in
  List.iter
    (fun text ->
      Alcotest.(check bool) ("reject " ^ text) true
        (is_error (Stats_io.of_json text)))
    [
      "";
      "{";
      "[1, 2]";
      "{\"space\": \"x\"}";
      "{\"space\": 3, \"shard\": {\"index\": 0, \"of\": 1}, \"survivors\": 0, \
       \"loop_iterations\": 0, \"constraints\": []}";
    ]

let test_file_roundtrip () =
  let _, r = full_result (Support.triangle_space ()) in
  let path = Filename.temp_file "beast_stats" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Stats_io.write_file path r;
      match Stats_io.of_file path with
      | Error msg -> Alcotest.fail msg
      | Ok r' -> Alcotest.check result_testable "file roundtrip" r r')

(* ------------------------------------------------------------------ *)
(* Golden bytes: what the file writers emit for their edge cases,      *)
(* pinned as literals so a change to the JSON layout shows up here.    *)
(* ------------------------------------------------------------------ *)

let read_all path = In_channel.with_open_bin path In_channel.input_all

let golden name expected actual = Alcotest.(check string) name expected actual

let bare_stats =
  {
    Stats_io.space = "empty";
    run_id = None;
    shard = Stats_io.unsharded;
    survivors = 0;
    loop_iterations = 0;
    constraints = [];
    metrics = None;
    provenance = None;
  }

let test_golden_stats_no_constraints () =
  golden "stats without constraints" "{\n\
    \  \"space\": \"empty\",\n\
    \  \"shard\": { \"index\": 0, \"of\": 1 },\n\
    \  \"survivors\": 0,\n\
    \  \"loop_iterations\": 0,\n\
    \  \"constraints\": []\n\
    }\n"
    (Stats_io.to_json bare_stats)

let test_golden_provenance_empty () =
  let provenance =
    {
      Provenance.pv_iters = [ "x"; "y" ];
      pv_constraints = [];
      pv_depth_entries = [ 1; 4 ];
      pv_cells = [];
    }
  in
  golden "provenance without constraints or cells" "{\n\
    \  \"space\": \"empty\",\n\
    \  \"run_id\": \"r\\\"1\",\n\
    \  \"shard\": { \"index\": 1, \"of\": 2 },\n\
    \  \"survivors\": 0,\n\
    \  \"loop_iterations\": 0,\n\
    \  \"constraints\": [],\n\
    \  \"provenance\": {\n\
    \    \"iters\": [\"x\", \"y\"],\n\
    \    \"constraints\": [],\n\
    \    \"depth_entries\": [1, 4],\n\
    \    \"cells\": []\n\
    \  }\n\
    }\n"
    (Stats_io.to_json
       {
         bare_stats with
         Stats_io.run_id = Some "r\"1";
         shard = { Stats_io.shard_index = 1; shard_of = 2 };
         provenance = Some provenance;
       })

let test_golden_metrics_edges () =
  let item ?(labels = []) ?(unit_ = "") name value =
    { Beast_obs.Metrics.name; labels; unit_; value }
  in
  let snap =
    Beast_obs.Metrics.
      [
        item "a_counter" (Vcounter 7);
        item "b_gauge" ~unit_:"1/s" (Vgauge 2.5);
        item "c_hist" ~unit_:"ns"
          (Vhist { s_sub = 8; s_count = 0; s_sum = 0; s_buckets = [] });
        item "d_hist"
          ~labels:[ ("constraint", "c\\1"); ("depth", "0") ]
          (Vhist
             { s_sub = 8; s_count = 3; s_sum = 40; s_buckets = [ (9, 2); (12, 1) ] });
      ]
  in
  golden "metrics without labels or buckets" "{\n\
    \  \"space\": \"empty\",\n\
    \  \"shard\": { \"index\": 0, \"of\": 1 },\n\
    \  \"survivors\": 3,\n\
    \  \"loop_iterations\": 9,\n\
    \  \"constraints\": [\n\
    \    { \"name\": \"big\", \"class\": \"hard\", \"depth0\": false, \"fired\": 6 }\n\
    \  ],\n\
    \  \"metrics\": [\n\
    \    { \"name\": \"a_counter\", \"labels\": {}, \"type\": \"counter\", \"value\": 7 },\n\
    \    { \"name\": \"b_gauge\", \"labels\": {}, \"unit\": \"1/s\", \"type\": \"gauge\", \"value\": 2.5 },\n\
    \    { \"name\": \"c_hist\", \"labels\": {}, \"unit\": \"ns\", \"type\": \"histogram\", \"sub\": 8, \"count\": 0, \"sum\": 0, \"buckets\": [] },\n\
    \    { \"name\": \"d_hist\", \"labels\": {\"constraint\": \"c\\\\1\", \"depth\": \"0\"}, \"type\": \"histogram\", \"sub\": 8, \"count\": 3, \"sum\": 40, \"buckets\": [[9, 2], [12, 1]] }\n\
    \  ]\n\
    }\n"
    (Stats_io.to_json
       {
         bare_stats with
         Stats_io.survivors = 3;
         loop_iterations = 9;
         constraints =
           [
             {
               Stats_io.cr_name = "big";
               cr_class = Space.Hard;
               cr_depth0 = false;
               cr_fired = 6;
             };
           ];
         metrics = Some snap;
       })

let test_golden_checkpoint_no_chunks () =
  let plan = Plan.make_exn (Support.triangle_space ()) in
  let ck =
    Checkpoint.make ~plan ~run_id:"ck1" ~shard:Stats_io.unsharded ~n_chunks:4 []
  in
  let path = Filename.temp_file "beast_golden" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Checkpoint.save path ck;
      golden "checkpoint without chunks" "{\n\
        \  \"beast_checkpoint\": 1,\n\
        \  \"space\": \"triangle\",\n\
        \  \"run_id\": \"ck1\",\n\
        \  \"shard\": { \"index\": 0, \"of\": 1 },\n\
        \  \"n_chunks\": 4,\n\
        \  \"constraints\": [\n\
        \    { \"name\": \"odd_sum\", \"class\": \"hard\", \"depth0\": false },\n\
        \    { \"name\": \"big_x\", \"class\": \"soft\", \"depth0\": false }\n\
        \  ],\n\
        \  \"chunks\": []\n\
        }\n" (read_all path))

(* The triangle space with a depth-0 check placed before the first loop
   (n = 8, so it never fires): its rows exercise the depth-0 flag. *)
let gated_plan () =
  let sp = Support.triangle_space () in
  let open Expr.Infix in
  Space.constrain sp "n_small" (Expr.var "n" <: Expr.int 4);
  Plan.make_exn sp

let test_golden_stats_constraints () =
  let plan = gated_plan () in
  match Stats_io.merge (shard_results plan ~of_:2) with
  | Error msg -> Alcotest.fail msg
  | Ok merged ->
    golden "stats with constraints" "{\n\
      \  \"space\": \"triangle\",\n\
      \  \"shard\": { \"index\": 0, \"of\": 1 },\n\
      \  \"survivors\": 18,\n\
      \  \"loop_iterations\": 41,\n\
      \  \"constraints\": [\n\
      \    { \"name\": \"odd_sum\", \"class\": \"hard\", \"depth0\": false, \"fired\": 15 },\n\
      \    { \"name\": \"big_x\", \"class\": \"soft\", \"depth0\": false, \"fired\": 2 },\n\
      \    { \"name\": \"n_small\", \"class\": \"hard\", \"depth0\": true, \"fired\": 0 }\n\
      \  ]\n\
      }\n"
      (Stats_io.to_json merged)

let test_golden_checkpoint_chunks () =
  let plan = gated_plan () in
  let chunk index =
    (index, Engine_staged.run (Plan.chunk_outer plan ~index ~of_:3))
  in
  let ck =
    Checkpoint.make ~plan ~shard:{ Stats_io.shard_index = 1; shard_of = 2 }
      ~n_chunks:3 [ chunk 2; chunk 0 ]
  in
  let path = Filename.temp_file "beast_golden" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Checkpoint.save path ck;
      let text = read_all path in
      golden "checkpoint with chunks" "{\n\
        \  \"beast_checkpoint\": 1,\n\
        \  \"space\": \"triangle\",\n\
        \  \"shard\": { \"index\": 1, \"of\": 2 },\n\
        \  \"n_chunks\": 3,\n\
        \  \"constraints\": [\n\
        \    { \"name\": \"odd_sum\", \"class\": \"hard\", \"depth0\": false },\n\
        \    { \"name\": \"big_x\", \"class\": \"soft\", \"depth0\": false },\n\
        \    { \"name\": \"n_small\", \"class\": \"hard\", \"depth0\": true }\n\
        \  ],\n\
        \  \"chunks\": [\n\
        \    { \"id\": 0, \"survivors\": 8, \"loop_iterations\": 17, \"fired\": [7, 0, 0] },\n\
        \    { \"id\": 2, \"survivors\": 2, \"loop_iterations\": 6, \"fired\": [1, 2, 0] }\n\
        \  ]\n\
        }\n" text;
      match Checkpoint.of_json text with
      | Error msg -> Alcotest.fail msg
      | Ok back ->
        Checkpoint.save path back;
        golden "checkpoint read back" text (read_all path))

let () =
  Alcotest.run "stats_io"
    [
      ( "encoding",
        [
          Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "escaped strings" `Quick
            test_json_roundtrip_escapes;
          Alcotest.test_case "garbage rejected" `Quick
            test_of_json_rejects_garbage;
          Alcotest.test_case "file roundtrip" `Quick test_file_roundtrip;
        ] );
      ( "golden",
        [
          Alcotest.test_case "stats without constraints" `Quick
            test_golden_stats_no_constraints;
          Alcotest.test_case "provenance without constraints or cells" `Quick
            test_golden_provenance_empty;
          Alcotest.test_case "metrics without labels or buckets" `Quick
            test_golden_metrics_edges;
          Alcotest.test_case "checkpoint without chunks" `Quick
            test_golden_checkpoint_no_chunks;
          Alcotest.test_case "stats with constraints" `Quick
            test_golden_stats_constraints;
          Alcotest.test_case "checkpoint with chunks" `Quick
            test_golden_checkpoint_chunks;
        ] );
      ( "merging",
        [
          Alcotest.test_case "byte-identical to unsharded" `Quick
            test_merge_reproduces_unsharded_bytes;
          Alcotest.test_case "order independent" `Quick
            test_merge_order_independent;
          Alcotest.test_case "depth-0 dedup" `Quick test_merge_depth0_dedup;
          Alcotest.test_case "bad shard sets rejected" `Quick
            test_merge_rejects_bad_sets;
        ] );
    ]
