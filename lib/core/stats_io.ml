(* Shard results as JSON: what [beast sweep --stats-out] writes and
   [beast merge] reads back. The encoding is fully deterministic (fixed
   key order, no timestamps), so merging the N shard files of any split
   reproduces the unsharded file byte-for-byte.

   When a run had a metrics registry installed, its snapshot rides along
   under a "metrics" key (omitted entirely otherwise, keeping old files
   and byte-compare harnesses unchanged). Histogram state is mergeable
   without loss — bucket-wise addition is exactly the pooled-sample
   histogram — so [beast merge] recombines shard metrics into fleet-level
   percentiles. *)

module Jsonx = Beast_obs.Jsonx
module Metrics = Beast_obs.Metrics

type constraint_row = {
  cr_name : string;
  cr_class : Space.constraint_class;
  cr_depth0 : bool;
  cr_fired : int;
}

type shard = {
  shard_index : int;
  shard_of : int;
}

let unsharded = { shard_index = 0; shard_of = 1 }

type t = {
  space : string;
  run_id : string option;
  shard : shard;
  survivors : int;
  loop_iterations : int;
  constraints : constraint_row list;
  metrics : Metrics.snapshot option;
  provenance : Provenance.summary option;
}

let constraint_rows ~(plan : Plan.t) (stats : Engine.stats) =
  let depth0 = Plan.depth0_constraints plan in
  Array.to_list
    (Array.mapi
       (fun i (n, c, k) ->
         { cr_name = n; cr_class = c; cr_depth0 = depth0.(i); cr_fired = k })
       stats.Engine.pruned)

let of_stats ~(plan : Plan.t) ?run_id ?(shard = unsharded) ?metrics ?provenance
    (stats : Engine.stats) =
  {
    space = plan.Plan.space_name;
    run_id;
    shard;
    survivors = stats.Engine.survivors;
    loop_iterations = stats.Engine.loop_iterations;
    constraints = constraint_rows ~plan stats;
    metrics;
    provenance;
  }

let to_stats t =
  {
    Engine.survivors = t.survivors;
    loop_iterations = t.loop_iterations;
    pruned =
      Array.of_list
        (List.map (fun r -> (r.cr_name, r.cr_class, r.cr_fired)) t.constraints);
  }

(* ------------------------------------------------------------------ *)
(* Encoding                                                            *)
(* ------------------------------------------------------------------ *)

let row_fields r =
  [
    ("name", Jsonx.Str r.cr_name);
    ("class", Jsonx.Str (Space.constraint_class_name r.cr_class));
    ("depth0", Jsonx.Bool r.cr_depth0);
  ]

let to_jsonx t =
  Jsonx.Obj
    ([ ("space", Jsonx.Str t.space) ]
    (* Only present on request (an explicit --run-id): a minted id would
       break the byte-identity of instrumented vs plain stats files. *)
    @ Jsonx.optional "run_id" (fun id -> Jsonx.Str id) t.run_id
    @ [
        ( "shard",
          Jsonx.Obj
            [
              ("index", Jsonx.Int t.shard.shard_index);
              ("of", Jsonx.Int t.shard.shard_of);
            ] );
        ("survivors", Jsonx.Int t.survivors);
        ("loop_iterations", Jsonx.Int t.loop_iterations);
        ( "constraints",
          Jsonx.Arr
            (List.map
               (fun r ->
                 Jsonx.Obj (row_fields r @ [ ("fired", Jsonx.Int r.cr_fired) ]))
               t.constraints) );
      ]
    @ Jsonx.optional "metrics" Metrics.Snapshot.to_jsonx t.metrics
    @ Jsonx.optional "provenance" Provenance.to_jsonx t.provenance)

let to_json t = Jsonx.pretty (to_jsonx t)

(* ------------------------------------------------------------------ *)
(* Decoding                                                            *)
(* ------------------------------------------------------------------ *)

let constraint_class_of_name = function
  | "hard" -> Space.Hard
  | "soft" -> Space.Soft
  | "correctness" -> Space.Correctness
  | other -> Jsonx.fail "unknown constraint class %S" other

let row_of_jsonx row =
  {
    cr_name = Jsonx.to_str "name" (Jsonx.member "name" row);
    cr_class =
      constraint_class_of_name
        (Jsonx.to_str "class" (Jsonx.member "class" row));
    cr_depth0 = Jsonx.to_bool "depth0" (Jsonx.member "depth0" row);
    cr_fired = 0;
  }

let decode json =
  let shard_json = Jsonx.member "shard" json in
  let constraints =
    List.map
      (fun row ->
        {
          (row_of_jsonx row) with
          cr_fired = Jsonx.to_int "fired" (Jsonx.member "fired" row);
        })
      (Jsonx.to_list "constraints" (Jsonx.member "constraints" json))
  in
  let section name of_jsonx =
    Option.map
      (fun v ->
        match of_jsonx v with
        | Ok x -> x
        | Error msg -> Jsonx.fail "%s: %s" name msg)
      (Jsonx.member_opt name json)
  in
  {
    space = Jsonx.to_str "space" (Jsonx.member "space" json);
    run_id =
      Option.map (Jsonx.to_str "run_id") (Jsonx.member_opt "run_id" json);
    shard =
      {
        shard_index = Jsonx.to_int "index" (Jsonx.member "index" shard_json);
        shard_of = Jsonx.to_int "of" (Jsonx.member "of" shard_json);
      };
    survivors = Jsonx.to_int "survivors" (Jsonx.member "survivors" json);
    loop_iterations =
      Jsonx.to_int "loop_iterations" (Jsonx.member "loop_iterations" json);
    constraints;
    metrics = section "metrics" Metrics.Snapshot.of_jsonx;
    provenance = section "provenance" Provenance.of_jsonx;
  }

let of_json text = Jsonx.decode decode (Jsonx.parse text)
let of_file path = Jsonx.decode decode (Jsonx.of_file path)
let write_file path t = Jsonx.write_file path (to_json t)

(* ------------------------------------------------------------------ *)
(* Merging                                                             *)
(* ------------------------------------------------------------------ *)

let constraints_compatible a b =
  List.length a.constraints = List.length b.constraints
  && List.for_all2
       (fun x y ->
         x.cr_name = y.cr_name && x.cr_class = y.cr_class
         && x.cr_depth0 = y.cr_depth0)
       a.constraints b.constraints

(* Metric snapshots pool bucket-wise (each shard's samples genuinely
   happened, including the per-shard depth-0 evaluations), so the merged
   percentiles describe the fleet. All shards must agree on whether
   metrics were recorded. *)
let merge_metrics shards =
  match List.partition (fun s -> s.metrics <> None) shards with
  | [], _ -> Ok None
  | _, [] ->
    Result.map
      (fun m -> Some m)
      (Metrics.Snapshot.merge
         (List.filter_map (fun s -> s.metrics) shards))
  | _, _ -> Error "some shards carry metrics and some do not"

(* Provenance merges exactly: removal counts and depth entries sum,
   survivor-density cells union by outer value. Depth-0 firings carry
   chunk-sized removal closures, so even those sum (unlike the fired
   counts, which Engine.merge_blocks max-dedupes). Mixed presence is
   an error, like metrics. *)
let merge_provenance shards =
  match List.partition (fun s -> s.provenance <> None) shards with
  | [], _ -> Ok None
  | _, [] ->
    Result.map
      (fun p -> Some p)
      (Provenance.merge_summaries
         (List.filter_map (fun s -> s.provenance) shards))
  | _, _ -> Error "some shards carry provenance and some do not"

let merge = function
  | [] -> Error "no shard files given"
  | first :: rest as shards -> (
    match
      List.find_opt (fun s -> s.space <> first.space) rest
    with
    | Some s ->
      Error
        (Printf.sprintf "shards mix spaces %S and %S" first.space s.space)
    | None ->
      if List.exists (fun s -> s.shard.shard_of <> first.shard.shard_of) rest
      then Error "shards come from splits of different arity"
      else if List.exists (fun s -> not (constraints_compatible first s)) rest
      then Error "shards disagree on the constraint list"
      else begin
        let of_ = first.shard.shard_of in
        let indices =
          List.sort compare (List.map (fun s -> s.shard.shard_index) shards)
        in
        if indices <> List.init of_ Fun.id then
          Error
            (Printf.sprintf
               "need each of shards 0..%d exactly once, got {%s}" (of_ - 1)
               (String.concat ", " (List.map string_of_int indices)))
        else
          match merge_metrics shards with
          | Error msg -> Error msg
          | Ok metrics -> (
            match merge_provenance shards with
            | Error msg -> Error msg
            | Ok provenance ->
            let stats =
              Engine.merge_blocks
                ~depth0:
                  (Array.of_list
                     (List.map (fun r -> r.cr_depth0) first.constraints))
                (List.map to_stats shards)
            in
            Ok
              {
                space = first.space;
                (* Each shard ran as its own process with its own id;
                   the merged file describes no single run. *)
                run_id = None;
                shard = unsharded;
                survivors = stats.Engine.survivors;
                loop_iterations = stats.Engine.loop_iterations;
                constraints =
                  List.mapi
                    (fun i r ->
                      let _, _, k = stats.Engine.pruned.(i) in
                      { r with cr_fired = k })
                    first.constraints;
                metrics;
                provenance;
              })
      end)
