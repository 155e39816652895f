(* Resumable-sweep snapshots: the work-stealing scheduler's chunk ledger
   as a file. A checkpoint records which chunks of an [n_chunks]-way
   split have completed and each one's stats partial (survivors, loop
   iterations, per-constraint fired counts), plus the metrics histograms
   accumulated so far, bucket for bucket. Because chunk merging
   (Engine.merge_blocks) is commutative and associative, replaying the
   ledger and sweeping only the missing chunks reproduces the
   uninterrupted run's output byte-for-byte.

   The encoding follows Stats_io, whose row codec writes the constraint
   table: fixed key order, no timestamps, a version tag so future
   format changes fail loudly instead of parsing garbage. *)

module Jsonx = Beast_obs.Jsonx
module Metrics = Beast_obs.Metrics

let format_version = 1

type chunk = {
  c_id : int;
  c_survivors : int;
  c_loop_iterations : int;
  c_fired : int array;
}

type t = {
  space : string;
  run_id : string option;
  shard : Stats_io.shard;
  n_chunks : int;
  constraints : Stats_io.constraint_row list;
  chunks : chunk list;  (* sorted by c_id, each id present at most once *)
  metrics : Metrics.snapshot option;
}

(* A header row carries no count, so it is the stats row at zero. *)
let header (plan : Plan.t) =
  Stats_io.constraint_rows ~plan (Engine.empty_stats plan)

let make ~(plan : Plan.t) ?run_id ~shard ~n_chunks ?metrics completed =
  let chunks =
    List.sort
      (fun a b -> compare a.c_id b.c_id)
      (List.map
         (fun (id, (s : Engine.stats)) ->
           {
             c_id = id;
             c_survivors = s.Engine.survivors;
             c_loop_iterations = s.Engine.loop_iterations;
             c_fired = Array.map (fun (_, _, k) -> k) s.Engine.pruned;
           })
         completed)
  in
  {
    space = plan.Plan.space_name;
    run_id;
    shard;
    n_chunks;
    constraints = header plan;
    chunks;
    metrics;
  }

let completed_ids t = List.map (fun c -> c.c_id) t.chunks

let chunk_stats t =
  List.map
    (fun c ->
      ( c.c_id,
        {
          Engine.survivors = c.c_survivors;
          loop_iterations = c.c_loop_iterations;
          pruned =
            Array.of_list
              (List.mapi
                 (fun i r ->
                   (r.Stats_io.cr_name, r.Stats_io.cr_class, c.c_fired.(i)))
                 t.constraints);
        } ))
    t.chunks

(* ------------------------------------------------------------------ *)
(* Encoding                                                            *)
(* ------------------------------------------------------------------ *)

let to_jsonx t =
  Jsonx.Obj
    ([
       ("beast_checkpoint", Jsonx.Int format_version);
       ("space", Jsonx.Str t.space);
     ]
    @ Jsonx.optional "run_id" (fun id -> Jsonx.Str id) t.run_id
    @ [
        ( "shard",
          Jsonx.Obj
            [
              ("index", Jsonx.Int t.shard.Stats_io.shard_index);
              ("of", Jsonx.Int t.shard.Stats_io.shard_of);
            ] );
        ("n_chunks", Jsonx.Int t.n_chunks);
        ( "constraints",
          Jsonx.Arr
            (List.map
               (fun r -> Jsonx.Obj (Stats_io.row_fields r))
               t.constraints) );
        ( "chunks",
          Jsonx.Arr
            (List.map
               (fun c ->
                 Jsonx.Obj
                   [
                     ("id", Jsonx.Int c.c_id);
                     ("survivors", Jsonx.Int c.c_survivors);
                     ("loop_iterations", Jsonx.Int c.c_loop_iterations);
                     ( "fired",
                       Jsonx.Arr
                         (Array.to_list
                            (Array.map (fun k -> Jsonx.Int k) c.c_fired)) );
                   ])
               t.chunks) );
      ]
    @ Jsonx.optional "metrics" Metrics.Snapshot.to_jsonx t.metrics)

(* ------------------------------------------------------------------ *)
(* Decoding                                                            *)
(* ------------------------------------------------------------------ *)

let fail = Jsonx.fail

let decode json =
  (match Jsonx.member_opt "beast_checkpoint" json with
  | None -> fail "not a checkpoint file (missing \"beast_checkpoint\" tag)"
  | Some v ->
    let version = Jsonx.to_int "beast_checkpoint" v in
    if version <> format_version then
      fail "unsupported checkpoint format version %d (this build reads %d)"
        version format_version);
  let shard_json = Jsonx.member "shard" json in
  let shard =
    {
      Stats_io.shard_index = Jsonx.to_int "index" (Jsonx.member "index" shard_json);
      shard_of = Jsonx.to_int "of" (Jsonx.member "of" shard_json);
    }
  in
  let n_chunks = Jsonx.to_int "n_chunks" (Jsonx.member "n_chunks" json) in
  if n_chunks < 1 then fail "n_chunks must be at least 1 (got %d)" n_chunks;
  let constraints =
    List.map Stats_io.row_of_jsonx
      (Jsonx.to_list "constraints" (Jsonx.member "constraints" json))
  in
  let n_constraints = List.length constraints in
  let chunks =
    List.map
      (fun row ->
        let c =
          {
            c_id = Jsonx.to_int "id" (Jsonx.member "id" row);
            c_survivors = Jsonx.to_int "survivors" (Jsonx.member "survivors" row);
            c_loop_iterations =
              Jsonx.to_int "loop_iterations" (Jsonx.member "loop_iterations" row);
            c_fired =
              Array.of_list
                (List.map
                   (Jsonx.to_int "fired")
                   (Jsonx.to_list "fired" (Jsonx.member "fired" row)));
          }
        in
        if c.c_id < 0 || c.c_id >= n_chunks then
          fail "chunk id %d out of range for an %d-chunk split" c.c_id n_chunks;
        if c.c_survivors < 0 || c.c_loop_iterations < 0 then
          fail "chunk %d carries negative counts" c.c_id;
        if Array.length c.c_fired <> n_constraints then
          fail "chunk %d has %d fired counts but the file lists %d constraints"
            c.c_id (Array.length c.c_fired) n_constraints;
        c)
      (Jsonx.to_list "chunks" (Jsonx.member "chunks" json))
  in
  let chunks = List.sort (fun a b -> compare a.c_id b.c_id) chunks in
  let rec check_unique = function
    | a :: (b :: _ as rest) ->
      if a.c_id = b.c_id then fail "chunk id %d appears twice" a.c_id;
      check_unique rest
    | _ -> ()
  in
  check_unique chunks;
  let metrics =
    match Jsonx.member_opt "metrics" json with
    | None -> None
    | Some m -> (
      match Metrics.Snapshot.of_jsonx m with
      | Ok snap -> Some snap
      | Error msg -> fail "metrics: %s" msg)
  in
  {
    space = Jsonx.to_str "space" (Jsonx.member "space" json);
    run_id = Option.map (Jsonx.to_str "run_id") (Jsonx.member_opt "run_id" json);
    shard;
    n_chunks;
    constraints;
    chunks;
    metrics;
  }

let of_json text = Jsonx.decode ~what:"checkpoint" decode (Jsonx.parse text)
let of_file path = Jsonx.decode ~what:"checkpoint" decode (Jsonx.of_file path)

let run_metrics resume =
  let live = Option.map Metrics.snapshot (Beast_obs.Obs.current ()).metrics in
  match (Option.bind resume (fun t -> t.metrics), live) with
  | Some base, Some live ->
    (* Bucket-wise pooling; the grids always match (same build), so the
       merge cannot fail in practice. *)
    Some (Result.value ~default:live (Metrics.Snapshot.merge [ base; live ]))
  | base, None -> base
  | None, live -> live

(* Atomic (Jsonx.write_file): a crash or kill signal during the write
   leaves the previous complete checkpoint, never a truncated one. *)
let save path t = Jsonx.write_file path (Jsonx.pretty (to_jsonx t))

(* ------------------------------------------------------------------ *)
(* Resume validation                                                   *)
(* ------------------------------------------------------------------ *)

let validate ~(plan : Plan.t) ~(shard : Stats_io.shard) t =
  if t.space <> plan.Plan.space_name then
    Error
      (Printf.sprintf "checkpoint: file describes space %S, this run sweeps %S"
         t.space plan.Plan.space_name)
  else if t.shard <> shard then
    Error
      (Printf.sprintf
         "checkpoint: file was written by shard %d/%d, this run is shard %d/%d"
         t.shard.Stats_io.shard_index t.shard.Stats_io.shard_of
         shard.Stats_io.shard_index shard.Stats_io.shard_of)
  else if t.constraints <> header plan then
    Error
      "checkpoint: the file's constraint list does not match this space \
       (the space definition changed since the checkpoint was written)"
  else Ok ()
