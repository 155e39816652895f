(* The four workloads: the `beast` invocations one pass of each runs,
   the inputs they read, and how every output is checked against a
   reference that the engine under test did not produce. *)

open Beast_core

type file =
  | Gemm of { dim : int; skew : bool }
  | Stencil

type space =
  | Builtin of string  (** a space bundled with the CLI, by name *)
  | File of file  (** a generated [.beast] input *)

type op =
  | Sweep of {
      space : space;
      engine : string option;  (** [None]: the CLI default, staged *)
      shard : (int * int) option;
      stats_out : string option;
      explain_out : string option;
    }
  | Count of space
  | Sample of { space : space; n : int; seed : int }
  | Merge of { space : space; inputs : string list; out : string }
  | Explain of string
  | Engines

let file_key = function
  | Gemm { dim; skew } ->
    Printf.sprintf "gemm%d%s" dim (if skew then "-skew" else "")
  | Stencil -> "stencil"

let space_key = function Builtin name -> name | File f -> file_key f
let gemm dim = File (Gemm { dim; skew = false })

(* Sizes put a warm pass of each workload near 0.2 s on a 2-core
   x86-64 machine, so a 20 s run holds about 100 passes. *)
let ocaml_dim = 48
let skew_dim = 56
let native_dim = 120
let count_dim = 32
let sample_draws = 10_000
let ladder_dim = 24
let explain_dim = 20

let sweep ?engine space =
  let tag = Option.value engine ~default:"staged" in
  let tag = String.map (fun c -> if c = ':' then '-' else c) tag in
  Sweep
    {
      space;
      engine;
      shard = None;
      stats_out = Some (Printf.sprintf "%s.%s.json" (space_key space) tag);
      explain_out = None;
    }

let shuffle rng xs =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let ladder_engines = [ "interp"; "vm"; "staged"; "parallel:2"; "native" ]

(* Generated C cannot call back into the OCaml closures lu and fft are
   built from, so the native engine rejects them. *)
let native_rejects = [ "lu"; "fft" ]

let ladder_spaces =
  List.map (fun n -> Builtin n) [ "cholesky"; "trsm"; "lu"; "als"; "conv2d"; "fft" ]
  @ [ File Stencil; gemm ladder_dim ]

(* Shard, merge, explain-out and explain on a small space: the per-run
   paths a ladder of sub-millisecond sweeps is dominated by. *)
let shard_merge rng space =
  let key = space_key space in
  let shard_file i = Printf.sprintf "%s.shard%d.json" key i in
  let shard i =
    Sweep
      {
        space;
        engine = None;
        shard = Some (i, 2);
        stats_out = Some (shard_file i);
        explain_out = None;
      }
  in
  let merge =
    Merge
      {
        space;
        inputs = shuffle rng [ shard_file 0; shard_file 1 ];
        out = key ^ ".merged.json";
      }
  in
  [ shard 0; shard 1; merge ]

let explained space =
  let f = space_key space ^ ".explain.json" in
  [
    Sweep
      { space; engine = None; shard = None; stats_out = None; explain_out = Some f };
    Explain f;
  ]

let apps_ladder ~seed =
  let rng = Random.State.make [| seed |] in
  let sweeps =
    List.concat_map
      (fun space ->
        List.filter_map
          (fun e ->
            if e = "native" && List.mem (space_key space) native_rejects then None
            else Some [ sweep ~engine:e space ])
          ladder_engines)
      ladder_spaces
  in
  let units =
    sweeps
    @ [
        shard_merge rng (Builtin "conv2d");
        explained (gemm explain_dim);
        [ Engines ];
      ]
  in
  List.concat (shuffle rng units)

type t = {
  name : string;
  ops : seed:int -> op list;
}

let all =
  [
    {
      name = "gemm-ocaml";
      ops =
        (fun ~seed:_ ->
          [
            sweep (gemm ocaml_dim);
            sweep ~engine:"parallel:2"
              (File (Gemm { dim = skew_dim; skew = true }));
          ]);
    };
    {
      name = "gemm-native";
      ops = (fun ~seed:_ -> [ sweep ~engine:"native:2" (gemm native_dim) ]);
    };
    {
      name = "feasible";
      ops =
        (fun ~seed ->
          [
            Count (Builtin "synth");
            Count (gemm count_dim);
            Sample { space = Builtin "synth"; n = sample_draws; seed };
          ]);
    };
    { name = "apps-ladder"; ops = apps_ladder };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

(* The traced run takes each layer metric a workload's own pass does not
   exercise from this pass over the ladder's GEMM space. *)
let probe ~seed =
  let g = gemm ladder_dim in
  List.map (fun e -> sweep ~engine:e g) ladder_engines
  @ [ Count g; Sample { space = Builtin "synth"; n = 1000; seed } ]
  @ shard_merge (Random.State.make [| seed |]) g
  @ explained g

(* ------------------------------------------------------------------ *)
(* Command lines and inputs                                            *)
(* ------------------------------------------------------------------ *)

let argv ~input ~out op =
  let space_arg = function Builtin n -> n | File f -> input f in
  let opt flag = function None -> [] | Some v -> [ flag; v ] in
  match op with
  | Sweep s ->
    [ "sweep"; space_arg s.space ]
    @ opt "--engine" s.engine
    @ opt "--shard" (Option.map (fun (i, n) -> Printf.sprintf "%d/%d" i n) s.shard)
    @ opt "--stats-out" (Option.map out s.stats_out)
    @ opt "--explain-out" (Option.map out s.explain_out)
  | Count space -> [ "count"; space_arg space ]
  | Sample { space; n; seed } ->
    [ "sample"; space_arg space; "-n"; string_of_int n ]
    @ [ "--seed"; string_of_int seed ]
  | Merge { inputs; out = o; _ } ->
    ("merge" :: List.map out inputs) @ [ "--stats-out"; out o ]
  | Explain f -> [ "explain"; out f ]
  | Engines -> [ "engines" ]

let label op =
  String.concat " " (argv ~input:(fun f -> file_key f ^ ".beast") ~out:Fun.id op)

let files ops =
  List.sort_uniq compare
    (List.concat_map
       (function
         | Sweep { space = File f; _ }
         | Count (File f)
         | Sample { space = File f; _ } ->
           [ f ]
         | _ -> [])
       ops)

(* The device settings of the scaled K40c GEMM file, replaced by a grid
   of [dim] x [dim] threads and 4 * [dim] threads per block. *)
let gemm_source ~template ~dim ~skew =
  let value = function "max_threads_per_block" -> 4 * dim | _ -> dim in
  let names =
    [ "max_threads_dim_x"; "max_threads_dim_y"; "max_threads_per_block" ]
  in
  let replaced = ref [] in
  let line l =
    match
      List.find_opt
        (fun n -> String.starts_with ~prefix:(Printf.sprintf "setting %s =" n) l)
        names
    with
    | Some n ->
      replaced := n :: !replaced;
      Printf.sprintf "setting %s = %d" n (value n)
    | None -> l
  in
  let body =
    String.concat "\n" (List.map line (String.split_on_char '\n' template))
  in
  List.iter
    (fun n ->
      if not (List.mem n !replaced) then
        failwith (Printf.sprintf "GEMM template has no 'setting %s =' line" n))
    names;
  if skew then body ^ "\nconstraint hard skew_blocking = dim_m % 4 != 0\n" else body

let source ~template ~stencil = function
  | Gemm { dim; skew } -> gemm_source ~template ~dim ~skew
  | Stencil -> stencil

(* ------------------------------------------------------------------ *)
(* Output checks                                                       *)
(* ------------------------------------------------------------------ *)

(* The space whose reference stats check an op: the stats a sweep or a
   merge writes must equal them byte for byte, and a [Count] of a file
   must print their survivor count. *)
let ref_space = function
  | Sweep { space; shard = None; stats_out = Some _; _ }
  | Merge { space; _ }
  | Count (File _ as space) ->
    Some space
  | _ -> None

let ref_key op = Option.map space_key (ref_space op)
let ref_keys ops = List.sort_uniq compare (List.filter_map ref_key ops)

let ( let* ) = Result.bind

let find_ref refs key =
  match List.assoc_opt key refs with
  | Some r -> Ok r
  | None -> Error (Printf.sprintf "no reference stats for %s" key)

let same_bytes ~expected actual =
  match actual with
  | None -> Error "output file missing"
  | Some a when a = expected -> Ok ()
  | Some a ->
    let n = min (String.length a) (String.length expected) in
    let rec first i = if i < n && a.[i] = expected.[i] then first (i + 1) else i in
    Error (Printf.sprintf "stats differ from the reference at byte %d" (first 0))

let printed_int stdout =
  match int_of_string_opt (String.trim stdout) with
  | Some n -> Ok n
  | None -> Error (Printf.sprintf "expected one integer, got %S" stdout)

let expect_count ~expected stdout =
  let* n = printed_int stdout in
  if n = expected then Ok ()
  else Error (Printf.sprintf "count %d, expected %d" n expected)

(* Membership in the default synth space, checked from its definition
   rather than through the library: four non-decreasing links in
   [0, 256) and an even parity p in [0, 16). *)
let synth_point line =
  let fields =
    List.map
      (fun tok ->
        match String.index_opt tok '=' with
        | Some i ->
          ( String.sub tok 0 i,
            int_of_string_opt (String.sub tok (i + 1) (String.length tok - i - 1)) )
        | None -> (tok, None))
      (String.split_on_char ' ' line)
  in
  let get k = Option.join (List.assoc_opt k fields) in
  let links = List.init 4 (fun i -> get (Printf.sprintf "link%d" i)) in
  let rec ordered = function
    | a :: (b :: _ as rest) -> a <= b && ordered rest
    | _ -> true
  in
  List.length fields = 5
  && List.for_all Option.is_some links
  &&
  let links = List.map Option.get links in
  List.for_all (fun v -> v >= 0 && v < 256) links
  && ordered links
  && match get "p" with Some p -> p >= 0 && p < 16 && p mod 2 = 0 | None -> false

let expect_samples ~n stdout =
  let lines = List.filter (( <> ) "") (String.split_on_char '\n' stdout) in
  if List.length lines <> n then
    Error (Printf.sprintf "%d sample lines, expected %d" (List.length lines) n)
  else
    match List.find_opt (fun l -> not (synth_point l)) lines with
    | Some l -> Error (Printf.sprintf "sample %S is not in the synth space" l)
    | None -> Ok ()

let explain_sections =
  [
    "constraint waterfall";
    "cost vs selectivity";
    "dead outer ranges";
    "survival funnel by depth";
  ]

let expect_lines_starting prefixes stdout =
  let lines = String.split_on_char '\n' stdout in
  match
    List.find_opt
      (fun p -> not (List.exists (String.starts_with ~prefix:p) lines))
      prefixes
  with
  | Some p -> Error (Printf.sprintf "no line starts with %S" p)
  | None -> Ok ()

(* [read] returns an output file's contents by its name in the op. *)
let check ~refs ~read ~stdout op =
  match op with
  | Sweep { shard = None; stats_out = Some f; _ } | Merge { out = f; _ } ->
    let* key = Option.to_result ~none:"no reference" (ref_key op) in
    let* expected = find_ref refs key in
    same_bytes ~expected (read f)
  | Sweep _ ->
    (* Shard and explain files are checked by the merge and the explain
       that read them. *)
    Ok ()
  | Count (Builtin "synth") ->
    expect_count ~expected:(Beast_kernels.Synth.expected_survivors ()) stdout
  | Count space ->
    let* r = find_ref refs (space_key space) in
    let* stats = Stats_io.of_json r in
    expect_count ~expected:stats.Stats_io.survivors stdout
  | Sample { space = Builtin "synth"; n; _ } -> expect_samples ~n stdout
  | Sample { space; _ } ->
    Error (Printf.sprintf "no membership check for samples of %s" (space_key space))
  | Explain _ -> expect_lines_starting explain_sections stdout
  | Engines -> expect_lines_starting Engine_registry.names stdout

(* Loop iterations behind an op's checked output: a sweep's from its
   reference stats, and for a count the iterations the sweep it stands
   in for would take. 0 for ops with no reference. *)
let iterations ~refs op =
  match ref_key op with
  | None -> 0
  | Some key -> (
    match Result.bind (find_ref refs key) Stats_io.of_json with
    | Ok s -> s.Stats_io.loop_iterations
    | Error _ -> 0)
