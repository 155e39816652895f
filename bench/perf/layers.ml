(* The traced run: a workload's pass replayed in-process, each
   invocation doing what `beast` does for it, with a span around every
   call into a layer's public functions. Spans stay in this process's
   memory and are written as one Chrome trace at the end.

   No Obs sink, Metrics registry or Provenance collector is installed
   (except the collector inside the provenance span): any of them would
   switch the engines onto their instrumented paths. *)

open Beast_core
open Beast_kernels
open Beast_gpu
open Beast_obs
module W = Workload

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

type span = {
  id : int;
  name : string;
  parent : int;  (** -1 at the root *)
  pass : int;
  t0 : int;
  t1 : int;
  glue : bool;  (** a pass or invocation wrapper, not a layer *)
}

type recorder = {
  mutable spans : span list;
  mutable next : int;
  mutable stack : int list;
  mutable pass : int;
}

let rec_ = { spans = []; next = 0; stack = []; pass = 0 }

let span ?(glue = false) name f =
  let id = rec_.next in
  rec_.next <- id + 1;
  let parent = match rec_.stack with p :: _ -> p | [] -> -1 in
  rec_.stack <- id :: rec_.stack;
  let t0 = Clock.now_ns () in
  Fun.protect f ~finally:(fun () ->
      let t1 = Clock.now_ns () in
      rec_.stack <- List.tl rec_.stack;
      rec_.spans <-
        { id; name; parent; pass = rec_.pass; t0; t1; glue } :: rec_.spans)

let chrome_trace spans =
  let origin = List.fold_left (fun m s -> min m s.t0) max_int spans in
  let us ns = Jsonx.Float (float_of_int ns /. 1e3) in
  let int i = Jsonx.Int i in
  let event s =
    Jsonx.Obj
      [
        ("name", Jsonx.Str s.name);
        ("cat", Jsonx.Str (if s.glue then "invocation" else "layer"));
        ("ph", Jsonx.Str "X");
        ("ts", us (s.t0 - origin));
        ("dur", us (s.t1 - s.t0));
        ("pid", int 1);
        ("tid", int s.pass);
        ( "args",
          Jsonx.Obj
            [ ("id", int s.id); ("parent", int s.parent); ("pass", int s.pass) ]
        );
      ]
  in
  Jsonx.to_string
    (Jsonx.Obj
       [
         ("traceEvents", Jsonx.Arr (List.rev_map event spans));
         ("displayTimeUnit", Jsonx.Str "ms");
       ])

let add tbl k v =
  Hashtbl.replace tbl k (v + Option.value (Hashtbl.find_opt tbl k) ~default:0)

(* Per (pass, span name) of the layer spans: summed self time (duration
   minus the part its child spans cover) and summed duration, in
   nanoseconds. *)
let aggregate spans =
  let children = Hashtbl.create 64 in
  List.iter (fun s -> add children s.parent (s.t1 - s.t0)) spans;
  let self = Hashtbl.create 64 and total = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if not s.glue then begin
        let d = s.t1 - s.t0 in
        let c = Option.value (Hashtbl.find_opt children s.id) ~default:0 in
        add self (s.pass, s.name) (d - c);
        add total (s.pass, s.name) d
      end)
    spans;
  (self, total)

(* ------------------------------------------------------------------ *)
(* Replay                                                              *)
(* ------------------------------------------------------------------ *)

type ctx = {
  input : W.file -> string;  (** path of a generated [.beast] input *)
  out_dir : string;
  native_dir : string;  (** the native engine's binary cache *)
  scratch : string;
}

(* What one pass did, as counts, and the plans the layer probes rerun. *)
type facts = {
  mutable loops : int;
  mutable dead_points : int;
  mutable staged_iters : int;
  mutable vm_instructions : int;
  mutable parallel : (Plan.t * int) list;
  mutable native : (Plan.t * int) list;
  mutable feasible : (Plan.t * Feasible.t) list;
  mutable draws : int;
  mutable explained : Plan.t list;
  mutable stats_bytes : int;
}

let no_facts () =
  {
    loops = 0;
    dead_points = 0;
    staged_iters = 0;
    vm_instructions = 0;
    parallel = [];
    native = [];
    feasible = [];
    draws = 0;
    explained = [];
    stats_bytes = 0;
  }

(* The CLI's defaults for bundled spaces: device k40c scaled to
   --max-dim 32 --max-threads 128. *)
let builtin name =
  let device =
    Device.scale ~max_dim:32 ~max_threads:128
      (Option.get (Device.find "k40c"))
  in
  match name with
  | "cholesky" ->
    Cholesky_batched.space
      ~workload:
        { Cholesky_batched.default_workload with Cholesky_batched.device }
      ()
  | "trsm" ->
    Trsm_batched.space
      ~workload:{ Trsm_batched.default_workload with Trsm_batched.device }
      ()
  | "lu" ->
    Lu_batched.space
      ~workload:{ Lu_batched.default_workload with Lu_batched.device }
      ()
  | "als" -> Als.space ~workload:{ Als.default_workload with Als.device } ()
  | "conv2d" ->
    Conv2d.space ~workload:{ Conv2d.default_workload with Conv2d.device } ()
  | "fft" -> Fft.space ~max_size:64 ()
  | "synth" -> Synth.space ()
  | other -> invalid_arg ("Layers.builtin: " ^ other)

let rec loop_count steps =
  List.fold_left
    (fun n -> function Plan.Loop l -> n + 1 + loop_count l.l_body | _ -> n)
    0 steps

let ok = function Ok v -> v | Error msg -> failwith msg

let load ctx facts space =
  let plan =
    match space with
    | W.File f ->
      let sp =
        span "parse" (fun () ->
            match Beast_dsl.Parse.space_of_file (ctx.input f) with
            | Ok sp -> sp
            | Error e ->
              failwith (Format.asprintf "%a" Beast_dsl.Parse.pp_error e))
      in
      span "plan" (fun () -> Plan.make_exn sp)
    | W.Builtin name -> span "plan" (fun () -> Plan.make_exn (builtin name))
  in
  facts.loops <- facts.loops + loop_count plan.Plan.steps;
  plan

let propagate facts plan =
  let p =
    span "propagate" (fun () -> Plan.optimize ~passes:[ Propagate.pass ] plan)
  in
  facts.dead_points <- facts.dead_points + Plan.static_pruned p;
  p

let engine_spec engine =
  match String.split_on_char ':' (Option.value engine ~default:"staged") with
  | [ base ] -> (base, 1)
  | [ base; k ] -> (base, int_of_string k)
  | _ -> invalid_arg "Layers.engine_spec"

let parallel ~domains plan =
  match Engine_parallel.run_resumable ~domains plan with
  | Engine_intf.Finished stats -> stats
  | Engine_intf.Interrupted _ -> failwith "parallel sweep interrupted"

(* One sweep on the engine the CLI would pick for [engine], the same
   entry points [beast sweep] reaches through the registry. With
   [traced] false no spans are recorded: the provenance span times the
   whole call, and passes a throwaway [facts]. *)
let run_engine ?(traced = true) ctx facts engine plan =
  let sp name f = if traced then span name f else f () in
  match engine_spec engine with
  | "staged", _ ->
    let st = sp "staged.run" (fun () -> Engine_staged.run plan) in
    facts.staged_iters <- facts.staged_iters + st.Engine.loop_iterations;
    st
  | "interp", _ -> sp "interp.run" (fun () -> Engine_interp.run_plan plan)
  | "vm", _ ->
    let prog = sp "vm.compile" (fun () -> Engine_vm.compile plan) in
    facts.vm_instructions <-
      facts.vm_instructions + Engine_vm.instruction_count prog;
    sp "vm.run" (fun () -> Engine_vm.run prog)
  | "parallel", domains ->
    facts.parallel <- (plan, domains) :: facts.parallel;
    sp "parallel.run" (fun () -> parallel ~domains plan)
  | "native", threads ->
    facts.native <- (plan, threads) :: facts.native;
    sp "native.run" (fun () ->
        Engine_native.run ~workdir:ctx.native_dir ~threads plan)
  | base, _ -> invalid_arg ("Layers.run_engine: " ^ base)

let write_stats ctx facts name record =
  let path = Filename.concat ctx.out_dir name in
  span "stats_io.write" (fun () -> Stats_io.write_file path record);
  facts.stats_bytes <- facts.stats_bytes + (Unix.stat path).Unix.st_size

let read_stats ctx name =
  span "stats_io.read" (fun () ->
      ok (Stats_io.of_file (Filename.concat ctx.out_dir name)))

let output f = span "cli.output" (fun () -> Format.asprintf "%t" f)

let build facts plan =
  let f = span "feasible.build" (fun () -> ok (Feasible.build plan)) in
  facts.feasible <- (plan, f) :: facts.feasible;
  f

let print_point ppf point =
  Format.fprintf ppf "%s@."
    (String.concat " "
       (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) point))

(* Returns what the invocation prints on stdout. *)
let replay ctx facts op =
  match op with
  | W.Sweep s ->
    let plan = load ctx facts s.space in
    let sharded, shard =
      match s.shard with
      | None -> (plan, Stats_io.unsharded)
      | Some (index, of_) ->
        ( span "plan" (fun () -> Plan.chunk_outer plan ~index ~of_),
          { Stats_io.shard_index = index; shard_of = of_ } )
    in
    let run_plan = propagate facts sharded in
    let stats, provenance =
      match s.explain_out with
      | None -> (run_engine ctx facts s.engine run_plan, None)
      | Some _ ->
        facts.explained <- run_plan :: facts.explained;
        let stats, summary =
          span "provenance" (fun () ->
              Provenance.with_collector (fun () ->
                  run_engine ~traced:false ctx (no_facts ()) s.engine run_plan))
        in
        (stats, Some summary)
    in
    let printed = output (fun ppf -> Engine.pp_stats ppf stats) in
    List.iter
      (fun name ->
        write_stats ctx facts name
          (Stats_io.of_stats ~plan ~shard ?provenance stats))
      (Option.to_list s.stats_out @ Option.to_list s.explain_out);
    printed
  | W.Count space ->
    let f = build facts (propagate facts (load ctx facts space)) in
    let n = span "feasible.count" (fun () -> Feasible.count f) in
    output (fun ppf -> Format.fprintf ppf "%d@." n)
  | W.Sample { space; n; seed } ->
    let f = build facts (propagate facts (load ctx facts space)) in
    let rng = Random.State.make [| seed |] in
    let points =
      span "feasible.sample" (fun () ->
          List.init n (fun _ -> Feasible.sample ~rng f))
    in
    facts.draws <- facts.draws + n;
    output (fun ppf -> List.iter (Option.iter (print_point ppf)) points)
  | W.Merge { inputs; out; _ } ->
    let shards = List.map (read_stats ctx) inputs in
    let merged =
      span "stats_io.merge" (fun () -> ok (Stats_io.merge shards))
    in
    let printed =
      output (fun ppf -> Engine.pp_stats ppf (Stats_io.to_stats merged))
    in
    write_stats ctx facts out merged;
    printed
  | W.Explain f ->
    let r = read_stats ctx f in
    span "explain" (fun () ->
        let buf = Buffer.create 4096 in
        let ppf = Format.formatter_of_buffer buf in
        ok (Explain.write ppf r);
        Format.pp_print_flush ppf ();
        Buffer.contents buf)
  | W.Engines ->
    output (fun ppf ->
        List.iter
          (fun e ->
            Format.fprintf ppf "%s  %s@." e.Engine_registry.e_spec
              e.Engine_registry.e_descr)
          Engine_registry.catalog)

(* Replays [ops] as pass [pass]; returns its facts and the failed
   checks, one line each. *)
let replay_pass ctx ~refs ~pass ops =
  rec_.pass <- pass;
  let facts = no_facts () in
  let read f = Proc.read_file (Filename.concat ctx.out_dir f) in
  let failures = ref [] in
  span ~glue:true "pass" (fun () ->
      List.iter
        (fun op ->
          let result =
            match span ~glue:true (W.label op) (fun () -> replay ctx facts op) with
            | stdout -> W.check ~refs ~read ~stdout op
            | exception e -> Error (Printexc.to_string e)
          in
          Result.iter_error
            (fun msg -> failures := (W.label op ^ ": " ^ msg) :: !failures)
            result)
        ops);
  (facts, List.rev !failures)

(* ------------------------------------------------------------------ *)
(* Layer metrics                                                       *)
(* ------------------------------------------------------------------ *)

let repeats = 5

(* Traced passes of the workload itself, each paired with an untraced
   one: five pairs left trace.coverage anywhere between 0.77 and 1.02
   on gemm-ocaml. *)
let traced_passes = 11

(* Median over [repeats] runs of [f], which returns seconds. *)
let median_of f = Pstats.median (List.init repeats (fun _ -> f ()))

(* Seconds [f] takes over all of [xs]. *)
let sum_time f xs =
  List.fold_left
    (fun acc x ->
      let t0 = Clock.now_ns () in
      ignore (f x);
      acc +. Clock.elapsed_s ~since:t0)
    0.0 xs

type source = {
  facts : facts;
  passes : int list;
  self : (int * string, int) Hashtbl.t;
  total : (int * string, int) Hashtbl.t;
}

let has src name =
  List.exists (fun p -> Hashtbl.mem src.self (p, name)) src.passes

let per_pass tbl passes name =
  Pstats.median
    (List.map
       (fun p ->
         Clock.ns_to_s (Option.value (Hashtbl.find_opt tbl (p, name)) ~default:0))
       passes)

let self_s src name = per_pass src.self src.passes name
let total_s src name = per_pass src.total src.passes name

let iterations plan = (Engine_staged.run plan).Engine.loop_iterations

(* Share of the loop iterations of the pass's largest parallel plan held
   by the largest of the chunks the work-stealing scheduler cuts it
   into. *)
let max_chunk_share_pct plans =
  let sized = List.map (fun pd -> (iterations (fst pd), pd)) plans in
  let _, (plan, domains) =
    List.fold_left
      (fun best x -> if fst x > fst best then x else best)
      (List.hd sized) sized
  in
  let n = domains * Engine_parallel.default_chunks_per_domain in
  let chunks =
    List.init n (fun index -> iterations (Plan.chunk_outer plan ~index ~of_:n))
  in
  100.0
  *. float_of_int (List.fold_left max 0 chunks)
  /. float_of_int (max 1 (List.fold_left ( + ) 0 chunks))

(* [Engine_native.compile] of every native plan into an empty workdir,
   then again as a cache hit: medians of [repeats] rounds. *)
let native_compile ctx plans =
  let compile dir (plan, threads) =
    Engine_native.compile ~workdir:dir ~threads plan
  in
  let rounds =
    List.init repeats (fun i ->
        let dir = Filename.concat ctx.scratch (Printf.sprintf "cc%d" i) in
        Proc.fresh_dir dir;
        let cc = sum_time (compile dir) plans in
        let hit = sum_time (compile dir) plans in
        Proc.rm_rf dir;
        (cc, hit))
  in
  (Pstats.median (List.map fst rounds), Pstats.median (List.map snd rounds))

(* Every per-layer metric of a traced workload, as (name, unit, value).
   A metric comes from the workload's own passes when they call the
   layer, and from the probe passes otherwise. *)
let metrics ctx ~own ~probe ~invocations ~startup_s ~untraced =
  let pick name = if has own name then own else probe in
  let count n = float_of_int n in
  let bytes f xs = count (List.fold_left (fun n x -> n + String.length (f x)) 0 xs) in
  let staged_of plans = median_of (fun () -> sum_time Engine_staged.run plans) in
  let plan = pick "plan" and prop = pick "propagate" in
  let staged = pick "staged.run" and par = pick "parallel.run" in
  let vm = pick "vm.compile" and nat = pick "native.run" in
  let feas = pick "feasible.build" and samp = pick "feasible.sample" in
  let prov = pick "provenance" and wr = pick "stats_io.write" in
  let parallel_s = self_s par "parallel.run" in
  let domains = snd (List.hd par.facts.parallel) in
  let codegen (p, threads) = Codegen_c.generate_exn ~threads p in
  let cc_s, cache_hit_s = native_compile ctx nat.facts.native in
  (* The propagation bound exists only where every iterator is static
     (synth, not GEMM). *)
  let bounded =
    List.filter
      (fun p -> Result.is_ok (Feasible.of_propagation p))
      (List.map fst feas.facts.feasible)
  in
  let bound p = Feasible.count (ok (Feasible.of_propagation p)) in
  (* Each traced pass against the untraced pass run just before it. *)
  let coverage =
    Pstats.median
      (List.map
         (fun p ->
           let layers =
             Hashtbl.fold
               (fun (p', _) ns acc -> if p' = p then acc + ns else acc)
               own.self 0
           in
           (Clock.ns_to_s layers +. (float_of_int invocations *. startup_s))
           /. List.assoc p untraced)
         own.passes)
  in
  [
    ("cli.startup_s", "s", startup_s);
    ("parse.s", "s", self_s (pick "parse") "parse");
    ("plan.s", "s", self_s plan "plan");
    ("plan.loops", "count", count plan.facts.loops);
    ("propagate.s", "s", self_s prop "propagate");
    ("propagate.dead_points", "count", count prop.facts.dead_points);
    ("staged.run_s", "s", self_s staged "staged.run");
    ( "staged.iters_per_s",
      "1/s",
      count staged.facts.staged_iters /. self_s staged "staged.run" );
    ("parallel.run_s", "s", parallel_s);
    ( "parallel.efficiency",
      "ratio",
      staged_of (List.map fst par.facts.parallel)
      /. (float_of_int domains *. parallel_s) );
    ( "parallel.max_chunk_share_pct",
      "%",
      max_chunk_share_pct par.facts.parallel );
    ("vm.compile_s", "s", self_s vm "vm.compile");
    ("vm.run_s", "s", self_s vm "vm.run");
    ("vm.instructions", "count", count vm.facts.vm_instructions);
    ("interp.run_s", "s", self_s (pick "interp.run") "interp.run");
    ("codegen_c.s", "s", median_of (fun () -> sum_time codegen nat.facts.native));
    ("codegen_c.bytes", "bytes", bytes codegen nat.facts.native);
    ("native.cc_s", "s", cc_s);
    ("native.cache_hit_s", "s", cache_hit_s);
    ("native.exec_s", "s", self_s nat "native.run" -. cache_hit_s);
    ("feasible.build_s", "s", self_s feas "feasible.build");
    ("feasible.count_s", "s", self_s (pick "feasible.count") "feasible.count");
    ("feasible.bound_s", "s", median_of (fun () -> sum_time bound bounded));
    ( "feasible.sample_us",
      "us",
      1e6 *. self_s samp "feasible.sample" /. count samp.facts.draws );
    ( "feasible.bytes",
      "bytes",
      bytes (fun (_, f) -> Feasible.to_string f) feas.facts.feasible );
    ( "provenance.overhead_x",
      "x",
      total_s prov "provenance" /. staged_of prov.facts.explained );
    ("stats_io.write_s", "s", self_s wr "stats_io.write");
    ("stats_io.read_s", "s", self_s (pick "stats_io.read") "stats_io.read");
    ("stats_io.merge_s", "s", self_s (pick "stats_io.merge") "stats_io.merge");
    ("stats_io.bytes", "bytes", count wr.facts.stats_bytes);
    ("trace.coverage", "ratio", coverage);
  ]

(* Replays [ops] [traced_passes] times and the probe passes [repeats]
   times, after one untimed warm-up of each, and derives every layer
   metric. [untraced ()] runs one pass of [ops] as `beast` processes and
   returns its wall time; one runs just before each traced pass, so
   that both see the same spell of a shared machine. [startup_s] is the
   process start of one invocation. Writes the spans of the timed
   replays to [trace_file]; returns the metrics, the median untraced
   pass, the number of replayed invocations and the failed checks. *)
let run ctx ~refs ~ops ~probe_ops ~untraced ~startup_s ~trace_file =
  let failures = ref [] in
  let attempted = ref 0 in
  let pass ~pass ops =
    let facts, failed = replay_pass ctx ~refs ~pass ops in
    failures := !failures @ failed;
    attempted := !attempted + List.length ops;
    facts
  in
  ignore (pass ~pass:0 ops);
  ignore (pass ~pass:0 probe_ops);
  rec_.spans <- [];
  let own_passes = List.init traced_passes (fun i -> i + 1) in
  let probe_passes = List.init repeats (fun i -> i + 101) in
  let paired =
    List.map
      (fun p ->
        let u = untraced () in
        (p, u, pass ~pass:p ops))
      own_passes
  in
  let untraced = List.map (fun (p, u, _) -> (p, u)) paired in
  let own_facts = (fun (_, _, f) -> f) (List.hd paired) in
  let probe_facts = List.hd (List.map (fun p -> pass ~pass:p probe_ops) probe_passes) in
  let spans = rec_.spans in
  Proc.write_file trace_file (chrome_trace spans);
  let self, total = aggregate spans in
  let source facts passes = { facts; passes; self; total } in
  let metrics =
    metrics ctx
      ~own:(source own_facts own_passes)
      ~probe:(source probe_facts probe_passes)
      ~invocations:(List.length ops) ~startup_s ~untraced
  in
  (metrics, Pstats.median (List.map snd untraced), !attempted, !failures)
