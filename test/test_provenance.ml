open Beast_core

let contains haystack needle =
  let n = String.length haystack and m = String.length needle in
  let rec go i = i + m <= n && (String.sub haystack i m = needle || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Attribution kinds on hand-built spaces                              *)
(* ------------------------------------------------------------------ *)

let rec find_loop_slot var = function
  | [] -> None
  | Plan.Loop { l_var; l_slot; l_body; _ } :: rest ->
    if l_var = var then Some l_slot
    else (
      match find_loop_slot var l_body with
      | Some s -> Some s
      | None -> find_loop_slot var rest)
  | _ :: rest -> find_loop_slot var rest

let c_index plan name =
  let found = ref (-1) in
  Array.iteri
    (fun i (n, _) -> if n = name then found := i)
    plan.Plan.constraint_info;
  if !found < 0 then Alcotest.failf "constraint %s not in plan" name;
  !found

(* Literal loop bounds below both checks: both subtree products are
   plan-time constants. *)
let test_attribution_static () =
  let open Expr.Infix in
  let sp = Space.create ~name:"static" () in
  Space.iterator sp "a" (Iter.range_i 0 4);
  Space.constrain sp "ca" (Expr.var "a" >: Expr.int 10);
  Space.iterator sp "b" (Iter.range_i 0 3);
  Space.constrain sp "cb" (Expr.var "b" >: Expr.int 10);
  let plan = Plan.make_exn sp in
  let at = Provenance.attribution plan in
  (match Provenance.removal_of at (c_index plan "ca") with
  | Provenance.Static 3 -> ()
  | _ -> Alcotest.fail "ca should remove a static 3-point subtree");
  match Provenance.removal_of at (c_index plan "cb") with
  | Provenance.Static 1 -> ()
  | _ -> Alcotest.fail "cb is innermost: static 1"

(* The inner loop's stop bound reads the outer variable, so the product
   must be evaluated from the slots live at each firing. *)
let test_attribution_dynamic () =
  let open Expr.Infix in
  let sp = Space.create ~name:"dyn" () in
  Space.iterator sp "a" (Iter.range_i 0 5);
  Space.constrain sp "ca" (Expr.var "a" >: Expr.int 10);
  Space.iterator sp "c" (Iter.range (Expr.int 0) (Expr.var "a"));
  let plan = Plan.make_exn sp in
  let at = Provenance.attribution plan in
  match Provenance.removal_of at (c_index plan "ca") with
  | Provenance.Dyn f ->
    let slot =
      match find_loop_slot "a" plan.Plan.steps with
      | Some s -> s
      | None -> Alcotest.fail "loop a has no slot"
    in
    let slots = Array.make plan.Plan.n_slots 0 in
    slots.(slot) <- 3;
    Alcotest.(check int) "subtree under a=3" 3 (f slots);
    slots.(slot) <- 0;
    Alcotest.(check int) "empty subtree under a=0" 0 (f slots)
  | _ -> Alcotest.fail "ca guards a data-dependent subtree: Dyn"

(* A closure iterator below a check that fires (a = 3, 4). *)
let inexact_space () =
  let open Expr.Infix in
  let sp = Space.create ~name:"inexact" () in
  Space.iterator sp "a" (Iter.range_i 1 5);
  Space.constrain sp "ca" (Expr.var "a" >: Expr.int 2);
  Space.iterator sp "z"
    (Iter.closure ~deps:[ "a" ] (fun env ->
         let a = Value.to_int (env "a") in
         List.to_seq (List.init a (fun i -> Value.Int i))));
  sp

(* A closure iterator below the check is opaque: no exact count without
   sweeping. *)
let test_attribution_inexact () =
  let plan = Plan.make_exn (inexact_space ()) in
  let at = Provenance.attribution plan in
  match Provenance.removal_of at (c_index plan "ca") with
  | Provenance.Inexact -> ()
  | _ -> Alcotest.fail "closure iterator below the check must be Inexact"

(* What [beast sweep --explain-out] writes: the stats file with the
   provenance section. Like the CLI, a shard chunks the plan before
   propagating it. *)
let run_io ?(propagate = false) ?shard sp =
  let plan = Plan.make_exn sp in
  let chunk, shard_info =
    match shard with
    | None -> (plan, Stats_io.unsharded)
    | Some (index, of_) ->
      ( Plan.chunk_outer plan ~index ~of_,
        { Stats_io.shard_index = index; shard_of = of_ } )
  in
  let run_plan = if propagate then Propagate.pass chunk else chunk in
  let stats, summary =
    Provenance.with_collector (fun () -> Engine_staged.run run_plan)
  in
  Stats_io.of_stats ~plan ~shard:shard_info ~provenance:summary stats

(* ------------------------------------------------------------------ *)
(* Single-pass funnel == n+1 prefix sweeps                             *)
(* ------------------------------------------------------------------ *)

let check_funnels_agree label (a : Stats.funnel) (b : Stats.funnel) =
  Alcotest.(check string) (label ^ ": space") a.Stats.space b.Stats.space;
  Alcotest.(check int) (label ^ ": total") a.Stats.total_points
    b.Stats.total_points;
  Alcotest.(check int) (label ^ ": survivors") a.Stats.survivors
    b.Stats.survivors;
  Alcotest.(check int) (label ^ ": row count")
    (List.length a.Stats.rows)
    (List.length b.Stats.rows);
  List.iter2
    (fun (ra : Stats.row) (rb : Stats.row) ->
      Alcotest.(check string) (label ^ ": row name") ra.Stats.constraint_name
        rb.Stats.constraint_name;
      Alcotest.(check int)
        (label ^ ": depth " ^ ra.Stats.constraint_name)
        ra.Stats.depth rb.Stats.depth;
      Alcotest.(check int)
        (label ^ ": fired " ^ ra.Stats.constraint_name)
        ra.Stats.fired rb.Stats.fired;
      Alcotest.(check (option int))
        (label ^ ": removed " ^ ra.Stats.constraint_name)
        ra.Stats.removed rb.Stats.removed)
    a.Stats.rows b.Stats.rows

let scaled_device = Beast_gpu.Device.scale ~max_dim:8 ~max_threads:64

let gemm_space () =
  let settings =
    {
      Beast_kernels.Gemm.default_settings with
      Beast_kernels.Gemm.device = scaled_device Beast_gpu.Device.tesla_k40c;
    }
  in
  Beast_kernels.Gemm.space ~settings ()

let conv2d_space () =
  let workload =
    {
      Beast_kernels.Conv2d.default_workload with
      Beast_kernels.Conv2d.device = scaled_device Beast_gpu.Device.tesla_k40c;
    }
  in
  Beast_kernels.Conv2d.space ~workload ()

let test_single_pass_triangle () =
  let sp () = Support.triangle_space () in
  check_funnels_agree "triangle" (Stats.prefix_sweeps (sp ()))
    (Stats.funnel (sp ()))

(* A closure iterator below a firing check leaves that row inexact after
   one provenance sweep, so Stats.funnel must fall back to the prefix
   sweeps. (Support.mixed_space's closure iterator sits above both of
   its checks, so its attribution is exact.) *)
let test_single_pass_fallback () =
  let sp () = inexact_space () in
  (match Stats.of_run (run_io (sp ())) with
  | Ok f ->
    Alcotest.(check bool) "one provenance sweep leaves a row inexact" true
      (List.exists (fun (r : Stats.row) -> r.Stats.removed = None) f.Stats.rows)
  | Error e -> Alcotest.failf "of_run failed: %s" e);
  let f = Stats.funnel (sp ()) in
  List.iter
    (fun (r : Stats.row) ->
      Alcotest.(check bool) ("exact " ^ r.Stats.constraint_name) true
        (r.Stats.removed <> None))
    f.Stats.rows;
  check_funnels_agree "inexact" (Stats.prefix_sweeps (sp ())) f

let test_single_pass_gemm () =
  check_funnels_agree "gemm"
    (Stats.prefix_sweeps (gemm_space ()))
    (Stats.funnel (gemm_space ()))

let test_single_pass_conv2d () =
  check_funnels_agree "conv2d"
    (Stats.prefix_sweeps (conv2d_space ()))
    (Stats.funnel (conv2d_space ()))

(* ------------------------------------------------------------------ *)
(* Oracle: first-rejecting-constraint attribution by brute force       *)
(* ------------------------------------------------------------------ *)

(* Constraint indices in the plan's evaluation (pre-)order. *)
let check_order (plan : Plan.t) =
  let rec walk acc = function
    | [] -> acc
    | Plan.Check { c_index; _ } :: rest -> walk (c_index :: acc) rest
    | Plan.Loop { l_body; _ } :: rest -> walk (walk acc l_body) rest
    | (Plan.Derive _ | Plan.Static_prune _ | Plan.Yield) :: rest -> walk acc rest
  in
  List.rev (walk [] plan.Plan.steps)

(* Every point of the unconstrained product, charged to the first
   constraint in evaluation order that rejects it: per-constraint
   removals by name, survivors and the product's size. Iterators bind
   in the plan's loop order, and every derived value is computed at the
   full point — an evaluation independent of the engines and of the
   plan's hoisting. *)
let brute_attribution space (plan : Plan.t) =
  let env : (string, Value.t) Hashtbl.t = Hashtbl.create 16 in
  List.iter (fun (n, v) -> Hashtbl.replace env n v) (Space.settings space);
  let lookup n = Hashtbl.find env n in
  let iter_of n =
    (List.find (fun it -> it.Space.it_name = n) (Space.iterators space))
      .Space.it_iter
  in
  let body = function
    | Space.E e -> Expr.eval lookup e
    | Space.F { fn; _ } -> fn lookup
  in
  let deriveds = Space.deriveds space in
  let constraints =
    List.map
      (fun c ->
        let name = fst plan.Plan.constraint_info.(c) in
        ( name,
          (List.find (fun k -> k.Space.cn_name = name) (Space.constraints space))
            .Space.cn_body ))
      (check_order plan)
  in
  let removed = Hashtbl.create 8 and survivors = ref 0 and total = ref 0 in
  let rec loop = function
    | [] -> (
      incr total;
      List.iter
        (fun d -> Hashtbl.replace env d.Space.dv_name (body d.Space.dv_body))
        deriveds;
      match
        List.find_opt (fun (_, b) -> Value.truthy (body b)) constraints
      with
      | None -> incr survivors
      | Some (name, _) ->
        Hashtbl.replace removed name
          (1 + Option.value ~default:0 (Hashtbl.find_opt removed name)))
    | n :: rest ->
      Array.iter
        (fun v ->
          Hashtbl.replace env n v;
          loop rest)
        (Iter.materialize lookup (iter_of n))
  in
  loop plan.Plan.iter_order;
  (removed, !survivors, !total)

(* On random spaces, plain and propagated, one provenance sweep's
   removal per constraint equals the brute-force charge, and survivors
   plus removals cover the unconstrained product exactly. *)
let prop_matches_brute_attribution =
  QCheck.Test.make ~name:"removals match brute-force attribution" ~count:200
    Support.arb_space (fun descr ->
      let sp = Support.space_of descr in
      let plan = Plan.make_exn sp in
      let removed, survivors, total = brute_attribution sp plan in
      List.for_all
        (fun run_plan ->
          let stats, summary =
            Provenance.with_collector (fun () -> Engine_staged.run run_plan)
          in
          List.for_all
            (fun (r : Provenance.crow) ->
              r.Provenance.pc_removed
              = Some
                  (Option.value ~default:0
                     (Hashtbl.find_opt removed r.Provenance.pc_name)))
            summary.Provenance.pv_constraints
          && stats.Engine.survivors = survivors
          && Beast_obs.Pruned.total_removed summary
             = Some (total - survivors))
        [ plan; Propagate.pass plan ])

(* ------------------------------------------------------------------ *)
(* The counter's state budget                                          *)
(* ------------------------------------------------------------------ *)

(* [cx] fires under (a, x), and the counter enters its sub-nest at [b],
   whose key {a} repeats across x: each distinct a is one memo context,
   so with no budget cx's count raises. [cc] fires under c, where the
   rest of the nest is one trip count: it needs no context and stays
   exact. *)
let budget_space () =
  let open Expr.Infix in
  let sp = Space.create ~name:"budget" () in
  Space.iterator sp "a" (Iter.range_i 0 4);
  Space.iterator sp "x" (Iter.range_i 0 3);
  Space.constrain sp "cx" (Expr.var "x" >: Expr.var "a");
  Space.iterator sp "b" (Iter.range (Expr.int 0) (Expr.var "a" +: Expr.int 1));
  Space.iterator sp "c" (Iter.range (Expr.int 0) (Expr.var "b" +: Expr.int 1));
  Space.constrain sp "cc" (Expr.var "c" >: Expr.int 1);
  Space.iterator sp "d" (Iter.range (Expr.int 0) (Expr.var "c" +: Expr.int 1));
  sp

(* Every check's count under a zero budget, at the iterator valuations
   of the first [limit] feasible points (every iterator slot bound, a
   superset of what any firing reads): a check whose count ever raises
   is affected, and every other check counts what the uncapped counter
   counts, raise for raise. On GEMM-20 only over_max_threads and
   partial_warps fire among the affected checks, so a capped run would
   leave just their rows unknown ([fire] maps a raise to an unknown
   row, as the next test shows). *)
let test_budget_marks_affected_counts () =
  List.iter
    (fun (label, sp, affected) ->
      let plan = Plan.make_exn (sp ()) in
      let capped = Feasible.sub_nests ~max_states:0 plan in
      let full = Feasible.sub_nests plan in
      let t =
        match Feasible.build plan with
        | Ok t -> t
        | Error e -> Alcotest.failf "%s: %s" label e
      in
      let point = Array.make (List.length (Feasible.iterators t)) 0 in
      let slots = Array.make (max 1 plan.Plan.n_slots) 0 in
      let raised = Array.make (Array.length capped) false in
      let outcome = function
        | Feasible.Static k -> Some k
        | Feasible.Dyn f -> ( try Some (f slots) with _ -> None)
        | Feasible.Inexact -> None
      in
      for i = 0 to min 400 (Feasible.count t) - 1 do
        Feasible.nth_into t i point;
        Array.iteri (fun l s -> slots.(s) <- point.(l)) plan.Plan.iter_slots;
        Array.iteri
          (fun c r ->
            match (outcome r, outcome full.(c)) with
            | None, Some _ -> raised.(c) <- true
            | got, want ->
              Alcotest.(check (option int))
                (label ^ ": " ^ fst plan.Plan.constraint_info.(c))
                want got)
          capped
      done;
      Alcotest.(check (list string)) (label ^ ": affected checks") affected
        (List.filteri (fun c _ -> raised.(c))
           (Array.to_list (Array.map fst plan.Plan.constraint_info))))
    [
      ("budget", budget_space, [ "cx" ]);
      ( "GEMM-20",
        (fun () -> Support.gemm_space ~max_dim:20 ~max_threads:96),
        [ "over_max_threads"; "over_max_regs_per_thread";
          "over_max_regs_per_block"; "over_max_shmem"; "low_occupancy_regs";
          "low_occupancy_shmem"; "partial_warps" ] );
    ]

(* A count that raises at a firing (here [12 / a] at a = 0, which the
   engine never evaluates because the check prunes it) leaves only that
   constraint's row unknown, and the run completes. *)
let test_raising_count_leaves_row_unknown () =
  let open Expr.Infix in
  let sp = Space.create ~name:"raise" () in
  Space.iterator sp "a" (Iter.range_i 0 4);
  Space.constrain sp "ca" (Expr.var "a" <: Expr.int 1);
  Space.iterator sp "b" (Iter.range (Expr.int 0) (Expr.int 12 /: Expr.var "a"));
  Space.constrain sp "cb" (Expr.var "b" >: Expr.int 4);
  let stats, summary =
    Provenance.with_collector (fun () -> Engine_staged.run (Plan.make_exn sp))
  in
  Alcotest.(check (list (pair string (option int)))) "rows"
    [ ("ca", None); ("cb", Some 8) ]
    (List.map
       (fun (r : Provenance.crow) -> (r.Provenance.pc_name, r.Provenance.pc_removed))
       summary.Provenance.pv_constraints);
  Alcotest.(check int) "survivors" 14 stats.Engine.survivors

(* ------------------------------------------------------------------ *)
(* Golden explain file                                                  *)
(* ------------------------------------------------------------------ *)

(* golden/gemm20.explain.json pins `beast sweep golden/gemm20.beast
   --explain-out` byte for byte; the same sweep in-process must write
   exactly that file. *)
let test_gemm20_golden () =
  let read f = In_channel.with_open_bin f In_channel.input_all in
  let sp =
    match Beast_dsl.Parse.space_of_file "golden/gemm20.beast" with
    | Ok sp -> sp
    | Error e -> Alcotest.failf "parse: %a" Beast_dsl.Parse.pp_error e
  in
  Alcotest.(check string) "explain file"
    (read "golden/gemm20.explain.json")
    (Stats_io.to_json (run_io ~propagate:true sp))

(* ------------------------------------------------------------------ *)
(* Engine agreement                                                    *)
(* ------------------------------------------------------------------ *)

let collect_with engine sp =
  let plan = Plan.make_exn sp in
  let _, summary = Provenance.with_collector (fun () -> engine plan) in
  summary

(* The engines agree on the summary, whose exact removal total is pinned
   as a literal: the triangle's 36 points minus its 18 survivors, and
   GEMM-20's as the bench's provenance ablation measured it. *)
let test_engines_agree () =
  List.iter
    (fun (label, sp, total) ->
      let staged = collect_with Engine_staged.run (sp ()) in
      let vm = collect_with Engine_vm.run_plan (sp ()) in
      let _, interp =
        Provenance.with_collector (fun () -> Engine_interp.run (sp ()))
      in
      Alcotest.(check bool) (label ^ ": vm == staged") true (vm = staged);
      Alcotest.(check bool) (label ^ ": interp == staged") true
        (interp = staged);
      Alcotest.(check (option int))
        (label ^ ": exact total removed")
        (Some total)
        (Beast_obs.Pruned.total_removed staged))
    [
      ("triangle", Support.triangle_space, 18);
      ( "GEMM-20",
        (fun () -> Support.gemm_space ~max_dim:20 ~max_threads:96),
        41_676_358_880 );
    ]

(* ------------------------------------------------------------------ *)
(* Shard merge                                                         *)
(* ------------------------------------------------------------------ *)

let merge_exn shards =
  match Stats_io.merge shards with
  | Ok t -> t
  | Error e -> Alcotest.failf "merge failed: %s" e

let check_shard_merge sp =
  let merged =
    merge_exn (List.init 3 (fun i -> run_io ~shard:(i, 3) (sp ())))
  in
  Alcotest.(check string) "merged JSON == unsharded JSON"
    (Stats_io.to_json (run_io (sp ())))
    (Stats_io.to_json merged)

let test_shard_merge_byte_identical () =
  check_shard_merge Support.triangle_space

let test_shard_merge_gemm () = check_shard_merge gemm_space

(* The explain file depends on the space alone: propagation replays its
   dead values as ordinary firings, and the counter puts them back into
   the sub-nests it counts, so neither propagating nor propagating per
   shard and merging changes a byte. Propagation removes values from
   the batched TRSM and Cholesky spaces (it leaves the scaled GEMM one
   untouched); in Cholesky's it removes some below firing checks. *)
let test_explain_propagation_invariant () =
  List.iter
    (fun (label, sp) ->
      Alcotest.(check bool) (label ^ ": propagation removes values") true
        (Plan.static_pruned (Propagate.pass (Plan.make_exn (sp ()))) > 0);
      let unpropagated = Stats_io.to_json (run_io (sp ())) in
      Alcotest.(check string) (label ^ ": propagated == unpropagated")
        unpropagated
        (Stats_io.to_json (run_io ~propagate:true (sp ())));
      let merged =
        merge_exn
          (List.init 2 (fun i -> run_io ~propagate:true ~shard:(i, 2) (sp ())))
      in
      Alcotest.(check string) (label ^ ": propagated 2-way merge == unsharded")
        unpropagated (Stats_io.to_json merged))
    [
      ("trsm", fun () -> Beast_kernels.Trsm_batched.space ());
      ("cholesky", fun () -> Beast_kernels.Cholesky_batched.space ());
    ]

let test_shard_merge_mixed_presence () =
  let sp () = Support.triangle_space () in
  let with_prov = run_io ~shard:(0, 2) (sp ()) in
  let without =
    let plan = Plan.make_exn (sp ()) in
    let chunk = Plan.chunk_outer plan ~index:1 ~of_:2 in
    Stats_io.of_stats ~plan
      ~shard:{ Stats_io.shard_index = 1; shard_of = 2 }
      (Engine_staged.run chunk)
  in
  match Stats_io.merge [ with_prov; without ] with
  | Ok _ -> Alcotest.fail "mixed provenance presence must not merge"
  | Error e ->
    Alcotest.(check bool) "diagnostic names provenance" true
      (contains e "provenance")

let test_merge_summaries_mismatch () =
  let s1 = collect_with Engine_staged.run (Support.triangle_space ()) in
  let s2 = collect_with Engine_staged.run (Support.mixed_space ()) in
  match Beast_obs.Pruned.merge_summaries [ s1; s2 ] with
  | Ok _ -> Alcotest.fail "summaries of different spaces must not merge"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Disabled path                                                       *)
(* ------------------------------------------------------------------ *)

let test_disabled_no_provenance () =
  Alcotest.(check bool) "no ambient collector" false (Provenance.enabled ());
  let plan = Plan.make_exn (Support.triangle_space ()) in
  let io = Stats_io.of_stats ~plan (Engine_staged.run plan) in
  let json = Stats_io.to_json io in
  Alcotest.(check bool) "no provenance key when disabled" false
    (contains json "\"provenance\"")

let test_with_collector_restores () =
  let collect () =
    Alcotest.(check bool) "off before" false (Provenance.enabled ());
    let (), _ =
      Provenance.with_collector (fun () ->
          Alcotest.(check bool) "on inside" true (Provenance.enabled ());
          ignore (Engine_staged.run_space (Support.triangle_space ())))
    in
    Alcotest.(check bool) "off after" false (Provenance.enabled ())
  in
  collect ();
  (* Under a traced context the collector joins it: the sink stays
     installed inside, and the earlier context is back afterwards. *)
  let open Beast_obs in
  let r = Recorder.create () in
  let ctx = { Obs.off with Obs.sink = Some (Recorder.sink r) } in
  Obs.with_context ctx (fun () ->
      collect ();
      Alcotest.(check bool) "the traced context is back" true
        (Obs.current () == ctx));
  Alcotest.(check bool) "the sweep span reached the recorder" true
    (Array.exists
       (fun (ev : Obs.event) -> ev.ev_name = "sweep:staged")
       (Recorder.events r))

(* ------------------------------------------------------------------ *)
(* Serialization                                                       *)
(* ------------------------------------------------------------------ *)

let test_summary_json_roundtrip () =
  let summary = collect_with Engine_staged.run (Support.triangle_space ()) in
  let json = Beast_obs.Jsonx.pretty (Provenance.to_jsonx summary) in
  let parsed = Beast_obs.Jsonx.parse_exn json in
  (match Provenance.of_jsonx parsed with
  | Ok summary' ->
    Alcotest.(check bool) "roundtrip preserves the summary" true
      (summary = summary')
  | Error e -> Alcotest.failf "decode failed: %s" e);
  (* Files written before the key was dropped still parse. *)
  let old =
    "{ \"static_removed\": 15,"
    ^ String.sub json 1 (String.length json - 1)
  in
  match Provenance.of_jsonx (Beast_obs.Jsonx.parse_exn old) with
  | Ok summary' ->
    Alcotest.(check bool) "static_removed is ignored" true (summary = summary')
  | Error e -> Alcotest.failf "decode of an older file failed: %s" e

let test_stats_io_roundtrip () =
  let io = run_io (Support.triangle_space ()) in
  let json = Stats_io.to_json io in
  match Stats_io.of_json json with
  | Ok io' -> Alcotest.(check string) "byte-stable" json (Stats_io.to_json io')
  | Error e -> Alcotest.failf "of_json failed: %s" e

(* ------------------------------------------------------------------ *)
(* of_run and the explain renderer                                      *)
(* ------------------------------------------------------------------ *)

let test_of_run () =
  let reference = Stats.prefix_sweeps (Support.triangle_space ()) in
  match Stats.of_run (run_io (Support.triangle_space ())) with
  | Ok f -> check_funnels_agree "of_run" reference f
  | Error e -> Alcotest.failf "of_run failed: %s" e

let test_of_run_requires_provenance () =
  let plan = Plan.make_exn (Support.triangle_space ()) in
  let io = Stats_io.of_stats ~plan (Engine_staged.run plan) in
  match Stats.of_run io with
  | Ok _ -> Alcotest.fail "must reject a run without provenance"
  | Error e ->
    Alcotest.(check bool) "diagnostic names provenance" true
      (contains e "provenance")

let render io =
  let buf = Buffer.create 1024 in
  let ppf = Format.formatter_of_buffer buf in
  let r = Explain.write ppf io in
  Format.pp_print_flush ppf ();
  (r, Buffer.contents buf)

let test_explain_sections () =
  match render (run_io (Support.triangle_space ())) with
  | Ok (), out ->
    List.iter
      (fun section ->
        Alcotest.(check bool) ("has " ^ section) true
          (contains out section))
      [
        "constraint waterfall (evaluation order)";
        "cost vs selectivity";
        "dead outer ranges";
        "survival funnel by depth";
      ]
  | Error e, _ -> Alcotest.failf "explain failed: %s" e

let test_explain_requires_provenance () =
  let plan = Plan.make_exn (Support.triangle_space ()) in
  let io = Stats_io.of_stats ~plan (Engine_staged.run plan) in
  match render io with
  | Ok (), _ -> Alcotest.fail "must reject a run without provenance"
  | Error e, _ ->
    Alcotest.(check bool) "diagnostic names provenance" true
      (contains e "provenance")

let () =
  Alcotest.run "provenance"
    [
      ( "attribution",
        [
          Alcotest.test_case "static products" `Quick test_attribution_static;
          Alcotest.test_case "dynamic products" `Quick test_attribution_dynamic;
          Alcotest.test_case "inexact under closures" `Quick
            test_attribution_inexact;
        ] );
      ( "single-pass funnel",
        [
          Alcotest.test_case "triangle" `Quick test_single_pass_triangle;
          Alcotest.test_case "closure fallback" `Quick
            test_single_pass_fallback;
          Alcotest.test_case "gemm" `Quick test_single_pass_gemm;
          Alcotest.test_case "conv2d" `Quick test_single_pass_conv2d;
        ] );
      ( "oracle",
        [
          QCheck_alcotest.to_alcotest prop_matches_brute_attribution;
          Alcotest.test_case "GEMM-20 explain golden" `Quick test_gemm20_golden;
        ] );
      ( "budget",
        [
          Alcotest.test_case "tiny budget: affected counts raise" `Quick
            test_budget_marks_affected_counts;
          Alcotest.test_case "raising count: row unknown" `Quick
            test_raising_count_leaves_row_unknown;
        ] );
      ( "engines",
        [ Alcotest.test_case "agree on summaries" `Quick test_engines_agree ] );
      ( "shards",
        [
          Alcotest.test_case "3-way byte-identical" `Quick
            test_shard_merge_byte_identical;
          Alcotest.test_case "3-way gemm" `Quick test_shard_merge_gemm;
          Alcotest.test_case "propagation invariant" `Quick
            test_explain_propagation_invariant;
          Alcotest.test_case "mixed presence rejected" `Quick
            test_shard_merge_mixed_presence;
          Alcotest.test_case "summary mismatch rejected" `Quick
            test_merge_summaries_mismatch;
        ] );
      ( "disabled",
        [
          Alcotest.test_case "no provenance section" `Quick
            test_disabled_no_provenance;
          Alcotest.test_case "with_collector restores" `Quick
            test_with_collector_restores;
        ] );
      ( "serialization",
        [
          Alcotest.test_case "summary roundtrip" `Quick
            test_summary_json_roundtrip;
          Alcotest.test_case "stats_io roundtrip" `Quick
            test_stats_io_roundtrip;
        ] );
      ( "explain",
        [
          Alcotest.test_case "of_run" `Quick test_of_run;
          Alcotest.test_case "of_run needs provenance" `Quick
            test_of_run_requires_provenance;
          Alcotest.test_case "renders all sections" `Quick
            test_explain_sections;
          Alcotest.test_case "explain needs provenance" `Quick
            test_explain_requires_provenance;
        ] );
    ]
