(* The `beast explain` report: turn one instrumented sweep's provenance
   (plus, when present, its metrics) into an account of *why* the space
   shrank — which constraint removed what, whether the evaluation order
   is paying for it, and where whole outer-coordinate ranges died. *)

module Metrics = Beast_obs.Metrics
module Units = Beast_obs.Units

let opt_int = function
  | Some k -> Units.si_int k
  | None -> "?"

(* ---- constraint waterfall ---------------------------------------- *)

let waterfall ppf (f : Stats.funnel) =
  let survivors = f.Stats.survivors in
  let total = if Stats.exact f then Some f.Stats.total_points else None in
  Format.fprintf ppf "constraint waterfall (evaluation order)@.";
  (match total with
  | Some total ->
    Format.fprintf ppf "  %s points enter; %s survive (%.2f%% pruned)@."
      (Units.si_int total) (Units.si_int survivors)
      (if total = 0 then 0.0
       else 100.0 *. float_of_int (total - survivors) /. float_of_int total)
  | None ->
    Format.fprintf ppf
      "  (a removal count raised: exact removal counts are partial)@.");
  Format.fprintf ppf "  %-30s %5s %10s %10s %10s@." "" "depth" "fired"
    "removed" "left";
  let remaining = ref total in
  List.iter
    (fun (r : Stats.row) ->
      (remaining :=
         match (!remaining, r.Stats.removed) with
         | Some rem, Some k -> Some (rem - k)
         | _ -> None);
      Format.fprintf ppf "  %-30s %5d %10s %10s %10s@." r.Stats.constraint_name
        r.Stats.depth (Units.si_int r.Stats.fired) (opt_int r.Stats.removed)
        (opt_int !remaining))
    f.Stats.rows;
  Format.fprintf ppf "@."

(* ---- cost vs selectivity ----------------------------------------- *)

(* The classic predicate-ordering rule: with independent filters, total
   work is minimized by evaluating in decreasing removals-per-unit-cost.
   We only flag *adjacent* inversions — those are the pairs where a
   plain swap (at equal depth) or a hoist is guaranteed to help. *)
let cost_table ppf (t : Stats_io.t) (rows : Stats.row list) =
  Format.fprintf ppf "cost vs selectivity@.";
  match t.Stats_io.metrics with
  | None ->
    Format.fprintf ppf
      "  no \"metrics\" section: sweep with --metrics --explain-out to \
       rank evaluation cost against removals@.@."
  | Some snap ->
    let hists = Metrics.Snapshot.histograms snap ~name:"constraint_eval_ns" in
    let eval_ns name =
      List.find_map
        (fun ((labels, h) : _ * Metrics.hist_snapshot) ->
          if List.assoc_opt "constraint" labels = Some name then
            Some (h.Metrics.s_sum, h.Metrics.s_count)
          else None)
        hists
    in
    let scored =
      List.map
        (fun (r : Stats.row) ->
          let cost = eval_ns r.Stats.constraint_name in
          let score =
            match (r.Stats.removed, cost) with
            | Some k, Some (ns, _) when ns > 0 ->
              (* removed points per microsecond of evaluation time *)
              Some (1000.0 *. float_of_int k /. float_of_int ns)
            | _ -> None
          in
          (r, cost, score))
        rows
    in
    let misplaced =
      (* r_i is misplaced when the constraint evaluated right after it
         removes strictly more per unit cost. *)
      let rec mark = function
        | ((r : Stats.row), _, Some a) :: (((_, _, Some b) :: _) as rest) ->
          (if a < b then [ r.Stats.constraint_name ] else []) @ mark rest
        | _ :: rest -> mark rest
        | [] -> []
      in
      mark scored
    in
    Format.fprintf ppf "  %-30s %10s %10s %12s %s@." "" "evals"
      "eval time" "removed/us" "";
    List.iter
      (fun ((r : Stats.row), cost, score) ->
        Format.fprintf ppf "  %-30s %10s %10s %12s %s@." r.Stats.constraint_name
          (match cost with
          | Some (_, n) -> Units.si_int n
          | None -> "?")
          (match cost with
          | Some (ns, _) -> Units.duration_ns ns
          | None -> "?")
          (match score with
          | Some s -> Printf.sprintf "%.1f" s
          | None -> "?")
          (if List.mem r.Stats.constraint_name misplaced then "<- misplaced"
           else ""))
      scored;
    if misplaced <> [] then
      Format.fprintf ppf
        "  misplaced: the next constraint removes more points per unit \
         of evaluation time; evaluating it first would do less work@.";
    Format.fprintf ppf "@."

(* ---- dead outer-coordinate ranges -------------------------------- *)

type range = {
  r_lo : int;
  r_hi : int;
  r_cells : int;
  r_removed : int;
}

(* Maximal runs of consecutive *observed* outer values (cells are sorted
   and deduplicated by value) with zero survivors. *)
let dead_ranges cells =
  let close acc = function
    | Some r -> r :: acc
    | None -> acc
  in
  let acc, open_ =
    List.fold_left
      (fun (acc, open_) (c : Provenance.cell) ->
        if c.Provenance.cell_survivors > 0 then (close acc open_, None)
        else
          match open_ with
          | None ->
            ( acc,
              Some
                {
                  r_lo = c.Provenance.cell_value;
                  r_hi = c.Provenance.cell_value;
                  r_cells = 1;
                  r_removed = c.Provenance.cell_removed;
                } )
          | Some r ->
            ( acc,
              Some
                {
                  r with
                  r_hi = c.Provenance.cell_value;
                  r_cells = r.r_cells + 1;
                  r_removed = r.r_removed + c.Provenance.cell_removed;
                } ))
      ([], None) cells
  in
  close acc open_
  |> List.sort (fun a b -> compare (b.r_removed, b.r_cells) (a.r_removed, a.r_cells))

let dead_table ppf ~top (p : Provenance.summary) =
  match p.Provenance.pv_iters with
  | [] -> ()
  | outer :: _ ->
    let ranges = dead_ranges p.Provenance.pv_cells in
    let total_cells = List.length p.Provenance.pv_cells in
    let dead_cells = List.fold_left (fun acc r -> acc + r.r_cells) 0 ranges in
    Format.fprintf ppf "dead outer ranges (%s: %d of %d values yield no survivor)@."
      outer dead_cells total_cells;
    if ranges = [] then
      Format.fprintf ppf "  every %s value keeps at least one survivor@."
        outer
    else begin
      let shown = List.filteri (fun i _ -> i < top) ranges in
      List.iter
        (fun r ->
          Format.fprintf ppf "  %s in [%d..%d]: %d value%s, %s points removed@."
            outer r.r_lo r.r_hi r.r_cells
            (if r.r_cells = 1 then "" else "s")
            (Units.si_int r.r_removed))
        shown;
      if List.length ranges > List.length shown then
        Format.fprintf ppf "  ... and %d more range%s@."
          (List.length ranges - List.length shown)
          (if List.length ranges - List.length shown = 1 then "" else "s")
    end;
    Format.fprintf ppf "@."

(* ---- per-depth survival funnel ----------------------------------- *)

let bar width v vmax =
  if vmax <= 0 || v <= 0 then ""
  else
    let n = max 1 (v * width / vmax) in
    String.make (min width n) '#'

let funnel_bars ppf ~survivors (p : Provenance.summary) =
  let entries = p.Provenance.pv_depth_entries in
  if entries <> [] then begin
    Format.fprintf ppf "survival funnel by depth@.";
    let vmax = List.fold_left max survivors entries in
    List.iteri
      (fun d n ->
        let var =
          match List.nth_opt p.Provenance.pv_iters d with
          | Some v -> v
          | None -> "?"
        in
        Format.fprintf ppf "  depth %-2d %-12s %12s %s@." d var
          (Units.si_int n) (bar 30 n vmax))
      entries;
    Format.fprintf ppf "  %-21s %12s %s@." "survivors" (Units.si_int survivors)
      (bar 30 survivors vmax)
  end

(* ------------------------------------------------------------------ *)

let write ?(top = 5) ppf (t : Stats_io.t) =
  Result.map
    (fun (f : Stats.funnel) ->
      (* of_run succeeds only on a run that carries provenance. *)
      let p = Option.get t.Stats_io.provenance in
      Format.fprintf ppf "explain %s: %s survivors@." t.Stats_io.space
        (Units.si_int t.Stats_io.survivors);
      Format.fprintf ppf "@.";
      waterfall ppf f;
      cost_table ppf t f.Stats.rows;
      dead_table ppf ~top p;
      funnel_bars ppf ~survivors:t.Stats_io.survivors p)
    (Stats.of_run t)
