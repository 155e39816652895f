(* Radial pruning chart: ring i (from the centre) shows the state of the
   space after constraint i has been applied. The coloured arc is the
   fraction of the original space still alive; the grey remainder has
   been pruned. *)

let pi = 4.0 *. atan 1.0

let class_color = function
  | Space.Hard -> "#c0392b"
  | Space.Soft -> "#e67e22"
  | Space.Correctness -> "#8e44ad"

let arc_path cx cy r0 r1 frac =
  (* Annular sector from angle -90deg spanning frac*360deg. *)
  if frac >= 0.999999 then
    (* Full ring: two half-circle arcs to avoid degenerate sweep flags. *)
    Printf.sprintf
      "M %f %f A %f %f 0 1 1 %f %f A %f %f 0 1 1 %f %f M %f %f A %f %f 0 1 0 %f %f A %f %f 0 1 0 %f %f Z"
      cx (cy -. r1) r1 r1 cx (cy +. r1) r1 r1 cx (cy -. r1) cx (cy -. r0) r0 r0
      cx (cy +. r0) r0 r0 cx (cy -. r0)
  else
    let a0 = -.pi /. 2.0 in
    let a1 = a0 +. (2.0 *. pi *. frac) in
    let large = if frac > 0.5 then 1 else 0 in
    let x0 = cx +. (r1 *. cos a0) and y0 = cy +. (r1 *. sin a0) in
    let x1 = cx +. (r1 *. cos a1) and y1 = cy +. (r1 *. sin a1) in
    let x2 = cx +. (r0 *. cos a1) and y2 = cy +. (r0 *. sin a1) in
    let x3 = cx +. (r0 *. cos a0) and y3 = cy +. (r0 *. sin a0) in
    Printf.sprintf "M %f %f A %f %f 0 %d 1 %f %f L %f %f A %f %f 0 %d 0 %f %f Z"
      x0 y0 r1 r1 large x1 y1 x2 y2 r0 r0 large x3 y3

let svg ?(size = 480) (f : Stats.funnel) =
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let n = List.length f.Stats.rows in
  let c = float_of_int size /. 2.0 in
  let r_inner = 0.12 *. c in
  let r_outer = 0.95 *. c in
  let ring_w = if n = 0 then 0.0 else (r_outer -. r_inner) /. float_of_int n in
  add "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"%d\" height=\"%d\">\n"
    size size;
  add "<rect width=\"%d\" height=\"%d\" fill=\"white\"/>\n" size size;
  add "<title>pruning funnel: %s</title>\n" f.Stats.space;
  (* Centre disc: the unconstrained space. *)
  add "<circle cx=\"%f\" cy=\"%f\" r=\"%f\" fill=\"#2980b9\"/>\n" c c r_inner;
  let total = max 1 f.Stats.total_points in
  let alive = ref (float_of_int f.Stats.total_points) in
  List.iteri
    (fun i (r : Stats.row) ->
      let r0 = r_inner +. (float_of_int i *. ring_w) in
      let r1 = r0 +. ring_w in
      (* Grey backdrop ring = pruned share. *)
      add "<path d=\"%s\" fill=\"#dddddd\"/>\n" (arc_path c c r0 r1 1.0);
      (match r.Stats.removed with
      | Some k -> alive := !alive -. float_of_int k
      | None -> ());
      let frac = max 0.0 (min 1.0 (!alive /. float_of_int total)) in
      if frac > 0.0 then
        add "<path d=\"%s\" fill=\"%s\" fill-opacity=\"0.85\"/>\n"
          (arc_path c c r0 r1 frac)
          (class_color r.Stats.constraint_class);
      add
        "<text x=\"%f\" y=\"%f\" font-size=\"%d\" font-family=\"sans-serif\" fill=\"#333\">%s</text>\n"
        4.0
        (14.0 +. (float_of_int i *. 14.0))
        11 r.Stats.constraint_name)
    f.Stats.rows;
  add
    "<text x=\"%f\" y=\"%f\" font-size=\"13\" text-anchor=\"middle\" font-family=\"sans-serif\" fill=\"white\">%d</text>\n"
    c (c +. 4.0) f.Stats.survivors;
  add "</svg>\n";
  Buffer.contents buf

let scatter_svg ?(size = 480) ?(x_label = "x") ?(y_label = "y")
    ?(highlight = []) points =
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let fsize = float_of_int size in
  let margin = 44.0 in
  let all = points @ highlight in
  let xs = List.map fst all and ys = List.map snd all in
  let lo l = List.fold_left Float.min infinity l in
  let hi l = List.fold_left Float.max neg_infinity l in
  let x0 = lo xs and x1 = hi xs and y0 = lo ys and y1 = hi ys in
  let span a b = if b -. a <= 0.0 then 1.0 else b -. a in
  let px x = margin +. ((x -. x0) /. span x0 x1 *. (fsize -. (2.0 *. margin))) in
  let py y =
    fsize -. margin -. ((y -. y0) /. span y0 y1 *. (fsize -. (2.0 *. margin)))
  in
  add "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"%d\" height=\"%d\">\n"
    size size;
  add "<rect width=\"%d\" height=\"%d\" fill=\"white\"/>\n" size size;
  add
    "<line x1=\"%f\" y1=\"%f\" x2=\"%f\" y2=\"%f\" stroke=\"#444\" stroke-width=\"1\"/>\n"
    margin (fsize -. margin) (fsize -. margin) (fsize -. margin);
  add
    "<line x1=\"%f\" y1=\"%f\" x2=\"%f\" y2=\"%f\" stroke=\"#444\" stroke-width=\"1\"/>\n"
    margin margin margin (fsize -. margin);
  add
    "<text x=\"%f\" y=\"%f\" font-size=\"12\" font-family=\"sans-serif\" text-anchor=\"middle\">%s</text>\n"
    (fsize /. 2.0) (fsize -. 8.0) x_label;
  add
    "<text x=\"14\" y=\"%f\" font-size=\"12\" font-family=\"sans-serif\" text-anchor=\"middle\" transform=\"rotate(-90 14 %f)\">%s</text>\n"
    (fsize /. 2.0) (fsize /. 2.0) y_label;
  List.iter
    (fun (x, y) ->
      add "<circle cx=\"%f\" cy=\"%f\" r=\"2.2\" fill=\"#9ab\" fill-opacity=\"0.55\"/>\n"
        (px x) (py y))
    points;
  List.iter
    (fun (x, y) ->
      add
        "<circle cx=\"%f\" cy=\"%f\" r=\"4.5\" fill=\"#c0392b\" stroke=\"white\" stroke-width=\"1\"/>\n"
        (px x) (py y))
    highlight;
  (* axis extremes *)
  add
    "<text x=\"%f\" y=\"%f\" font-size=\"10\" font-family=\"sans-serif\">%.3g</text>\n"
    margin
    (fsize -. margin +. 14.0)
    x0;
  add
    "<text x=\"%f\" y=\"%f\" font-size=\"10\" font-family=\"sans-serif\" text-anchor=\"end\">%.3g</text>\n"
    (fsize -. margin)
    (fsize -. margin +. 14.0)
    x1;
  add
    "<text x=\"%f\" y=\"%f\" font-size=\"10\" font-family=\"sans-serif\" text-anchor=\"end\">%.3g</text>\n"
    (margin -. 4.0) (fsize -. margin) y0;
  add
    "<text x=\"%f\" y=\"%f\" font-size=\"10\" font-family=\"sans-serif\" text-anchor=\"end\">%.3g</text>\n"
    (margin -. 4.0) (margin +. 4.0) y1;
  add "</svg>\n";
  Buffer.contents buf

let html_report ?(title = "BEAST pruning funnel") f =
  let buf = Buffer.create 8192 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\"><title>%s</title></head>\n"
    title;
  add "<body style=\"font-family: sans-serif\">\n<h1>%s</h1>\n" title;
  if Stats.exact f then
    add "<p>space <b>%s</b>: %d points, %d survivors (%.2f%% pruned)</p>\n"
      f.Stats.space f.Stats.total_points f.Stats.survivors
      (100.0 *. Stats.pruned_fraction f)
  else
    add "<p>space <b>%s</b>: %d survivors (%s)</p>\n" f.Stats.space
      f.Stats.survivors Stats.partial_note;
  Buffer.add_string buf (svg f);
  add "<table border=\"1\" cellpadding=\"4\">\n";
  add "<tr><th>constraint</th><th>class</th><th>fired</th><th>removed</th></tr>\n";
  List.iter
    (fun (r : Stats.row) ->
      add "<tr><td>%s</td><td>%s</td><td>%d</td><td>%s</td></tr>\n"
        r.Stats.constraint_name
        (Space.constraint_class_name r.Stats.constraint_class)
        r.Stats.fired
        (match r.Stats.removed with
        | Some k -> string_of_int k
        | None -> "n/a"))
    f.Stats.rows;
  add "</table>\n</body></html>\n";
  Buffer.contents buf
