(* Throttled progress line for long enumerations, drawn from the run's
   tally. When the output channel is not a tty (CI logs, redirected
   stderr) the carriage-return redraw would smear into one unreadable
   megaline, so the reporter instead prints ordinary newline-terminated
   lines at a slower default cadence. *)

type t = {
  tally : Tally.t;
  out : out_channel;
  tty : bool;
  mutable last_width : int;
  mutable rendered : bool;
}

let si = Units.si_int

let line (s : Tally.snapshot) =
  let elapsed = s.elapsed_s in
  let rate =
    if elapsed > 0.0 then float_of_int s.points /. elapsed else 0.0
  in
  let eta_s =
    match (s.eta_s, s.frac) with
    | (Some _ as eta), _ -> eta
    | None, Some f when f > 1e-6 && f <= 1.0 ->
      Some (elapsed *. ((1.0 /. f) -. 1.0))
    | None, _ -> None
  in
  let eta =
    match eta_s with
    | Some s -> Printf.sprintf "  eta %.1fs" s
    | None -> ""
  in
  let pct =
    match s.frac with
    | Some f -> Printf.sprintf "  %5.1f%%" (100.0 *. Float.min 1.0 f)
    | None -> ""
  in
  let chunks =
    if s.chunks_total > 0 then
      Printf.sprintf "  %d/%d chunks" s.chunks_done s.chunks_total
    else ""
  in
  Printf.sprintf "[beast] %s points  %s survivors  %s pts/s  %.1fs%s%s%s"
    (si s.points) (si s.survivors)
    (si (int_of_float rate))
    elapsed chunks pct eta

let render t snap =
  let s = line snap in
  if t.tty then begin
    let pad = max 0 (t.last_width - String.length s) in
    output_string t.out ("\r" ^ s ^ String.make pad ' ');
    t.last_width <- String.length s
  end
  else output_string t.out (s ^ "\n");
  flush t.out;
  t.rendered <- true

let create ?interval_s ?(out = stderr) ?tty tally =
  let tty =
    match tty with
    | Some b -> b
    | None -> ( try Unix.isatty (Unix.descr_of_out_channel out) with _ -> false)
  in
  let every_s =
    match interval_s with Some s -> s | None -> if tty then 0.2 else 2.0
  in
  let t = { tally; out; tty; last_width = 0; rendered = false } in
  Tally.watch tally ~every_s (render t);
  t

let finish t =
  Tally.draw t.tally (fun snap ->
      if t.rendered then begin
        render t snap;
        if t.tty then output_string t.out "\n";
        flush t.out
      end)
