type arg =
  | Int of int
  | Float of float
  | Str of string

type kind =
  | Begin
  | End
  | Complete of int  (* duration, ns *)
  | Instant
  | Counter of float

type event = {
  ev_name : string;
  ev_cat : string;
  ev_ts_ns : int;
  ev_dom : int;
  ev_kind : kind;
  ev_args : (string * arg) list;
}

type sink = event -> unit

type ctx = {
  sink : sink option;
  instrumented : bool;
  tally : Tally.t option;
  metrics : Metrics.t option;
  provenance : Pruned.collector option;
}

let off =
  { sink = None; instrumented = false; tally = None; metrics = None;
    provenance = None }

(* The one slot. The hot-path contract: with no context installed an
   emission (and every clock read feeding one) costs a single
   load-and-branch on [slot]. Plain loads/stores of one pointer cannot
   tear, and the context is installed before domains are spawned. *)
let slot : ctx option ref = ref None

let current () = match !slot with Some c -> c | None -> off

let with_context ctx f =
  let prev = !slot in
  (* A plain run installs as nothing, so it keeps that contract. *)
  slot :=
    (match ctx with
    | { sink = None; instrumented = false; tally = None; metrics = None;
        provenance = None } ->
      None
    | _ -> Some ctx);
  Fun.protect ~finally:(fun () -> slot := prev) f

let enabled () =
  match !slot with Some { sink = Some _; _ } -> true | _ -> false

let domain_id () = (Domain.self () :> int)

let emit ev = match !slot with Some { sink = Some s; _ } -> s ev | _ -> ()

let make ?(cat = "") ?(args = []) kind name =
  {
    ev_name = name;
    ev_cat = cat;
    ev_ts_ns = Clock.now_ns ();
    ev_dom = domain_id ();
    ev_kind = kind;
    ev_args = args;
  }

let span_begin ?cat ?args name =
  match !slot with
  | Some { sink = Some s; _ } -> s (make ?cat ?args Begin name)
  | _ -> ()

let span_end ?cat ?args name =
  match !slot with
  | Some { sink = Some s; _ } -> s (make ?cat ?args End name)
  | _ -> ()

let with_span ?cat ?args name f =
  match !slot with
  | Some { sink = Some s; _ } ->
    s (make ?cat ?args Begin name);
    Fun.protect ~finally:(fun () -> s (make ?cat End name)) f
  | _ -> f ()

let instant ?cat ?args name =
  match !slot with
  | Some { sink = Some s; _ } -> s (make ?cat ?args Instant name)
  | _ -> ()

let counter ?cat name v =
  match !slot with
  | Some { sink = Some s; _ } -> s (make ?cat (Counter v) name)
  | _ -> ()

let complete ?cat ?args ?ts ~dur_ns name =
  match !slot with
  | Some { sink = Some s; _ } ->
    let ev = make ?cat ?args (Complete dur_ns) name in
    s (match ts with None -> ev | Some ts -> { ev with ev_ts_ns = ts })
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Progress and metrics                                                *)
(* ------------------------------------------------------------------ *)

let progress_tick ~points ~survivors ~frac =
  match !slot with
  | Some { tally = Some t; _ } ->
    Tally.tick t ~dom:(domain_id ()) ~points ~survivors ~frac
  | _ -> ()

let chunk_tick ~completed ~total =
  match !slot with
  | Some { tally = Some t; _ } -> Tally.chunk_tick t ~completed ~total
  | _ -> ()

let time_phase name f =
  match !slot with
  | Some { metrics = Some r; _ } ->
    let h =
      Metrics.histogram r ~unit_:"ns" ~name:"phase_ns"
        ~labels:[ ("phase", name) ] ()
    in
    let t0 = Clock.now_ns () in
    Fun.protect ~finally:(fun () -> Metrics.record h (Clock.now_ns () - t0)) f
  | _ -> f ()

(* ------------------------------------------------------------------ *)
(* Pretty-printing (debug convenience)                                 *)
(* ------------------------------------------------------------------ *)

let arg_to_string = function
  | Int i -> string_of_int i
  | Float f -> Printf.sprintf "%g" f
  | Str s -> s

let kind_name = function
  | Begin -> "begin"
  | End -> "end"
  | Complete _ -> "complete"
  | Instant -> "instant"
  | Counter _ -> "counter"

let pp_event ppf ev =
  Format.fprintf ppf "[%d] %s %s/%s @@%dns" ev.ev_dom (kind_name ev.ev_kind)
    ev.ev_cat ev.ev_name ev.ev_ts_ns;
  (match ev.ev_kind with
  | Complete dur -> Format.fprintf ppf " dur=%dns" dur
  | Counter v -> Format.fprintf ppf " value=%g" v
  | Begin | End | Instant -> ());
  List.iter
    (fun (k, v) -> Format.fprintf ppf " %s=%s" k (arg_to_string v))
    ev.ev_args
