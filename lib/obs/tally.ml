(* One progress tally per run, fed by the engines' progress ticks and the
   parallel scheduler's chunk ticks, and read by throttled renderers:
   the terminal line (Progress) and the heartbeat file (Status). *)

type dom_state = {
  mutable d_points : int;
  mutable d_survivors : int;
  mutable d_frac : float;  (* < 0 when unknown *)
}

type snapshot = {
  points : int;
  survivors : int;
  frac : float option;
  elapsed_s : float;
  chunks_done : int;
  chunks_total : int;
  eta_s : float option;
  domains : (int * int * int) list;
}

type watcher = {
  every_ns : int;
  mutable last_ns : int;
  render : snapshot -> unit;
}

type t = {
  mutex : Mutex.t;
  doms : (int, dom_state) Hashtbl.t;
  start_ns : int;
  (* [c_base] is the completed count at the first chunk tick: a resumed
     run starts with its checkpointed chunks already done, and those
     must not count as throughput observed this run. *)
  mutable c_done : int;
  mutable c_total : int;
  mutable c_base : int;
  mutable watchers : watcher list;
}

let create () =
  {
    mutex = Mutex.create ();
    doms = Hashtbl.create 8;
    start_ns = Clock.now_ns ();
    c_done = 0;
    c_total = 0;
    c_base = -1;
    watchers = [];
  }

(* Callers hold the mutex. *)
let snapshot t ~now =
  let domains =
    Hashtbl.fold (fun d st acc -> (d, st) :: acc) t.doms []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  in
  let points, survivors, frac_sum, n_frac =
    List.fold_left
      (fun (pts, srv, fracs, nfrac) (_, d) ->
        ( pts + d.d_points,
          srv + d.d_survivors,
          (if d.d_frac >= 0.0 then fracs +. d.d_frac else fracs),
          if d.d_frac >= 0.0 then nfrac + 1 else nfrac ))
      (0, 0, 0.0, 0) domains
  in
  let elapsed_s = Clock.ns_to_s (now - t.start_ns) in
  let observed = t.c_done - max 0 t.c_base in
  {
    points;
    survivors;
    frac =
      (if t.c_total > 0 then
         Some (float_of_int t.c_done /. float_of_int t.c_total)
       else if n_frac > 0 then Some (frac_sum /. float_of_int n_frac)
       else None);
    elapsed_s;
    chunks_done = t.c_done;
    chunks_total = t.c_total;
    (* Heavily pruned regions finish their chunks fast and pull this
       estimate down, the way raw point cardinality never can. *)
    eta_s =
      (if t.c_total > 0 && observed > 0 && elapsed_s > 0.0 then
         Some
           (elapsed_s *. float_of_int (t.c_total - t.c_done)
           /. float_of_int observed)
       else None);
    domains =
      List.map (fun (d, st) -> (d, st.d_points, st.d_survivors)) domains;
  }

(* Callers hold the mutex; the snapshot is built once, and only when
   some watcher is due. *)
let draw_due t =
  let now = Clock.now_ns () in
  let snap = lazy (snapshot t ~now) in
  List.iter
    (fun w ->
      if now - w.last_ns >= w.every_ns then begin
        w.render (Lazy.force snap);
        w.last_ns <- now
      end)
    t.watchers

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let tick t ~dom ~points ~survivors ~frac =
  locked t (fun () ->
      let d =
        match Hashtbl.find_opt t.doms dom with
        | Some d -> d
        | None ->
          let d = { d_points = 0; d_survivors = 0; d_frac = -1.0 } in
          Hashtbl.replace t.doms dom d;
          d
      in
      d.d_points <- points;
      d.d_survivors <- survivors;
      d.d_frac <- frac;
      draw_due t)

let chunk_tick t ~completed ~total =
  locked t (fun () ->
      if t.c_base < 0 then t.c_base <- completed;
      (* Ticks from different domains can land out of order. *)
      t.c_done <- max t.c_done completed;
      t.c_total <- total;
      draw_due t)

let watch t ~every_s render =
  let w = { every_ns = int_of_float (every_s *. 1e9); last_ns = 0; render } in
  locked t (fun () -> t.watchers <- t.watchers @ [ w ])

let draw t render =
  locked t (fun () -> render (snapshot t ~now:(Clock.now_ns ())))
