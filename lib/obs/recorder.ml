(* Growable per-domain event buffer. Each domain appends to its own
   chunk list so recording a parallel sweep never contends on event
   payloads; the mutex only guards the domain-id -> buffer table, taken
   once per domain (first emission) and at merge time. *)

type buffer = {
  mutable chunks : Obs.event list;  (* newest first *)
  mutable count : int;
}

type t = {
  mutex : Mutex.t;
  buffers : (int, buffer) Hashtbl.t;
  (* Cache of the calling domain's buffer, one slot per domain. *)
  key : buffer option Domain.DLS.key;
  start_ns : int;
}

let create () =
  {
    mutex = Mutex.create ();
    buffers = Hashtbl.create 8;
    key = Domain.DLS.new_key (fun () -> None);
    start_ns = Clock.now_ns ();
  }

let buffer_for t dom =
  match Domain.DLS.get t.key with
  | Some b -> b
  | None ->
    Mutex.lock t.mutex;
    let b =
      match Hashtbl.find_opt t.buffers dom with
      | Some b -> b
      | None ->
        let b = { chunks = []; count = 0 } in
        Hashtbl.replace t.buffers dom b;
        b
    in
    Mutex.unlock t.mutex;
    Domain.DLS.set t.key (Some b);
    b

let emit t ev =
  let b = buffer_for t ev.Obs.ev_dom in
  b.chunks <- ev :: b.chunks;
  b.count <- b.count + 1

let sink t = emit t

let start_ns t = t.start_ns

(* Merge the per-domain buffers: concatenate and sort by timestamp.
   The per-domain lists are already time-ordered (single writer), so a
   stable sort on the concatenation is effectively a k-way merge. *)
let events t =
  Mutex.lock t.mutex;
  let total = Hashtbl.fold (fun _ b acc -> acc + b.count) t.buffers 0 in
  let dummy =
    {
      Obs.ev_name = "";
      ev_cat = "";
      ev_ts_ns = 0;
      ev_dom = 0;
      ev_kind = Obs.Instant;
      ev_args = [];
    }
  in
  let arr = Array.make total dummy in
  let i = ref 0 in
  Hashtbl.iter
    (fun _ b ->
      (* chunks is newest-first; lay each buffer out oldest-first. *)
      let j = ref (!i + b.count - 1) in
      List.iter
        (fun ev ->
          arr.(!j) <- ev;
          decr j)
        b.chunks;
      i := !i + b.count)
    t.buffers;
  Mutex.unlock t.mutex;
  Array.stable_sort
    (fun a b -> compare a.Obs.ev_ts_ns b.Obs.ev_ts_ns)
    arr;
  arr

let event_count t =
  Mutex.lock t.mutex;
  let n = Hashtbl.fold (fun _ b acc -> acc + b.count) t.buffers 0 in
  Mutex.unlock t.mutex;
  n

let domains t =
  Mutex.lock t.mutex;
  let ds = Hashtbl.fold (fun d _ acc -> d :: acc) t.buffers [] in
  Mutex.unlock t.mutex;
  List.sort Int.compare ds
