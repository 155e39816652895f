(* Per-domain event buffers (see recorder.mli). Each domain writes its
   own buffer, an array used as a ring: without a capacity it doubles
   when full, so nothing is overwritten; with one it is preallocated and
   the oldest event is overwritten in place. The mutex only guards the
   domain-id -> buffer table, taken once per domain and at merge
   time. *)

type buffer = {
  mutable buf : Obs.event array;
  mutable next : int;  (* slot the next event lands in *)
  mutable count : int;  (* events held, <= Array.length buf *)
}

type t = {
  mutex : Mutex.t;
  buffers : (int, buffer) Hashtbl.t;
  key : buffer option Domain.DLS.key;  (* the calling domain's buffer *)
  capacity : int option;
  make : unit -> buffer;
  start_ns : int;
}

let dummy =
  {
    Obs.ev_name = "";
    ev_cat = "";
    ev_ts_ns = 0;
    ev_dom = 0;
    ev_kind = Obs.Instant;
    ev_args = [];
  }

let create ?capacity () =
  if Option.fold ~none:false ~some:(fun c -> c < 1) capacity then
    invalid_arg "Recorder.create: capacity must be positive";
  let size = Option.value capacity ~default:64 in
  {
    mutex = Mutex.create ();
    buffers = Hashtbl.create 8;
    key = Domain.DLS.new_key (fun () -> None);
    capacity;
    make = (fun () -> { buf = Array.make size dummy; next = 0; count = 0 });
    start_ns = Clock.now_ns ();
  }

let emit t ev =
  let b =
    Metrics.cell_for ~mutex:t.mutex ~cells:t.buffers ~key:t.key ~make:t.make
  in
  let len = Array.length b.buf in
  if b.count = len && t.capacity = None then begin
    b.buf <- Array.append b.buf (Array.make len dummy);
    b.next <- len
  end;
  b.buf.(b.next) <- ev;
  b.next <- (b.next + 1) mod Array.length b.buf;
  if b.count < Array.length b.buf then b.count <- b.count + 1

let sink t = emit t

let start_ns t = t.start_ns

let locked t f = Mutex.protect t.mutex (fun () -> f t.buffers)

let event_count t =
  locked t (fun buffers ->
      Hashtbl.fold (fun _ b acc -> acc + b.count) buffers 0)

(* Each buffer laid out oldest-first, then a stable sort by timestamp:
   every buffer is already in time order (one writer), so this is in
   effect a k-way merge. *)
let events t =
  let arr =
    locked t (fun buffers ->
        Hashtbl.to_seq_values buffers
        |> Seq.map (fun b ->
               let len = Array.length b.buf in
               Array.init b.count (fun j ->
                   b.buf.((b.next - b.count + j + len) mod len)))
        |> List.of_seq |> Array.concat)
  in
  Array.stable_sort (fun a b -> compare a.Obs.ev_ts_ns b.Obs.ev_ts_ns) arr;
  arr

let domains t =
  List.sort Int.compare
    (locked t (fun buffers -> List.of_seq (Hashtbl.to_seq_keys buffers)))

(* Pure event lines, so Sink_jsonl.read_file round-trips the dump. *)
let dump t file =
  let evs = events t in
  Jsonx.write_with file (fun oc -> Sink_jsonl.write oc evs);
  Array.length evs
