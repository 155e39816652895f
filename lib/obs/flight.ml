(* Flight recorder: a fixed-size per-domain ring of the most recent Obs
   events, kept so a post-mortem gets the last moments of a run without
   paying full --trace cost (the rings never grow; old events are
   overwritten in place).

   Layout follows Recorder: each domain writes its own ring, the mutex
   only guards the domain-id -> ring table (taken once per domain and at
   merge time), and the calling domain's ring is cached in domain-local
   storage so the emit path is an array store and two counter bumps. *)

let dummy =
  {
    Obs.ev_name = "";
    ev_cat = "";
    ev_ts_ns = 0;
    ev_dom = 0;
    ev_kind = Obs.Instant;
    ev_args = [];
  }

type ring = {
  buf : Obs.event array;
  mutable next : int;  (* slot the next event lands in *)
  mutable count : int;  (* events currently held, <= capacity *)
}

type t = {
  mutex : Mutex.t;
  rings : (int, ring) Hashtbl.t;
  key : ring option Domain.DLS.key;
  capacity : int;
}

let default_capacity = 512

let create ?(capacity = default_capacity) () =
  if capacity < 1 then invalid_arg "Flight.create: capacity must be positive";
  {
    mutex = Mutex.create ();
    rings = Hashtbl.create 8;
    key = Domain.DLS.new_key (fun () -> None);
    capacity;
  }

let capacity t = t.capacity

let ring_for t dom =
  match Domain.DLS.get t.key with
  | Some r -> r
  | None ->
    Mutex.lock t.mutex;
    let r =
      match Hashtbl.find_opt t.rings dom with
      | Some r -> r
      | None ->
        let r = { buf = Array.make t.capacity dummy; next = 0; count = 0 } in
        Hashtbl.replace t.rings dom r;
        r
    in
    Mutex.unlock t.mutex;
    Domain.DLS.set t.key (Some r);
    r

let emit t ev =
  let r = ring_for t ev.Obs.ev_dom in
  r.buf.(r.next) <- ev;
  r.next <- (r.next + 1) mod Array.length r.buf;
  if r.count < Array.length r.buf then r.count <- r.count + 1

let sink t = emit t

let tee t inner ev =
  emit t ev;
  inner ev

(* Merged snapshot: each ring laid out oldest-first, then a stable sort
   by timestamp (per-ring order is already chronological, single
   writer). *)
let events t =
  Mutex.lock t.mutex;
  let total = Hashtbl.fold (fun _ r acc -> acc + r.count) t.rings 0 in
  let arr = Array.make (max 1 total) dummy in
  let i = ref 0 in
  Hashtbl.iter
    (fun _ r ->
      let cap = Array.length r.buf in
      let start = if r.count < cap then 0 else r.next in
      for j = 0 to r.count - 1 do
        arr.(!i) <- r.buf.((start + j) mod cap);
        incr i
      done)
    t.rings;
  Mutex.unlock t.mutex;
  let arr = if total = 0 then [||] else arr in
  Array.stable_sort (fun a b -> compare a.Obs.ev_ts_ns b.Obs.ev_ts_ns) arr;
  arr

let event_count t =
  Mutex.lock t.mutex;
  let n = Hashtbl.fold (fun _ r acc -> acc + r.count) t.rings 0 in
  Mutex.unlock t.mutex;
  n

(* Atomic JSONL dump (temp-then-rename, like Checkpoint.save): a dump
   interrupted mid-write leaves no truncated file under the real name.
   Pure event lines, so Sink_jsonl.read_file round-trips the dump. *)
let dump t file =
  let evs = events t in
  let tmp = file ^ ".tmp" in
  let oc = open_out_bin tmp in
  (try
     Sink_jsonl.write oc evs;
     close_out oc
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp file;
  Array.length evs
