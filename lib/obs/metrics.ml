(* Dependency-free metrics registry: log-bucketed histograms, counters
   and gauges, recorded per domain without locks on the hot path and
   merged losslessly at snapshot time.

   Histogram buckets follow the HDR scheme: [sub] = 2^3 sub-buckets per
   power-of-two octave. Values below [2*sub] get their own exact bucket;
   a larger value with highest set bit m lands in bucket
   [(m - 3) * sub + (v lsr (m - 3))]. Bucket boundaries are therefore a
   fixed, value-independent grid (relative width <= 1/sub = 12.5%), so
   adding two histograms bucket-wise is exactly the histogram of the
   pooled samples — the property the shard merge relies on.

   Recording is constant-time (msb + two increments) into the calling
   domain's private bucket array; the registry mutex is taken only when
   a domain first touches a metric and when snapshotting. *)

(* ------------------------------------------------------------------ *)
(* Bucket grid                                                         *)
(* ------------------------------------------------------------------ *)

let sub_bits = 3
let sub = 1 lsl sub_bits
let n_buckets = 64 * sub

let msb v =
  (* Position of the highest set bit of [v > 0]; five shift-compare
     steps, no allocation. *)
  let r = ref 0 and v = ref v in
  if !v lsr 32 <> 0 then begin
    r := !r + 32;
    v := !v lsr 32
  end;
  if !v lsr 16 <> 0 then begin
    r := !r + 16;
    v := !v lsr 16
  end;
  if !v lsr 8 <> 0 then begin
    r := !r + 8;
    v := !v lsr 8
  end;
  if !v lsr 4 <> 0 then begin
    r := !r + 4;
    v := !v lsr 4
  end;
  if !v lsr 2 <> 0 then begin
    r := !r + 2;
    v := !v lsr 2
  end;
  if !v lsr 1 <> 0 then incr r;
  !r

let bucket_of_value v =
  if v < 2 * sub then max 0 v
  else
    let k = msb v - sub_bits in
    (k * sub) + (v lsr k)

let bucket_bounds i =
  (* Half-open [lo, hi): every v with lo <= v < hi maps to bucket i. *)
  if i < 2 * sub then (i, i + 1)
  else
    let k = (i / sub) - 1 in
    let offset = i - (k * sub) in
    (offset lsl k, (offset + 1) lsl k)

(* ------------------------------------------------------------------ *)
(* Live metrics: per-domain cells behind a DLS cache                   *)
(* ------------------------------------------------------------------ *)

type hist_cell = {
  hc_buckets : int array;
  mutable hc_count : int;
  mutable hc_sum : int;
}

type histogram = {
  h_mutex : Mutex.t;
  h_cells : (int, hist_cell) Hashtbl.t;
  h_key : hist_cell option Domain.DLS.key;
}

type counter = {
  c_mutex : Mutex.t;
  c_cells : (int, int ref) Hashtbl.t;
  c_key : int ref option Domain.DLS.key;
}

type gauge = {
  g_mutex : Mutex.t;
  mutable g_value : float;
  mutable g_set : bool;
}

let cell_for ~mutex ~cells ~key ~make =
  match Domain.DLS.get key with
  | Some c -> c
  | None ->
    let dom = (Domain.self () :> int) in
    Mutex.lock mutex;
    let c =
      match Hashtbl.find_opt cells dom with
      | Some c -> c
      | None ->
        let c = make () in
        Hashtbl.replace cells dom c;
        c
    in
    Mutex.unlock mutex;
    Domain.DLS.set key (Some c);
    c

let record h v =
  let v = if v < 0 then 0 else v in
  let c =
    cell_for ~mutex:h.h_mutex ~cells:h.h_cells ~key:h.h_key ~make:(fun () ->
        { hc_buckets = Array.make n_buckets 0; hc_count = 0; hc_sum = 0 })
  in
  let i = bucket_of_value v in
  c.hc_buckets.(i) <- c.hc_buckets.(i) + 1;
  c.hc_count <- c.hc_count + 1;
  c.hc_sum <- c.hc_sum + v

let add c n =
  let cell =
    cell_for ~mutex:c.c_mutex ~cells:c.c_cells ~key:c.c_key ~make:(fun () ->
        ref 0)
  in
  cell := !cell + n

let incr c = add c 1

let set_gauge g v =
  Mutex.lock g.g_mutex;
  g.g_value <- v;
  g.g_set <- true;
  Mutex.unlock g.g_mutex

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)
(* ------------------------------------------------------------------ *)

type handle =
  | Hhist of histogram
  | Hcounter of counter
  | Hgauge of gauge

type meta = {
  m_name : string;
  m_labels : (string * string) list;  (* sorted by label name *)
  m_unit : string;
}

type t = {
  r_mutex : Mutex.t;
  r_metrics : (string, meta * handle) Hashtbl.t;
}

let create () = { r_mutex = Mutex.create (); r_metrics = Hashtbl.create 32 }

let key_of ~name ~labels =
  String.concat "\x00" (name :: List.concat_map (fun (k, v) -> [ k; v ]) labels)

let kind_name = function
  | Hhist _ -> "histogram"
  | Hcounter _ -> "counter"
  | Hgauge _ -> "gauge"

let get_or_create r ?(unit_ = "") ~name ~labels ~kind make =
  let labels = List.sort compare labels in
  let key = key_of ~name ~labels in
  Mutex.lock r.r_mutex;
  let h =
    match Hashtbl.find_opt r.r_metrics key with
    | Some (_, h) -> h
    | None ->
      let h = make () in
      Hashtbl.replace r.r_metrics key
        ({ m_name = name; m_labels = labels; m_unit = unit_ }, h);
      h
  in
  Mutex.unlock r.r_mutex;
  if kind_name h <> kind then
    invalid_arg
      (Printf.sprintf "Metrics: %s already registered as a %s, wanted a %s"
         name (kind_name h) kind);
  h

let histogram r ?unit_ ~name ~labels () =
  match
    get_or_create r ?unit_ ~name ~labels ~kind:"histogram" (fun () ->
        Hhist
          {
            h_mutex = Mutex.create ();
            h_cells = Hashtbl.create 8;
            h_key = Domain.DLS.new_key (fun () -> None);
          })
  with
  | Hhist h -> h
  | _ -> assert false

let counter r ?unit_ ~name ~labels () =
  match
    get_or_create r ?unit_ ~name ~labels ~kind:"counter" (fun () ->
        Hcounter
          {
            c_mutex = Mutex.create ();
            c_cells = Hashtbl.create 8;
            c_key = Domain.DLS.new_key (fun () -> None);
          })
  with
  | Hcounter c -> c
  | _ -> assert false

let gauge r ?unit_ ~name ~labels () =
  match
    get_or_create r ?unit_ ~name ~labels ~kind:"gauge" (fun () ->
        Hgauge { g_mutex = Mutex.create (); g_value = 0.0; g_set = false })
  with
  | Hgauge g -> g
  | _ -> assert false

(* ------------------------------------------------------------------ *)
(* Snapshots                                                           *)
(* ------------------------------------------------------------------ *)

type hist_snapshot = {
  s_sub : int;
  s_count : int;
  s_sum : int;
  s_buckets : (int * int) list;  (* sparse (index, count), index-sorted *)
}

type mvalue =
  | Vhist of hist_snapshot
  | Vcounter of int
  | Vgauge of float

type item = {
  name : string;
  labels : (string * string) list;
  unit_ : string;
  value : mvalue;
}

type snapshot = item list

let hist_snapshot_of h =
  Mutex.lock h.h_mutex;
  let buckets = Array.make n_buckets 0 in
  let count = ref 0 and sum = ref 0 in
  Hashtbl.iter
    (fun _ c ->
      Array.iteri (fun i k -> buckets.(i) <- buckets.(i) + k) c.hc_buckets;
      count := !count + c.hc_count;
      sum := !sum + c.hc_sum)
    h.h_cells;
  Mutex.unlock h.h_mutex;
  let sparse = ref [] in
  for i = n_buckets - 1 downto 0 do
    if buckets.(i) > 0 then sparse := (i, buckets.(i)) :: !sparse
  done;
  { s_sub = sub; s_count = !count; s_sum = !sum; s_buckets = !sparse }

let counter_value c =
  Mutex.lock c.c_mutex;
  let v = Hashtbl.fold (fun _ cell acc -> acc + !cell) c.c_cells 0 in
  Mutex.unlock c.c_mutex;
  v

let compare_item a b =
  match String.compare a.name b.name with
  | 0 -> compare a.labels b.labels
  | c -> c

let snapshot r =
  Mutex.lock r.r_mutex;
  let metas = Hashtbl.fold (fun _ mh acc -> mh :: acc) r.r_metrics [] in
  Mutex.unlock r.r_mutex;
  List.map
    (fun (m, h) ->
      let value =
        match h with
        | Hhist h -> Vhist (hist_snapshot_of h)
        | Hcounter c -> Vcounter (counter_value c)
        | Hgauge g -> Vgauge g.g_value
      in
      { name = m.m_name; labels = m.m_labels; unit_ = m.m_unit; value })
    metas
  |> List.sort compare_item

module Snapshot = struct
  type t = snapshot

  let empty : t = []

  let equal (a : t) (b : t) = a = b

  (* ---------------- statistics ---------------- *)

  let quantile (h : hist_snapshot) q =
    if h.s_count = 0 then Float.nan
    else begin
      let q = Float.min 1.0 (Float.max 0.0 q) in
      let rank = q *. float_of_int h.s_count in
      let rec walk cum = function
        | [] -> Float.nan
        | (i, k) :: rest ->
          let cum' = cum +. float_of_int k in
          if cum' >= rank || rest = [] then begin
            let lo, hi = bucket_bounds i in
            let frac =
              if k = 0 then 0.0
              else Float.min 1.0 (Float.max 0.0 ((rank -. cum) /. float_of_int k))
            in
            float_of_int lo +. (float_of_int (hi - lo) *. frac)
          end
          else walk cum' rest
      in
      walk 0.0 h.s_buckets
    end

    let mean (h : hist_snapshot) =
      if h.s_count = 0 then Float.nan
      else float_of_int h.s_sum /. float_of_int h.s_count

    let max_bound (h : hist_snapshot) =
      match List.rev h.s_buckets with
      | [] -> 0
      | (i, _) :: _ -> snd (bucket_bounds i)

  (* ---------------- merging ---------------- *)

  let merge_hist a b =
    if a.s_sub <> b.s_sub then
      Error
        (Printf.sprintf "histogram sub-bucket mismatch (%d vs %d)" a.s_sub
           b.s_sub)
    else begin
      let rec go xs ys =
        match (xs, ys) with
        | [], l | l, [] -> l
        | (i, k) :: xr, (j, _) :: _ when i < j -> (i, k) :: go xr ys
        | (i, _) :: _, (j, k) :: yr when j < i -> (j, k) :: go xs yr
        | (i, k) :: xr, (_, k') :: yr -> (i, k + k') :: go xr yr
      in
      Ok
        {
          s_sub = a.s_sub;
          s_count = a.s_count + b.s_count;
          s_sum = a.s_sum + b.s_sum;
          s_buckets = go a.s_buckets b.s_buckets;
        }
    end

  let merge_item a b =
    match (a.value, b.value) with
    | Vhist x, Vhist y ->
      Result.map (fun h -> { a with value = Vhist h }) (merge_hist x y)
    | Vcounter x, Vcounter y -> Ok { a with value = Vcounter (x + y) }
    | Vgauge x, Vgauge y -> Ok { a with value = Vgauge (Float.max x y) }
    | _ ->
      Error (Printf.sprintf "metric %s changes kind between snapshots" a.name)

  (* Union by (name, labels): histogram buckets and counters add (the
     pooled-sample semantics — lossless for histograms); gauges keep
     the maximum. Items present in only some snapshots pass through. *)
  let merge (snaps : t list) : (t, string) result =
    let rec merge2 xs ys =
      match (xs, ys) with
      | [], l | l, [] -> Ok l
      | x :: xr, y :: _ when compare_item x y < 0 ->
        Result.map (fun l -> x :: l) (merge2 xr ys)
      | x :: _, y :: yr when compare_item y x < 0 ->
        Result.map (fun l -> y :: l) (merge2 xs yr)
      | x :: xr, y :: yr -> (
        match merge_item x y with
        | Error _ as e -> e
        | Ok m -> Result.map (fun l -> m :: l) (merge2 xr yr))
    in
    List.fold_left
      (fun acc s -> Result.bind acc (fun m -> merge2 m s))
      (Ok empty) snaps

  (* ---------------- selection ---------------- *)

  let find (t : t) ~name ~labels =
    let labels = List.sort compare labels in
    List.find_opt (fun it -> it.name = name && it.labels = labels) t

  let histograms (t : t) ~name =
    List.filter_map
      (fun it ->
        match it.value with
        | Vhist h when it.name = name -> Some (it.labels, h)
        | _ -> None)
      t

  (* ---------------- JSON ---------------- *)

  let add_json_item buf it =
    let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
    add "{ \"name\": ";
    Trace_json.escape buf it.name;
    add ", \"labels\": {";
    List.iteri
      (fun i (k, v) ->
        if i > 0 then add ", ";
        Trace_json.escape buf k;
        add ": ";
        Trace_json.escape buf v)
      it.labels;
    add "}";
    if it.unit_ <> "" then begin
      add ", \"unit\": ";
      Trace_json.escape buf it.unit_
    end;
    (match it.value with
    | Vhist h ->
      add ", \"type\": \"histogram\", \"sub\": %d, \"count\": %d, \"sum\": %d, \"buckets\": ["
        h.s_sub h.s_count h.s_sum;
      List.iteri
        (fun i (b, k) ->
          if i > 0 then add ", ";
          add "[%d, %d]" b k)
        h.s_buckets;
      add "]"
    | Vcounter v -> add ", \"type\": \"counter\", \"value\": %d" v
    | Vgauge v ->
      add ", \"type\": \"gauge\", \"value\": ";
      Trace_json.float buf v);
    add " }"

  (* Deterministic: items sorted by (name, labels), labels sorted, fixed
     key order, sparse index-sorted buckets. [indent] prefixes the
     per-item lines so the block nests inside Stats_io's layout. *)
  let add_json buf ?(indent = "") (t : t) =
    Buffer.add_string buf "[";
    List.iteri
      (fun i it ->
        Buffer.add_string buf (if i = 0 then "\n" else ",\n");
        Buffer.add_string buf indent;
        Buffer.add_string buf "  ";
        add_json_item buf it)
      t;
    if t <> [] then begin
      Buffer.add_string buf "\n";
      Buffer.add_string buf indent
    end;
    Buffer.add_string buf "]"

  let to_json (t : t) =
    let buf = Buffer.create 1024 in
    add_json buf t;
    Buffer.contents buf

  let of_jsonx (json : Jsonx.t) : (t, string) result =
    try
      let items =
        List.map
          (fun row ->
            let name = Jsonx.to_str "name" (Jsonx.member "name" row) in
            let labels =
              match Jsonx.member_opt "labels" row with
              | Some (Jsonx.Obj kvs) ->
                List.sort compare
                  (List.map (fun (k, v) -> (k, Jsonx.to_str k v)) kvs)
              | Some _ -> raise (Jsonx.Error "labels: expected an object")
              | None -> []
            in
            let unit_ =
              match Jsonx.member_opt "unit" row with
              | Some u -> Jsonx.to_str "unit" u
              | None -> ""
            in
            let value =
              match Jsonx.to_str "type" (Jsonx.member "type" row) with
              | "histogram" ->
                let buckets =
                  List.map
                    (fun pair ->
                      match pair with
                      | Jsonx.Arr [ b; k ] ->
                        (Jsonx.to_int "bucket" b, Jsonx.to_int "count" k)
                      | _ ->
                        raise (Jsonx.Error "buckets: expected [index, count]"))
                    (Jsonx.to_list "buckets" (Jsonx.member "buckets" row))
                in
                Vhist
                  {
                    s_sub = Jsonx.to_int "sub" (Jsonx.member "sub" row);
                    s_count = Jsonx.to_int "count" (Jsonx.member "count" row);
                    s_sum = Jsonx.to_int "sum" (Jsonx.member "sum" row);
                    s_buckets = buckets;
                  }
              | "counter" ->
                Vcounter (Jsonx.to_int "value" (Jsonx.member "value" row))
              | "gauge" ->
                Vgauge (Jsonx.to_float "value" (Jsonx.member "value" row))
              | other ->
                raise
                  (Jsonx.Error (Printf.sprintf "unknown metric type %S" other))
            in
            { name; labels; unit_; value })
          (Jsonx.to_list "metrics" json)
      in
      Ok (List.sort compare_item items)
    with Jsonx.Error msg -> Error msg

  let of_json text =
    match Jsonx.parse text with
    | Error msg -> Error msg
    | Ok json -> of_jsonx json

  (* ---------------- Prometheus text exposition ---------------- *)

  let prom_labels buf labels =
    if labels <> [] then begin
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf k;
          Buffer.add_string buf "=";
          Trace_json.escape buf v)
        labels;
      Buffer.add_char buf '}'
    end

  let prom_labels_plus buf labels extra =
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_string buf k;
        Buffer.add_string buf "=";
        Trace_json.escape buf v)
      (labels @ [ extra ]);
    Buffer.add_char buf '}'

  let to_prometheus (t : t) =
    let buf = Buffer.create 4096 in
    let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
    let typed = Hashtbl.create 16 in
    List.iter
      (fun it ->
        let kind =
          match it.value with
          | Vhist _ -> "histogram"
          | Vcounter _ -> "counter"
          | Vgauge _ -> "gauge"
        in
        if not (Hashtbl.mem typed it.name) then begin
          Hashtbl.replace typed it.name ();
          add "# TYPE %s %s\n" it.name kind
        end;
        match it.value with
        | Vcounter v ->
          Buffer.add_string buf it.name;
          prom_labels buf it.labels;
          add " %d\n" v
        | Vgauge v ->
          Buffer.add_string buf it.name;
          prom_labels buf it.labels;
          Buffer.add_char buf ' ';
          Trace_json.float buf v;
          Buffer.add_char buf '\n'
        | Vhist h ->
          let cum = ref 0 in
          List.iter
            (fun (i, k) ->
              cum := !cum + k;
              let _, hi = bucket_bounds i in
              add "%s_bucket" it.name;
              prom_labels_plus buf it.labels ("le", string_of_int hi);
              add " %d\n" !cum)
            h.s_buckets;
          add "%s_bucket" it.name;
          prom_labels_plus buf it.labels ("le", "+Inf");
          add " %d\n" h.s_count;
          add "%s_sum" it.name;
          prom_labels buf it.labels;
          add " %d\n" h.s_sum;
          add "%s_count" it.name;
          prom_labels buf it.labels;
          add " %d\n" h.s_count)
      t;
    Buffer.contents buf
end
