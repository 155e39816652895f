open Beast_core
open Beast_gpu
open Expr.Infix

type settings = {
  device : Device.t;
  precision : Device.precision;
  arithmetic : Device.arithmetic;
  trans_a : bool;
  trans_b : bool;
}

let default_settings =
  {
    device = Device.tesla_k40c;
    precision = Device.Double;
    arithmetic = Device.Real;
    trans_a = false;
    trans_b = false;
  }

let iterator_names =
  [
    "dim_m"; "dim_n"; "blk_m"; "blk_n"; "blk_k"; "dim_vec"; "vec_mul";
    "dim_m_a"; "dim_n_a"; "dim_m_b"; "dim_n_b"; "tex_a"; "tex_b";
    "shmem_l1"; "shmem_banks";
  ]

let constraint_names =
  [
    ("over_max_threads", Space.Hard);
    ("over_max_regs_per_thread", Space.Hard);
    ("over_max_regs_per_block", Space.Hard);
    ("over_max_shmem", Space.Hard);
    ("low_occupancy_regs", Space.Soft);
    ("low_occupancy_shmem", Space.Soft);
    ("low_fmas", Space.Soft);
    ("partial_warps", Space.Soft);
    ("cant_reshape_a1", Space.Correctness);
    ("cant_reshape_b1", Space.Correctness);
    ("cant_reshape_a2", Space.Correctness);
    ("cant_reshape_b2", Space.Correctness);
  ]

let v = Expr.var
let i = Expr.int

(* Closure iterator over the divisors d of threads_per_block admissible
   as the first read-grid dimension: d within its range bound and the
   cofactor within the partner bound. Replaces the full grid scan that
   cant_reshape_a1/b1 would otherwise reject point by point. [blk] is
   the side's own block dimension ([blk_m] for A, [blk_n] for B), which
   the bounds read with [blk_k] and [dim_vec]. *)
let divisor_pairs_iter ~blk ~bound_m ~bound_n =
  (* The divisor set only depends on (threads, bound_m, bound_n), which
     repeat across millions of loop entries: memoize per key. *)
  let memo : (int * int * int, Value.t list) Hashtbl.t = Hashtbl.create 256 in
  Iter.of_list_fn
    ~deps:[ "threads_per_block"; blk; "blk_k"; "dim_vec" ]
    (fun lookup ->
      let threads = Value.to_int (lookup "threads_per_block") in
      let bm = Value.to_int (bound_m lookup)
      and bn = Value.to_int (bound_n lookup) in
      let key = (threads, bm, bn) in
      match Hashtbl.find_opt memo key with
      | Some vs -> vs
      | None ->
        (* O(sqrt threads): collect both members of each divisor pair. *)
        let rec collect d acc =
          if d * d > threads then acc
          else if threads mod d = 0 then begin
            let acc = d :: acc in
            let acc =
              let e = threads / d in
              if e <> d then e :: acc else acc
            in
            collect (d + 1) acc
          end
          else collect (d + 1) acc
        in
        let vs =
          collect 1 []
          |> List.filter (fun d -> d <= bm && threads / d <= bn)
          |> List.sort Int.compare
          |> List.map Value.int
        in
        Hashtbl.replace memo key vs;
        vs)

let build_space ~divisor_opt ~settings () =
  let d = settings.device in
  let caps = Capability.lookup_exn d in
  let sp = Space.create ~name:"gemm" () in
  (* ---- Figure 10: global settings ---- *)
  Space.setting_s sp "precision" (Device.precision_name settings.precision);
  Space.setting_s sp "arithmetic" (Device.arithmetic_name settings.arithmetic);
  Space.setting_i sp "trans_a" (if settings.trans_a then 1 else 0);
  Space.setting_i sp "trans_b" (if settings.trans_b then 1 else 0);
  (* ---- Figure 8: device query ---- *)
  Space.setting_i sp "max_threads_per_block" d.Device.max_threads_per_block;
  Space.setting_i sp "max_threads_dim_x" d.Device.max_threads_dim_x;
  Space.setting_i sp "max_threads_dim_y" d.Device.max_threads_dim_y;
  Space.setting_i sp "max_shared_mem_per_block" d.Device.max_shared_mem_per_block;
  Space.setting_i sp "warp_size" d.Device.warp_size;
  Space.setting_i sp "max_regs_per_block" d.Device.max_regs_per_block;
  Space.setting_i sp "max_threads_per_multi_processor"
    d.Device.max_threads_per_multi_processor;
  Space.setting_i sp "max_registers_per_multi_processor"
    d.Device.max_registers_per_multi_processor;
  Space.setting_i sp "max_shmem_per_multi_processor"
    d.Device.max_shmem_per_multi_processor;
  Space.setting_i sp "float_size" d.Device.float_size;
  (* ---- Figure 9: compute-capability lookup ---- *)
  Space.setting_i sp "max_blocks_per_multi_processor" caps.Capability.max_blocks_per_mp;
  Space.setting_i sp "max_warps_per_multi_processor" caps.Capability.max_warps_per_mp;
  Space.setting_i sp "max_registers_per_thread" caps.Capability.max_regs_per_thread;
  (* ---- Figure 14's two tunables ---- *)
  Space.setting_i sp "min_threads_per_multi_processor" 256;
  Space.setting_i sp "min_fmas_per_load" 2;
  let dbl = v "precision" =: Expr.string "double" in
  let cplx = v "arithmetic" =: Expr.string "complex" in
  let ta = v "trans_a" <>: i 0 in
  let tb = v "trans_b" <>: i 0 in
  (* ---- Figure 11: the 15 iterators ---- *)
  Space.iterator sp "dim_m" (Iter.range (i 1) (v "max_threads_dim_x" +: i 1));
  Space.iterator sp "dim_n" (Iter.range (i 1) (v "max_threads_dim_y" +: i 1));
  Space.iterator sp "blk_m"
    (Iter.range ~step:(v "dim_m") (v "dim_m") (v "max_threads_dim_x" +: i 1));
  Space.iterator sp "blk_n"
    (Iter.range ~step:(v "dim_n") (v "dim_n") (v "max_threads_dim_y" +: i 1));
  Space.iterator sp "blk_k"
    (Iter.range (i 1)
       (Expr.min_ (v "max_threads_dim_x") (v "max_threads_dim_y") +: i 1));
  (* dim_vec per precision/arithmetic: double/real -> {1,2};
     double/complex -> {1}; single/real -> {1,4}; single/complex -> {1,2}.
     The settings are constants, so the conditionals fold at planning. *)
  Space.iterator sp "dim_vec"
    (Iter.range
       ~step:(Expr.if_ (not_ dbl &&: not_ cplx) (i 3) (i 1))
       (i 1)
       (Expr.if_ dbl (Expr.if_ cplx (i 2) (i 3)) (Expr.if_ cplx (i 3) (i 5))));
  Space.iterator sp "vec_mul"
    (Iter.range (i 0) (Expr.if_ (v "dim_vec" =: i 1) (i 1) (i 2)));
  let bound_m_a lookup =
    Value.div
      (if settings.trans_a then lookup "blk_k" else lookup "blk_m")
      (lookup "dim_vec")
  in
  let bound_n_a lookup =
    if settings.trans_a then lookup "blk_m" else lookup "blk_k"
  in
  let bound_m_b lookup =
    Value.div
      (if settings.trans_b then lookup "blk_n" else lookup "blk_k")
      (lookup "dim_vec")
  in
  let bound_n_b lookup =
    if settings.trans_b then lookup "blk_k" else lookup "blk_n"
  in
  if divisor_opt then begin
    Space.iterator sp "dim_m_a"
      (divisor_pairs_iter ~blk:"blk_m" ~bound_m:bound_m_a ~bound_n:bound_n_a);
    Space.derived sp "dim_n_a" (v "threads_per_block" /: v "dim_m_a");
    Space.iterator sp "dim_m_b"
      (divisor_pairs_iter ~blk:"blk_n" ~bound_m:bound_m_b ~bound_n:bound_n_b);
    Space.derived sp "dim_n_b" (v "threads_per_block" /: v "dim_m_b")
  end
  else begin
    Space.iterator sp "dim_m_a"
      (Iter.range (i 1)
         (Expr.if_ ta
            ((v "blk_k" /: v "dim_vec") +: i 1)
            ((v "blk_m" /: v "dim_vec") +: i 1)));
    Space.iterator sp "dim_n_a"
      (Iter.range (i 1)
         (Expr.if_ ta (v "blk_m" +: i 1) (v "blk_k" +: i 1)));
    Space.iterator sp "dim_m_b"
      (Iter.range (i 1)
         (Expr.if_ tb
            ((v "blk_n" /: v "dim_vec") +: i 1)
            ((v "blk_k" /: v "dim_vec") +: i 1)));
    Space.iterator sp "dim_n_b"
      (Iter.range (i 1)
         (Expr.if_ tb (v "blk_k" +: i 1) (v "blk_n" +: i 1)))
  end;
  Space.iterator sp "tex_a" (Iter.range_i 0 2);
  Space.iterator sp "tex_b" (Iter.range_i 0 2);
  Space.iterator sp "shmem_l1" (Iter.range_i 0 2);
  Space.iterator sp "shmem_banks" (Iter.range_i 0 2);
  (* ---- Figure 12: derived variables ---- *)
  let times_if cond k e = Expr.if_ cond (e *: i k) e in
  Space.derived sp "threads_per_block" (v "dim_m" *: v "dim_n");
  Space.derived sp "thr_m" (v "blk_m" /: v "dim_m");
  Space.derived sp "thr_n" (v "blk_n" /: v "dim_n");
  Space.derived sp "regs_per_thread"
    (times_if cplx 2 (times_if dbl 2 (v "thr_m" *: v "thr_n")));
  Space.derived sp "regs_per_block" (v "regs_per_thread" *: v "threads_per_block");
  Space.derived sp "shmem_per_block"
    (times_if cplx 2
       (times_if dbl 2 (v "blk_k" *: (v "blk_m" +: v "blk_n") *: v "float_size")));
  Space.derived sp "max_blocks_by_regs"
    (Expr.min_
       (v "max_registers_per_multi_processor" /: v "regs_per_block")
       (v "max_blocks_per_multi_processor"));
  Space.derived sp "max_threads_by_regs"
    (v "max_blocks_by_regs" *: v "threads_per_block");
  Space.derived sp "max_blocks_by_shmem"
    (Expr.min_
       (v "max_shmem_per_multi_processor" /: v "shmem_per_block")
       (v "max_blocks_per_multi_processor"));
  Space.derived sp "max_threads_by_shmem"
    (v "max_blocks_by_shmem" *: v "threads_per_block");
  Space.derived sp "loads_per_thread"
    ((v "thr_m" +: v "thr_n") *: v "blk_k" /: v "dim_vec");
  Space.derived sp "loads_per_block"
    (times_if cplx 2 (v "loads_per_thread" *: v "threads_per_block"));
  Space.derived sp "fmas_per_thread" (v "thr_m" *: v "thr_n" *: v "blk_k");
  Space.derived sp "fmas_per_block"
    (times_if cplx 4 (v "fmas_per_thread" *: v "threads_per_block"));
  (* ---- Figure 13: hard constraints ---- *)
  Space.constrain sp ~cls:Space.Hard "over_max_threads"
    (v "threads_per_block" >: v "max_threads_per_block");
  Space.constrain sp ~cls:Space.Hard "over_max_regs_per_thread"
    (v "regs_per_thread" >: v "max_registers_per_thread");
  Space.constrain sp ~cls:Space.Hard "over_max_regs_per_block"
    (v "regs_per_block" >: v "max_regs_per_block");
  Space.constrain sp ~cls:Space.Hard "over_max_shmem"
    (v "shmem_per_block" >: v "max_shared_mem_per_block");
  (* ---- Figure 14: soft constraints ---- *)
  Space.constrain sp ~cls:Space.Soft "low_occupancy_regs"
    (v "max_threads_by_regs" <: v "min_threads_per_multi_processor");
  Space.constrain sp ~cls:Space.Soft "low_occupancy_shmem"
    (v "max_threads_by_shmem" <: v "min_threads_per_multi_processor");
  (* Figure 14 writes fmas_per_block / loads_per_block < min_fmas_per_load;
     the multiplied form is equivalent for positive loads and also covers
     loads_per_block = 0 (possible when dim_vec exceeds the tiny tile's
     load count, where Python would raise ZeroDivisionError). *)
  Space.constrain sp ~cls:Space.Soft "low_fmas"
    (v "fmas_per_block" <: (v "min_fmas_per_load" *: v "loads_per_block"));
  Space.constrain sp ~cls:Space.Soft "partial_warps"
    (v "threads_per_block" %: v "warp_size" <>: i 0);
  (* ---- Figure 15: correctness constraints ---- *)
  if not divisor_opt then begin
    Space.constrain sp ~cls:Space.Correctness "cant_reshape_a1"
      (v "dim_m_a" *: v "dim_n_a" <>: v "threads_per_block");
    Space.constrain sp ~cls:Space.Correctness "cant_reshape_b1"
      (v "dim_m_b" *: v "dim_n_b" <>: v "threads_per_block")
  end;
  Space.constrain sp ~cls:Space.Correctness "cant_reshape_a2"
    (Expr.if_ ta
       ((v "blk_k" %: (v "dim_m_a" *: v "dim_vec") <>: i 0)
       ||: (v "blk_m" %: v "dim_n_a" <>: i 0))
       ((v "blk_m" %: (v "dim_m_a" *: v "dim_vec") <>: i 0)
       ||: (v "blk_k" %: v "dim_n_a" <>: i 0)));
  Space.constrain sp ~cls:Space.Correctness "cant_reshape_b2"
    (Expr.if_ tb
       ((v "blk_n" %: (v "dim_m_b" *: v "dim_vec") <>: i 0)
       ||: (v "blk_k" %: v "dim_n_b" <>: i 0))
       ((v "blk_k" %: (v "dim_m_b" *: v "dim_vec") <>: i 0)
       ||: (v "blk_n" %: v "dim_n_b" <>: i 0)));
  sp

let space ?(settings = default_settings) () =
  build_space ~divisor_opt:false ~settings ()

let space_divisor_opt ?(settings = default_settings) () =
  build_space ~divisor_opt:true ~settings ()

let decode settings lookup =
  Perf_model.config_of_lookup ~precision:settings.precision
    ~arithmetic:settings.arithmetic ~trans_a:settings.trans_a
    ~trans_b:settings.trans_b lookup

let objective settings lookup =
  Perf_model.gflops settings.device (decode settings lookup)

let objective_sim settings lookup =
  Sim.gflops settings.device (decode settings lookup)
