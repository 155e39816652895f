let run ?(engine = Engine_registry.staged) ?on_hit space =
  let (module E : Engine_intf.S) = engine in
  E.run ?on_hit (Engine_intf.Space space)

let survivors ?engine ?limit space =
  let plan = Plan.make_exn space in
  let acc = ref [] in
  let count = ref 0 in
  let mutex = Mutex.create () in
  let record lookup =
    let point =
      List.map (fun n -> (n, lookup n)) plan.Plan.iter_order
    in
    Mutex.lock mutex;
    (match limit with
    | Some l when !count >= l -> ()
    | _ ->
      incr count;
      acc := point :: !acc);
    Mutex.unlock mutex
  in
  ignore (run ?engine ~on_hit:record space);
  List.rev !acc

let fold ~init ~f space =
  let acc = ref init in
  let stats = run ~on_hit:(fun lookup -> acc := f !acc lookup) space in
  (!acc, stats)
