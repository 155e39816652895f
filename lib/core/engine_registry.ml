(* Name-keyed engine selection: the one place that knows which engines
   exist. Each engine is one catalog row carrying its constructor, so
   the listing, the help text, the CLI defaults and [find] all read the
   same rows. *)

(* The compiled tiers plan a [Space] once and run a handed-in [Plan] as
   given. *)
let on_plan run ?on_hit = function
  | Engine_intf.Space space -> run ?on_hit (Plan.make_exn space)
  | Engine_intf.Plan plan -> run ?on_hit plan

let engine ?resumable name
    (run : ?on_hit:Engine.on_hit -> Engine_intf.target -> Engine.stats) :
    (module Engine_intf.S) =
  (module struct
    let name = name
    let run = run
    let resumable = resumable
  end)

(* The interpreters plan a [Space] themselves (naive or hoisted), which
   reproduces their cost model end to end; a handed-in plan is walked
   as given. *)
let interp variant name _ =
  engine name (fun ?on_hit -> function
    | Engine_intf.Space space -> Engine_interp.run ?on_hit ~variant space
    | Engine_intf.Plan plan -> Engine_interp.run_plan ?on_hit plan)

let parallel param =
  let domains = Option.value param ~default:4 in
  engine
    (Printf.sprintf "parallel-%d" domains)
    (on_plan (Engine_parallel.run ~domains))
    ~resumable:(fun ?on_hit ?checkpoint ?resume ?fault plan ->
      Engine_parallel.run_resumable ?on_hit ?checkpoint ?resume ?fault
        ~domains plan)

(* Bare "native" keeps its own name (and one thread) so run records and
   archive groups written before the parameter existed still match. *)
let native threads =
  let name =
    match threads with
    | None -> "native"
    | Some n -> Printf.sprintf "native-%d" n
  in
  engine name (on_plan (Engine_native.run ?workdir:None ?threads))

let staged = engine "staged" (on_plan Engine_staged.run)

type entry = {
  e_spec : string;
  e_descr : string;
  e_propagate_default : bool;
  e_opaque : bool;
  e_resumable : bool;
  e_provenance : bool;
  e_base : string;
  e_param : string option;
  e_make : int option -> (module Engine_intf.S);
}

let row ?param ?(propagate = true) ?(opaque = true) ?(provenance = true) base
    descr make =
  let (module E : Engine_intf.S) = make None in
  {
    e_spec =
      (match param with
      | None -> base
      | Some noun ->
        Printf.sprintf "%s[:%sS]" base (String.uppercase_ascii noun));
    e_descr = descr;
    e_propagate_default = propagate;
    e_opaque = opaque;
    e_resumable = Option.is_some E.resumable;
    e_provenance = provenance;
    e_base = base;
    e_param = param;
    e_make = make;
  }

let catalog =
  [
    (* The deliberately-unoptimized baseline: propagation would change
       the cost model that is its whole point. *)
    row "interp-naive" ~propagate:false
      "tree-walking interpreter, nothing hoisted (the paper's \
       scripting-language baseline)"
      (interp `Naive "interp-naive");
    row "interp" "tree-walking interpreter over the hoisted plan"
      (interp `Hoisted "interp");
    row "vm" "bytecode compiler + stack VM" (fun _ ->
        engine "vm" (on_plan Engine_vm.run_plan));
    row "staged" "closure-staged compiler (the default)" (fun _ -> staged);
    row "parallel" ~param:"domain"
      "work-stealing staged sweep across OCaml domains (default 4); the \
       only resumable engine"
      parallel;
    (* The generated-C tier cannot call back into opaque OCaml closures,
       and it reports totals only, no pruning provenance. *)
    row "native" ~param:"thread" ~opaque:false ~provenance:false
      "generated C compiled with $BEAST_CC/cc -O2 and run as a subprocess \
       (default 1 thread)"
      native;
  ]

let names = List.map (fun e -> e.e_spec) catalog

let find spec =
  let base, param =
    match String.index_opt spec ':' with
    | None -> (spec, None)
    | Some k ->
      ( String.sub spec 0 k,
        Some (String.sub spec (k + 1) (String.length spec - k - 1)) )
  in
  match (List.find_opt (fun e -> e.e_base = base) catalog, param) with
  | None, _ ->
    Error
      (Printf.sprintf "unknown engine %s (try: %s)" spec
         (String.concat ", " names))
  | Some e, None -> Ok (e, e.e_make None)
  | Some { e_param = None; _ }, Some p ->
    Error (Printf.sprintf "the %s engine takes no parameter (got %S)" base p)
  | Some ({ e_param = Some noun; _ } as e), Some p -> (
    match int_of_string_opt p with
    | Some n when n >= 1 -> Ok (e, e.e_make (Some n))
    | Some n ->
      Error (Printf.sprintf "%s: need at least 1 %s (got %d)" base noun n)
    | None ->
      Error (Printf.sprintf "%s: expected a %s count, got %S" base noun p))
