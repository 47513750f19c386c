(* The in-process workloads, paper-xc3000 and scale-ml: a round runs the
   front end (Bench_format.parse, Mapper.map, Mapper.to_hypergraph) on
   every input netlist, then one Kway.partition call per circuit. Each
   call is timed from outside; a traced round also hands the engine a
   tracing Obs sink and reads its spans and counters back. *)

type front = {
  parse_s : float;
  map_s : float;
  build_s : float;
  front_words : float;
  cells : int;
  nets : int;
  pins : int;
}

type op = {
  circuit : Inputs.circuit;
  hypergraph : Hypergraph.t;
  wall : float;
  words : float;
  result : (Core.Kway.result, string) result;
}

type round = { front : front; ops : op list; sink : Obs.t }

let front_end (circuits : Inputs.circuit list) =
  let parse_s = ref 0. and map_s = ref 0. and build_s = ref 0. in
  let words = ref 0. in
  let hgs =
    List.map
      (fun (c : Inputs.circuit) ->
        let circuit, tp, wp =
          Measure.timed (fun () -> Netlist.Bench_format.parse c.Inputs.text)
        in
        let circuit =
          match circuit with
          | Ok x -> x
          | Error m -> failwith (c.Inputs.name ^ ": parse: " ^ m)
        in
        let mapped, tm, wm =
          Measure.timed (fun () ->
              Techmap.Mapper.map ~options:c.Inputs.map_options circuit)
        in
        let h, tb, wb =
          Measure.timed (fun () -> Techmap.Mapper.to_hypergraph mapped)
        in
        parse_s := !parse_s +. tp;
        map_s := !map_s +. tm;
        build_s := !build_s +. tb;
        words := !words +. wp +. wm +. wb;
        h)
      circuits
  in
  let sum f = List.fold_left (fun a h -> a + f h) 0 hgs in
  let front =
    {
      parse_s = !parse_s;
      map_s = !map_s;
      build_s = !build_s;
      front_words = !words;
      cells = sum Hypergraph.num_cells;
      nets = sum (fun h -> h.Hypergraph.num_nets);
      pins = sum Hypergraph.pins;
    }
  in
  (front, hgs)

let run_round ~trace circuits =
  let front, hgs = front_end circuits in
  let sink = if trace then Obs.create ~trace:true () else Obs.noop in
  let ops =
    List.map2
      (fun (c : Inputs.circuit) h ->
        let result, wall, words =
          Measure.timed (fun () ->
              Core.Kway.partition ~obs:sink ~options:c.Inputs.options
                ~library:c.Inputs.library h)
        in
        { circuit = c; hypergraph = h; wall; words; result })
      circuits hgs
  in
  { front; ops; sink }

let summary_of o =
  match o.result with
  | Ok r ->
      Some
        ( r.Core.Kway.summary.Fpga.Cost.total_cost,
          r.Core.Kway.summary.Fpga.Cost.total_iobs )
  | Error _ -> None

(* Check every result independently: cover, recount, fit, prices and
   the lower bound. A failed call is counted as failed, not checked. *)
let check r =
  List.filter_map
    (fun o ->
      match o.result with
      | Error _ -> None
      | Ok res -> (
          let what = o.circuit.Inputs.name in
          let library = o.circuit.Inputs.library in
          match Verify.check_result ~library ~what o.hypergraph res with
          | Error e -> Some e
          | Ok () -> (
              match
                Verify.check_bound ~what
                  ~bound:(Verify.lower_bound ~library o.hypergraph)
                  ~total_cost:res.Core.Kway.summary.Fpga.Cost.total_cost
              with
              | Error e -> Some e
              | Ok () -> None)))
    r.ops

(* --- per-layer figures from a traced round --------------------------- *)

(* [numbered p s]: [s] is [p] followed by a decimal number, like the
   engine's "run3" or "coarsen0" span names. *)
let numbered p s =
  let n = String.length p in
  String.length s > n
  && String.sub s 0 n = p
  && String.for_all
       (fun c -> c >= '0' && c <= '9')
       (String.sub s n (String.length s - n))

let last_component path =
  match String.rindex_opt path '/' with
  | None -> path
  | Some i -> String.sub path (i + 1) (String.length path - i - 1)

let top_level path = not (String.contains path '/')

(* Wall seconds and allocated words summed over the spans whose path
   [keep] selects, with their count. *)
let spans_where sink keep =
  List.fold_left
    (fun (secs, words, n) (s : Obs.Trace.span) ->
      if keep s.Obs.Trace.span_name then
        let gc = s.Obs.Trace.gc in
        ( secs +. (s.Obs.Trace.end_secs -. s.Obs.Trace.begin_secs),
          words +. gc.Obs.Trace.minor_words +. gc.Obs.Trace.major_words,
          n + 1 )
      else (secs, words, n))
    (0., 0., 0) (Obs.Trace.spans sink)

let counter snap k =
  float_of_int
    (Option.value ~default:0 (List.assoc_opt k snap.Obs.Snapshot.counters))

(* Cells of the coarsest graph of each multilevel call, summed: the
   last ml.coarsen event of every call (calls restart at level 0). *)
let coarsest_cells snap =
  let cells = ref [] in
  List.iter
    (fun (e : Obs.Snapshot.event) ->
      if e.Obs.Snapshot.name = "ml.coarsen" then
        let field k = List.assoc_opt k e.Obs.Snapshot.fields in
        match (field "level", field "coarse_cells", !cells) with
        | Some (Obs.Json.Int 0), Some (Obs.Json.Int c), _ ->
            cells := c :: !cells
        | Some _, Some (Obs.Json.Int c), _ :: rest -> cells := c :: rest
        | _ -> ())
    snap.Obs.Snapshot.events;
  List.fold_left ( + ) 0 !cells

(* Engine layers, from a tracing sink the engine recorded into. *)
let engine_layers sink =
  let snap = Obs.snapshot sink in
  let coarsen_s, coarsen_w, levels =
    spans_where sink (fun p -> top_level p && numbered "coarsen" p)
  in
  let coarse_s, _, _ =
    spans_where sink (fun p -> top_level p && numbered "run" p)
  in
  let refine_s, _, _ =
    spans_where sink (fun p -> top_level p && numbered "refine" p)
  in
  let fm_s, fm_w, _ =
    spans_where sink (fun p -> numbered "pass" (last_component p))
  in
  let applied = counter snap "fm.applied_ops" in
  [
    ("coarsen.s", coarsen_s);
    ("coarsen.levels", float_of_int levels);
    ("coarsen.coarsest_cells", float_of_int (coarsest_cells snap));
    ("coarsen.alloc_mw", coarsen_w /. 1e6);
    ("kway.coarse_s", coarse_s);
    ("kway.refine_s", refine_s);
    ("kway.splits", counter snap "kway.splits");
    ("kway.device_attempts", counter snap "kway.device_attempts");
    ("fm.s", fm_s);
    ("fm.applied_ops", applied);
    ("fm.rolled_back_ops", counter snap "fm.rolled_back_ops");
    ("fm.rescored_cells", counter snap "fm.rescored_cells");
    ("fm.passes", counter snap "fm.passes");
    ("fm.moves_per_s", if fm_s > 0. then applied /. fm_s else 0.);
    ("fm.alloc_words_per_move", if applied > 0. then fm_w /. applied else 0.);
  ]

let layers r =
  let f = r.front in
  [
    ("netlist.parse_s", f.parse_s);
    ("techmap.map_s", f.map_s);
    ("hypergraph.build_s", f.build_s);
    ("frontend.alloc_mw", f.front_words /. 1e6);
    ("techmap.cells", float_of_int f.cells);
    ("hypergraph.nets", float_of_int f.nets);
    ("hypergraph.pins", float_of_int f.pins);
  ]
  @ engine_layers r.sink

(* --- the workload ------------------------------------------------------ *)

(* What one round leaves behind once its hypergraphs and results are
   dropped. *)
type stats = {
  setup : float;
  part : float;
  words : float;
  ops : int;
  failed_ops : int;
  cost : float;
  iobs : float;
  round_layers : (string * float) list;
}

let stats_of ~trace (r : round) =
  let ok = List.filter_map summary_of r.ops in
  let sum f = List.fold_left (fun a o -> a +. f o) 0. r.ops in
  {
    setup = r.front.parse_s +. r.front.map_s +. r.front.build_s;
    part = sum (fun o -> o.wall);
    words = sum (fun o -> o.words);
    ops = List.length r.ops;
    failed_ops = List.length r.ops - List.length ok;
    cost = List.fold_left (fun a (c, _) -> a +. c) 0. ok;
    iobs = List.fold_left (fun a (_, i) -> a +. float_of_int i) 0. ok;
    round_layers = (if trace then layers r else []);
  }

let run ~name ~circuits ~seconds ~trace =
  let errors = ref [] and first = ref None and last_sink = ref Obs.noop in
  (* Rounds until the budget is spent; a round always completes, so every
     run attempts whole rounds. The first round is checked in full; later
     rounds repeat the same calls and must return the same partitions. *)
  let rounds ~trace ~budget =
    let t0 = Measure.now () in
    let rec go acc =
      if acc <> [] && Measure.now () -. t0 >= budget then List.rev acc
      else begin
        let r = run_round ~trace circuits in
        let summaries = List.map summary_of r.ops in
        (match !first with
        | None ->
            first := Some summaries;
            errors := check r @ !errors
        | Some f when f <> summaries ->
            errors := (name ^ ": a repeated round differs") :: !errors
        | Some _ -> ());
        last_sink := r.sink;
        let st = stats_of ~trace r in
        Printf.eprintf "perfbench: %s round %d: setup %.3f s, %.3f s\n%!" name
          (List.length acc) st.setup st.part;
        go (st :: acc)
      end
    in
    go []
  in
  let half = if trace then seconds /. 2. else seconds in
  let plain = rounds ~trace:false ~budget:half in
  let traced = if trace then rounds ~trace:true ~budget:half else [] in
  let all = plain @ traced in
  let med f rs = Measure.median (List.map f rs) in
  let layers =
    match traced with
    | [] -> []
    | t :: _ ->
        ( "obs.trace_overhead_s",
          med (fun s -> s.part) traced -. med (fun s -> s.part) plain )
        :: List.map
             (fun (k, _) ->
               (k, med (fun s -> List.assoc k s.round_layers) traced))
             t.round_layers
  in
  {
    Report.setup_s = med (fun s -> s.setup) plain;
    partition_s = med (fun s -> s.part) plain;
    alloc_gb = med (fun s -> s.words) plain *. 8. /. 1e9;
    peak_rss_mb = Option.value ~default:0. (Measure.peak_rss_mb "self");
    total_cost = med (fun s -> s.cost) plain;
    total_iobs = med (fun s -> s.iobs) plain;
    layers;
    sink = !last_sink;
    attempted = List.fold_left (fun a s -> a + s.ops) 0 all;
    failed = List.fold_left (fun a s -> a + s.failed_ops) 0 all;
    errors = List.rev !errors;
  }
