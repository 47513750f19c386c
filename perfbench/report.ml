(* What a run reports: the end-to-end metrics of an untraced run, the
   per-layer metrics of a traced one, and the files a traced run leaves
   under --out. *)

type outcome = {
  setup_s : float;
  partition_s : float;
  alloc_gb : float;
  peak_rss_mb : float;
  total_cost : float;
  total_iobs : float;
  layers : (string * float) list;  (** traced runs only *)
  sink : Obs.t;  (** the traced in-process engine calls *)
  attempted : int;
  failed : int;
  errors : string list;  (** failed output checks *)
}

let end_to_end o =
  [
    ("setup_s", "s", o.setup_s);
    ("partition_s", "s", o.partition_s);
    ("alloc_gb", "GB", o.alloc_gb);
    ("peak_rss_mb", "MB", o.peak_rss_mb);
    ("total_cost", "USD", o.total_cost);
    ("total_iobs", "count", o.total_iobs);
  ]

(* Every per-layer metric with its unit, in README order. A workload that
   does not reach a layer reports 0 for it. *)
let layer_units =
  [
    ("netlist.parse_s", "s");
    ("techmap.map_s", "s");
    ("hypergraph.build_s", "s");
    ("frontend.alloc_mw", "Mwords");
    ("techmap.cells", "count");
    ("hypergraph.nets", "count");
    ("hypergraph.pins", "count");
    ("coarsen.s", "s");
    ("coarsen.levels", "count");
    ("coarsen.coarsest_cells", "count");
    ("coarsen.alloc_mw", "Mwords");
    ("kway.coarse_s", "s");
    ("kway.refine_s", "s");
    ("kway.splits", "count");
    ("kway.device_attempts", "count");
    ("fm.s", "s");
    ("fm.applied_ops", "count");
    ("fm.rolled_back_ops", "count");
    ("fm.rescored_cells", "count");
    ("fm.passes", "count");
    ("fm.moves_per_s", "1/s");
    ("fm.alloc_words_per_move", "words");
    ("projection.s", "s");
    ("projection.dirty_cells", "count");
    ("projection.edited_cells", "count");
    ("kway.warm_s", "s");
    ("kway.warm_fallbacks", "count");
    ("service.resubmit_p50_ms", "ms");
    ("service.resubmit_tail_ms", "ms");
    ("service.hit_p50_ms", "ms");
    ("service.decode_ms.resubmit", "ms");
    ("service.queue_wait_ms.resubmit", "ms");
    ("service.run_ms.resubmit", "ms");
    ("service.encode_ms.resubmit", "ms");
    ("service.transport_ms.resubmit", "ms");
    ("service.decode_ms.fallback", "ms");
    ("service.queue_wait_ms.fallback", "ms");
    ("service.run_ms.fallback", "ms");
    ("service.encode_ms.fallback", "ms");
    ("service.transport_ms.fallback", "ms");
    ("service.decode_ms.hit", "ms");
    ("service.transport_ms.hit", "ms");
    ("service.fm_applied_ops", "count");
    ("obs.trace_overhead_s", "s");
  ]

let per_layer o =
  List.map
    (fun (name, unit_) ->
      (name, unit_, Option.value ~default:0. (List.assoc_opt name o.layers)))
    layer_units

let metrics ~trace o = if trace then per_layer o else end_to_end o

let json_string s = Obs.Json.to_compact_string (Obs.Json.String s)

(* The result line: every digit of every value, one JSON object. *)
let print ~trace o =
  let metrics =
    String.concat ","
      (List.map
         (fun (name, unit_, v) ->
           Printf.sprintf "%s:{\"value\":%.17g,\"unit\":%s}" (json_string name)
             v (json_string unit_))
         (metrics ~trace o))
  in
  Printf.printf
    "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!"
    (o.errors = []) o.attempted o.failed metrics

let ensure_dir out =
  try Unix.mkdir out 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()

let path ~out ~name ~seed suffix =
  Filename.concat out (Printf.sprintf "%s-seed%d.%s" name seed suffix)

(* A traced run's Perfetto trace and per-layer metrics. *)
let write_files ~out ~name ~seed o =
  ensure_dir out;
  Obs.Trace.write ~path:(path ~out ~name ~seed "trace.json") o.sink;
  Obs.Json.write_file
    ~path:(path ~out ~name ~seed "layers.json")
    (Obs.Json.Obj
       (List.map
          (fun (k, u, v) ->
            ( k,
              Obs.Json.Obj
                [ ("value", Obs.Json.Float v); ("unit", Obs.Json.String u) ] ))
          (per_layer o)))
