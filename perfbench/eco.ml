(* The service-eco workload: `fpgapart serve` as a child process and one
   closed-loop client connection. Set-up spawns the daemon and submits
   the cold bases of the ECO lineages; each round then resubmits 1 %
   edits of every base and resubmits a byte-permuted copy of every base
   netlist, which the daemon answers from its cache.

   Lineage inputs (base options and edits) do not depend on --seed, so
   which resubmits hit the named warm-start fault is fixed. Round [r]
   resubmits with engine seed [2 + r], so no round repeats a cache key,
   and the same in every run; the seed drives the byte permutations of
   the cache-hit netlists. *)

module J = Obs.Json
module P = Service.Protocol

type lineage = {
  base_name : string;
  replication : [ `None | `Functional of int ];
  edits : int;  (** resubmits per round *)
}

(* Sequential circuits in both replication modes. On the last lineage
   the warm start cannot place a projected part on any device (a part
   holding collapsed replicated cells outgrows the 144 IOBs of an XC3090)
   and the daemon silently reruns the job cold: the named fault, counted
   as a failed operation. *)
let lineages =
  [
    { base_name = "s13207"; replication = `None; edits = 6 };
    { base_name = "s5378"; replication = `Functional 0; edits = 2 };
    { base_name = "s13207"; replication = `Functional 0; edits = 1 };
  ]

let base_options l =
  Core.Kway.Options.make ~runs:1 ~seed:1 ~replication:l.replication ~jobs:1 ()

let setups = 3

(* Rounds every run completes before the daemon's memory is read. *)
let rss_rounds = 4

(* --- the daemon ------------------------------------------------------ *)

type daemon = { pid : int; conn : Service.Client.conn }

let live = ref []

let stop_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !live;
  live := []

let () = at_exit stop_all

(* The minor heap is pinned so that the allocation estimate below holds. *)
let minor_heap_bytes = 256. *. 1024. *. 8.

let spawn ?trace ~fpgapart ~socket () =
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  let env =
    Array.append [| "OCAMLRUNPARAM=s=256k" |]
      (Array.of_list
         (List.filter
            (fun kv -> not (String.starts_with ~prefix:"OCAMLRUNPARAM=" kv))
            (Array.to_list (Unix.environment ()))))
  in
  let args =
    [|
      fpgapart; "serve"; "--socket"; socket; "--queue-cap"; "64";
      "--cache-cap"; "4096"; "--jobs"; "1"; "--log-level"; "error";
    |]
  in
  let args =
    match trace with
    | None -> args
    | Some path -> Array.append args [| "--trace"; path |]
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid = Unix.create_process_env fpgapart args env null null Unix.stderr in
  Unix.close null;
  live := pid :: !live;
  let deadline = Measure.now () +. 60. in
  let rec connect () =
    match Service.Client.connect socket with
    | Ok conn -> { pid; conn }
    | Error e when Measure.now () > deadline ->
        failwith ("daemon did not start: " ^ e)
    | Error _ ->
        Unix.sleepf 0.01;
        connect ()
  in
  connect ()

let shutdown d =
  ignore (Service.Client.request d.conn P.Shutdown);
  Service.Client.close d.conn;
  ignore (Unix.waitpid [] d.pid);
  live := List.filter (fun p -> p <> d.pid) !live

let request d req =
  match Service.Client.request d.conn req with
  | Error e -> failwith ("daemon connection: " ^ e)
  | Ok reply -> (
      match Service.Client.ok_or_error reply with
      | Ok r -> r
      | Error (code, msg) ->
          failwith (Printf.sprintf "daemon error %s: %s" code msg))

let member k j =
  match J.member k j with Some v -> v | None -> failwith ("reply lacks " ^ k)

let number k j =
  match J.to_float (member k j) with
  | Some f -> f
  | None -> failwith (k ^ " is not a number")

let counter d k =
  let stats = member "stats" (request d P.Stats) in
  match J.member "counters" (member "obs" stats) with
  | Some counters ->
      Option.value ~default:0 (Option.bind (J.member k counters) J.to_int)
  | None -> 0

(* Minor collections the daemon has run, from its OpenMetrics text. *)
let minor_collections d =
  let text =
    Option.value ~default:"" (J.to_str (member "metrics" (request d P.Metrics)))
  in
  List.fold_left
    (fun acc line ->
      match String.split_on_char ' ' line with
      | [ k; v ]
        when String.starts_with ~prefix:"fpgapart_gc_minor_collections" k ->
          float_of_string v
      | _ -> acc)
    0.
    (String.split_on_char '\n' text)

(* --- inputs ---------------------------------------------------------- *)

type base = {
  lineage : lineage;
  text : string;
  canonical : Netlist.Circuit.t;
  hypergraph : Hypergraph.t;  (** in-process map of the canonical circuit *)
  mutable inproc : Core.Kway.result option;  (** in-process cold run *)
  mutable job : int;
  mutable doc : string;  (** the base reply's result document *)
  deltas : Netlist.Delta.t array;
}

let make_base index lineage =
  let e =
    match Experiments.Suite.find lineage.base_name with
    | Some e -> e
    | None -> failwith ("no circuit " ^ lineage.base_name)
  in
  let text =
    Netlist.Bench_format.to_string (Lazy.force e.Experiments.Suite.circuit)
  in
  let canonical =
    match Netlist.Bench_format.parse text with
    | Ok c -> Service.Digest.canonical_circuit c
    | Error m -> failwith m
  in
  {
    lineage;
    text;
    canonical;
    hypergraph = Techmap.Mapper.to_hypergraph (Techmap.Mapper.map canonical);
    inproc = None;
    job = -1;
    doc = "";
    deltas =
      Array.init lineage.edits (fun i ->
          Netlist.Delta.random
            ~seed:((1000 * (index + 1)) + i + 1)
            ~frac:0.01 canonical);
  }

(* --- one request, timed ------------------------------------------------ *)

let errors = ref []
let error e = errors := e :: !errors
let check = function Ok () -> () | Error e -> error e

type kind = Resubmit | Fallback | Hit

type sample = {
  kind : kind;
  rt_ms : float;  (** client round trip *)
  timings : (string * float) list;  (** the daemon's reply breakdown *)
  result : J.t;  (** the [result] object of the reply's document *)
}

let timings_of reply =
  match J.member "timings" reply with
  | Some (J.Obj kvs) ->
      List.filter_map
        (fun (k, v) -> Option.map (fun f -> (k, f)) (J.to_float v))
        kvs
  | _ -> []

let submit d base ~text =
  request d
    (P.Submit
       {
         name = base.lineage.base_name;
         format = P.Bench;
         netlist = text;
         options = base_options base.lineage;
         envelope = P.default_envelope;
       })

let wait_result d job = request d (P.Result { job; wait = true })

(* A cold submission through to its result document. *)
let cold_submit d base =
  let job = int_of_float (number "job" (submit d base ~text:base.text)) in
  (job, member "result" (wait_result d job))

(* A resubmit through to its result. Whether the daemon fell back to a
   cold run is read from its counter, per request. *)
let resubmit d base ~delta ~options =
  let failed0 = counter d "service.resubmit_warm_failed" in
  let t0 = Measure.now () in
  let reply =
    request d
      (P.Resubmit
         {
           name = base.lineage.base_name;
           base = `Job base.job;
           delta;
           options = Some options;
         })
  in
  let res =
    if J.to_bool (member "cached" reply) = Some true then reply
    else wait_result d (int_of_float (number "job" reply))
  in
  let rt = Measure.now () -. t0 in
  let fell_back = counter d "service.resubmit_warm_failed" > failed0 in
  {
    kind = (if fell_back then Fallback else Resubmit);
    rt_ms = rt *. 1000.;
    timings = timings_of res;
    result = member "result" (member "result" res);
  }

(* A byte-permuted base: a cache hit, byte-identical to the base reply. *)
let hit d base ~text =
  let t0 = Measure.now () in
  let reply = submit d base ~text in
  let rt = Measure.now () -. t0 in
  let doc = member "result" reply in
  if J.to_bool (member "cached" reply) <> Some true then
    error ("a byte-permuted " ^ base.lineage.base_name ^ " missed the cache")
  else if J.to_compact_string doc <> base.doc then
    error ("the hit on " ^ base.lineage.base_name ^ " is not byte-identical");
  {
    kind = Hit;
    rt_ms = rt *. 1000.;
    timings = timings_of reply;
    result = member "result" doc;
  }

(* --- checks ------------------------------------------------------------ *)

let library = Fpga.Library.xc3000

let reply_summary ~what result =
  match Verify.check_reply ~library ~what result with
  | Ok s -> Some s
  | Error e ->
      error e;
      None

(* An in-process result is checked independently and against the lower
   bound, and the daemon's reply must equal it. *)
let check_against ~what h (r : Core.Kway.result) result =
  check (Verify.check_result ~library ~what h r);
  check
    (Verify.check_bound ~what
       ~bound:(Verify.lower_bound ~library h)
       ~total_cost:r.Core.Kway.summary.Fpga.Cost.total_cost);
  Option.iter
    (fun s -> check (Verify.same_as_inprocess ~what s r))
    (reply_summary ~what result)

(* The base reply equals an in-process cold run of the same canonical
   netlist and options. *)
let check_base base result =
  let what = "base " ^ base.lineage.base_name in
  match
    Core.Kway.partition ~options:(base_options base.lineage) ~library
      base.hypergraph
  with
  | Error e -> error (what ^ ": in-process run failed: " ^ e)
  | Ok r ->
      base.inproc <- Some r;
      check_against ~what base.hypergraph r result

(* Replay a resubmit in process: apply the edit, map, project the base
   partition and warm-start, timing Projection.project and
   Kway.warm_start from outside. *)
type replay = {
  edited_h : Hypergraph.t;
  warm : (Core.Kway.result, string) result;
  project_s : float;
  warm_s : float;
  dirty : int;
  edited_cells : int;
}

(* Cells of the edited graph with no base cell of the same name wired to
   the same net names: the edit's own footprint after mapping. *)
let edited_cells ~base h =
  let wiring (g : Hypergraph.t) (c : Hypergraph.cell) =
    let names a = Array.map (fun n -> g.Hypergraph.net_names.(n)) a in
    (names c.Hypergraph.inputs, names c.Hypergraph.outputs)
  in
  let tbl = Hashtbl.create 4096 in
  Array.iter
    (fun (c : Hypergraph.cell) ->
      Hashtbl.replace tbl c.Hypergraph.name (wiring base c))
    base.Hypergraph.cells;
  Array.fold_left
    (fun n (c : Hypergraph.cell) ->
      match Hashtbl.find_opt tbl c.Hypergraph.name with
      | Some w when w = wiring h c -> n
      | _ -> n + 1)
    0 h.Hypergraph.cells

let replay ~obs base ~delta ~options =
  let r = Option.get base.inproc in
  let edited =
    match Netlist.Delta.apply base.canonical delta with
    | Ok c -> c
    | Error e -> failwith (Netlist.Delta.error_to_string e)
  in
  let h = Techmap.Mapper.to_hypergraph (Techmap.Mapper.map edited) in
  let base_labels, base_dirty =
    Core.Kway.labels_of_parts base.hypergraph r.Core.Kway.parts
  in
  let proj, project_s, _ =
    Measure.timed (fun () ->
        Projection.project ~base:base.hypergraph ~base_labels ~base_dirty h)
  in
  let warm =
    {
      Core.Kway.w_labels = proj.Projection.labels;
      w_dirty = proj.Projection.dirty;
      w_devices =
        Array.of_list
          (List.map (fun p -> p.Core.Kway.device) r.Core.Kway.parts);
    }
  in
  let result, warm_s, _ =
    Measure.timed (fun () ->
        Core.Kway.warm_start ~obs ~options ~library ~warm h)
  in
  let dirty =
    Array.fold_left (fun a d -> if d then a + 1 else a) 0 proj.Projection.dirty
  in
  {
    edited_h = h;
    warm = result;
    project_s;
    warm_s;
    dirty;
    edited_cells = edited_cells ~base:base.hypergraph h;
  }

(* A warm reply equals the in-process warm start; a fallback reply equals
   an in-process cold run of the edited netlist. *)
let check_resubmit base (s : sample) (rp : replay) ~options =
  let what = "resubmit " ^ base.lineage.base_name in
  match (s.kind, rp.warm) with
  | Resubmit, Ok w -> check_against ~what rp.edited_h w s.result
  | Fallback, Error _ -> (
      match Core.Kway.partition ~options ~library rp.edited_h with
      | Ok r -> check_against ~what rp.edited_h r s.result
      | Error e -> error (what ^ ": in-process cold run failed: " ^ e))
  | Resubmit, Error _ ->
      error (what ^ ": warm in the daemon, failed in the in-process replay")
  | Fallback, Ok _ ->
      error (what ^ ": fell back in the daemon, warm in the in-process replay")
  | Hit, _ -> ()

(* --- the workload ------------------------------------------------------ *)

(* Spawn a daemon and fill its cache with the cold bases; the time covers
   exactly that. *)
let set_up ?trace ~fpgapart ~socket bases =
  let t0 = Measure.now () in
  let d = spawn ?trace ~fpgapart ~socket () in
  let docs =
    List.map
      (fun b ->
        let job, doc = cold_submit d b in
        b.job <- job;
        b.doc <- J.to_compact_string doc;
        doc)
      bases
  in
  (d, Measure.now () -. t0, docs)

type round = {
  samples : sample list;
  alloc_bytes : float;  (** the daemon's, estimated from minor collections *)
  replays : replay list;
}

let round_s r = Measure.sum (List.map (fun s -> s.rt_ms) r.samples) /. 1000.

(* One round; the first round and every traced round also replay each
   resubmit in process and check the reply against it. *)
let run_round d bases ~seed ~round ~replay_all ~sink =
  let c0 = minor_collections d in
  let st = Inputs.rng ~seed (Printf.sprintf "eco-round-%d" round) in
  let replays = ref [] in
  let resubmits =
    List.concat_map
      (fun b ->
        let options =
          { (base_options b.lineage) with Core.Kway.seed = 2 + round }
        in
        List.map
          (fun delta ->
            let s = resubmit d b ~delta ~options in
            ignore (reply_summary ~what:"resubmit" s.result);
            if replay_all || round = 0 then begin
              let rp = replay ~obs:sink b ~delta ~options in
              check_resubmit b s rp ~options;
              replays := rp :: !replays
            end;
            s)
          (Array.to_list b.deltas))
      bases
  in
  let hits =
    List.map (fun b -> hit d b ~text:(Inputs.permute_bench st b.text)) bases
  in
  let alloc_bytes = (minor_collections d -. c0) *. minor_heap_bytes in
  { samples = resubmits @ hits; alloc_bytes; replays = !replays }

let median_or_zero = function [] -> 0. | xs -> Measure.median xs

let samples_of kind rounds =
  List.concat_map
    (fun r -> List.filter (fun s -> s.kind = kind) r.samples)
    rounds

(* Per-layer figures of the traced rounds. *)
let layers ~plain ~traced ~fm_applied ~sink =
  let n = float_of_int (List.length traced) in
  let replays = List.concat_map (fun r -> r.replays) traced in
  let per_round f = Measure.sum (List.map f replays) /. n in
  let resubmit_ms =
    List.map
      (fun s -> s.rt_ms)
      (samples_of Resubmit traced @ samples_of Fallback traced)
  in
  let timing kind k =
    median_or_zero
      (List.filter_map
         (fun s -> List.assoc_opt k s.timings)
         (samples_of kind traced))
  in
  let transport kind =
    median_or_zero
      (List.filter_map
         (fun s ->
           Option.map
             (fun t -> s.rt_ms -. t)
             (List.assoc_opt "total_ms" s.timings))
         (samples_of kind traced))
  in
  let med f rs = Measure.median (List.map f rs) in
  [
    ("service.resubmit_p50_ms", median_or_zero resubmit_ms);
    ( "service.resubmit_tail_ms",
      match Measure.tail resubmit_ms with Some (_, v) -> v | None -> 0. );
    ( "service.hit_p50_ms",
      median_or_zero (List.map (fun s -> s.rt_ms) (samples_of Hit traced)) );
    ("service.decode_ms.hit", timing Hit "decode_ms");
    ("service.transport_ms.hit", transport Hit);
    ("projection.s", per_round (fun rp -> rp.project_s));
    ("projection.dirty_cells", per_round (fun rp -> float_of_int rp.dirty));
    ( "projection.edited_cells",
      per_round (fun rp -> float_of_int rp.edited_cells) );
    ("kway.warm_s", per_round (fun rp -> rp.warm_s));
    ( "kway.warm_fallbacks",
      per_round (fun rp -> if Result.is_error rp.warm then 1. else 0.) );
    ("service.fm_applied_ops", fm_applied /. n);
    ("obs.trace_overhead_s", med round_s traced -. med round_s plain);
  ]
  @ List.concat_map
      (fun (kind, tag) ->
        List.map
          (fun k -> (Printf.sprintf "service.%s.%s" k tag, timing kind k))
          [ "decode_ms"; "queue_wait_ms"; "run_ms"; "encode_ms" ]
        @ [ ("service.transport_ms." ^ tag, transport kind) ])
      [ (Resubmit, "resubmit"); (Fallback, "fallback") ]
  (* F-M figures of the in-process warm starts, per round. *)
  @ List.filter_map
      (fun (k, v) ->
        if not (String.starts_with ~prefix:"fm." k) then None
        else if k = "fm.moves_per_s" || k = "fm.alloc_words_per_move" then
          Some (k, v)
        else Some (k, v /. n))
      (Inproc.engine_layers sink)

let run ~fpgapart ~seed ~seconds ~trace ~out =
  errors := [];
  Report.ensure_dir out;
  let socket =
    Filename.concat out (Printf.sprintf "eco-%d.sock" (Unix.getpid ()))
  in
  let bases = List.mapi make_base lineages in
  let trace_path =
    Report.path ~out ~name:"service-eco" ~seed "daemon.trace.json"
  in
  (* Set-up, several times: all but the last daemon are shut down; the
     first one's base replies are checked against in-process runs. *)
  let rec setup i acc =
    let trace = if trace && i + 1 = setups then Some trace_path else None in
    let d, s, docs = set_up ?trace ~fpgapart ~socket bases in
    if i = 0 then
      List.iter2 (fun b doc -> check_base b (member "result" doc)) bases docs;
    if i + 1 < setups then begin
      shutdown d;
      setup (i + 1) (s :: acc)
    end
    else (d, s :: acc)
  in
  let d, setup_times = setup 0 [] in
  let sink = if trace then Obs.create ~trace:true () else Obs.noop in
  (* The daemon keeps every job it ever registered, so its resident set
     grows with the requests served; the peak is read after a fixed
     amount of work (set-up plus [rss_rounds] rounds, which every run
     completes), not after however many rounds the host managed. *)
  let rss = ref 0. in
  let read_rss () =
    rss := Option.value ~default:0. (Measure.peak_rss_mb (string_of_int d.pid))
  in
  let rounds ~budget ~replay_all ~first =
    let t0 = Measure.now () in
    let rec go i acc =
      if i >= rss_rounds && Measure.now () -. t0 >= budget then List.rev acc
      else begin
        let r = run_round d bases ~seed ~round:i ~replay_all ~sink in
        Printf.eprintf "perfbench: service-eco round %d: %.3f s\n%!" i
          (round_s r);
        if i + 1 = rss_rounds then read_rss ();
        go (i + 1) (r :: acc)
      end
    in
    go first []
  in
  let half = if trace then seconds /. 2. else seconds in
  let plain = rounds ~budget:half ~replay_all:false ~first:0 in
  let fm0 = counter d "service.fm_applied_ops" in
  let traced =
    if trace then
      rounds ~budget:half ~replay_all:true ~first:(List.length plain)
    else []
  in
  let fm_applied = float_of_int (counter d "service.fm_applied_ops" - fm0) in
  shutdown d;
  let samples = List.concat_map (fun r -> r.samples) (plain @ traced) in
  let med f = Measure.median (List.map f plain) in
  let round_sum field r =
    Measure.sum (List.map (fun s -> number field s.result) r.samples)
  in
  {
    Report.setup_s = Measure.median setup_times;
    partition_s = med round_s;
    alloc_gb = med (fun r -> r.alloc_bytes) /. 1e9;
    peak_rss_mb = !rss;
    total_cost = med (round_sum "total_cost");
    total_iobs = med (round_sum "total_iobs");
    layers =
      (if trace then layers ~plain ~traced ~fm_applied ~sink else []);
    sink;
    attempted = List.length samples;
    failed = List.length (List.filter (fun s -> s.kind = Fallback) samples);
    errors = List.rev !errors;
  }
