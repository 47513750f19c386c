(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation section, plus Bechamel micro-benchmarks of the algorithmic
   kernels behind each table.

   Usage:
     dune exec bench/main.exe                          # everything
     dune exec bench/main.exe -- table3 fig3 timing    # selected artifacts
     dune exec bench/main.exe -- --cut-runs 5 all      # faster Table III
   Options: --cut-runs N (Table III bipartitions per circuit, default 20),
            --runs/--kway-runs N (k-way multi-starts, default 5),
            --seed N, --jobs N (parallel-speedup measurement of the
            partition artifact, default 4, env FPGAPART_JOBS),
            --trace FILE (partition artifact only: additionally run one
            traced c6288 partition and write a Perfetto-loadable
            Chrome trace-event JSON).
   The option terms are shared with the fpgapart CLI (Cli_common), so the
   two frontends cannot drift. *)

open Cmdliner

let cut_runs = ref 20
let kway_runs = ref 5
let seed = ref 7
let jobs = ref 4
let trace_path = ref None
let hotloop_circuit = ref "s38584"
let hotloop_runs = ref 3

let progress fmt =
  Format.kfprintf
    (fun f -> Format.pp_print_newline f ())
    Format.err_formatter fmt

let section title = Format.printf "@.=== %s ===@.@." title

(* The k-way campaign feeds Tables IV-VII; run it once. *)
let campaign =
  lazy
    (List.map
       (fun e ->
         progress "k-way campaign: %s..." e.Experiments.Suite.display;
         Experiments.Kway_campaign.run ~runs:!kway_runs ~seed:!seed e)
       (Experiments.Suite.all ()))

let table1 () =
  section "Table I: the XC3000 device library";
  Format.printf "%a@." Fpga.Library.pp Fpga.Library.xc3000;
  Format.printf
    "(capacities and terminals are the real XC3000 values; prices are \
     reconstructed - see DESIGN.md)@."

let table2 () =
  section "Table II: benchmark circuit characteristics (after mapping)";
  Format.printf "%a@." Experiments.Table2.pp (Experiments.Table2.run_all ());
  Format.printf
    "(* = profile-matched synthetic reconstructions of the ISCAS circuits)@."

let fig3 () =
  section "Figure 3: cell distribution vs replication potential";
  Format.printf "%a@." Experiments.Fig3.pp (Experiments.Fig3.run_all ())

let table3 () =
  section
    (Printf.sprintf
       "Table III: best/average cut, F-M min-cut vs + functional replication \
        (%d runs/circuit)"
       !cut_runs);
  let rows =
    List.map
      (fun e ->
        progress "Table III: %s..." e.Experiments.Suite.display;
        Experiments.Table3.run ~runs:!cut_runs ~seed:!seed e)
      (Experiments.Suite.all ())
  in
  Format.printf "%a@." Experiments.Table3.pp rows

let table4 () =
  section "Table IV: percentage of replicated cells and CPU cost";
  Format.printf "%a@." Experiments.Kway_campaign.pp_table4 (Lazy.force campaign)

let table5 () =
  section "Table V: average CLB utilization after partitioning";
  Format.printf "%a@." Experiments.Kway_campaign.pp_table5 (Lazy.force campaign)

let table6 () =
  section "Table VI: total design cost after partitioning";
  Format.printf "%a@." Experiments.Kway_campaign.pp_table6 (Lazy.force campaign)

let table7 () =
  section "Table VII: average IOB utilization after partitioning";
  Format.printf "%a@." Experiments.Kway_campaign.pp_table7 (Lazy.force campaign)

(* ------------------------------------------------------------------ *)
(* Hot-loop microbenchmark                                            *)
(* ------------------------------------------------------------------ *)

(* Pure [Fm.run] throughput — no technology mapping, no k-way driver, no
   multi-start pool — on one circuit at a fixed seed. Two sweeps over
   identical fresh states: a counting sweep under a collecting sink reads
   the deterministic op counts (telemetry never steers the engine, so the
   timed sweep applies exactly the same ops), then a timed sweep under the
   no-op sink measures wall clock and words allocated per applied move —
   the perf-regression gate's two numbers. The engine has one gain mode;
   the artifact keeps its ["modes"] / ["eager"] shape for existing
   readers. *)
let hotloop_measure ~runs ~seed hg ~total_area =
  let module J = Obs.Json in
  let states () =
    List.init runs (fun r ->
        Core.Fm.random_state (Netlist.Rng.create (seed + r)) hg)
  in
  let cfg =
    Core.Fm.balance_config ~replication:(`Functional 0) ~total_area ()
  in
  let obs = Obs.create () in
  List.iter (fun st -> ignore (Core.Fm.run ~obs cfg st)) (states ());
  let snap = Obs.snapshot obs in
  let counter k =
    try List.assoc k snap.Obs.Snapshot.counters with Not_found -> 0
  in
  let applied = counter "fm.applied_ops" in
  let rescored = counter "fm.rescored_cells" in
  let passes = counter "fm.passes" in
  let sts = states () in
  Gc.full_major ();
  (* Words allocated so far: minor + direct-to-major (promoted words
     would be double-counted). [Gc.minor_words] reads the live minor-heap
     pointer; the minor count of [Gc.quick_stat] only advances at minor
     collections on OCaml 5, so a sweep that allocates little reads 0. *)
  let words () =
    let _, promoted, major = Gc.counters () in
    Gc.minor_words () +. major -. promoted
  in
  let g0 = Gc.quick_stat () in
  let w0 = words () in
  let t0 = Obs.Clock.wall () in
  List.iter (fun st -> ignore (Core.Fm.run cfg st)) sts;
  let wall = Obs.Clock.wall () -. t0 in
  let alloc_words = words () -. w0 in
  let g1 = Gc.quick_stat () in
  let per_move d = d /. float_of_int (max 1 applied) in
  J.Obj
    [
      ("applied_ops", J.Int applied);
      ("rescored_cells", J.Int rescored);
      ("rescored_per_move", J.Float (per_move (float_of_int rescored)));
      ("passes", J.Int passes);
      ("wall_secs", J.Float wall);
      ("moves_per_sec", J.Float (float_of_int applied /. Float.max wall 1e-9));
      ("alloc_words_per_move", J.Float (per_move alloc_words));
      ( "minor_collections",
        J.Int (g1.Gc.minor_collections - g0.Gc.minor_collections) );
      ( "major_collections",
        J.Int (g1.Gc.major_collections - g0.Gc.major_collections) );
    ]

let hotloop_doc () =
  let module J = Obs.Json in
  let name = !hotloop_circuit in
  match Experiments.Suite.find name with
  | None -> Error (Printf.sprintf "unknown hotloop circuit %S" name)
  | Some e ->
      let hg = Lazy.force e.Experiments.Suite.hypergraph in
      let total_area = Hypergraph.total_area hg in
      let runs = !hotloop_runs and seed = !seed in
      progress "hotloop: %s, %d F-M runs, seed %d..." name runs seed;
      let eager = hotloop_measure ~runs ~seed hg ~total_area in
      Ok
        (J.Obj
           [
             ("circuit", J.String name);
             ("seed", J.Int seed);
             ("fm_runs", J.Int runs);
             ("replication", J.String "functional(0)");
             ("modes", J.Obj [ ("eager", eager) ]);
           ])

let pp_hotloop j =
  let module J = Obs.Json in
  let fstr get k o =
    match Option.bind (J.member k o) get with
    | Some v -> v
    | None -> nan
  in
  match J.member "modes" j with
  | Some (J.Obj modes) ->
      Format.printf "%-8s %12s %14s %12s %12s@." "mode" "applied"
        "moves/sec" "resc/move" "words/move";
      List.iter
        (fun (mode, o) ->
          Format.printf "%-8s %12.0f %14.0f %12.2f %12.1f@." mode
            (fstr J.to_float "applied_ops" o)
            (fstr J.to_float "moves_per_sec" o)
            (fstr J.to_float "rescored_per_move" o)
            (fstr J.to_float "alloc_words_per_move" o))
        modes
  | _ -> ()

let hotloop () =
  section
    (Printf.sprintf "Hot-loop microbenchmark: pure F-M throughput (%s)"
       !hotloop_circuit);
  match hotloop_doc () with
  | Error msg -> prerr_endline ("bench: " ^ msg)
  | Ok j ->
      Format.printf "%s@." (Obs.Json.to_string j);
      pp_hotloop j

(* End-to-end service latency: boot an in-process daemon on a scratch
   socket, time one cold submit -> result round trip and one cache-hit
   round trip. This is the row behind the service SLO histograms: what a
   client actually waits, transport and queueing included, next to the
   bare engine wall-clock the suite rows report. Keys are *_secs — the
   values are wall-derived and scrub away like every other timer. *)
let service_row () =
  let name = "c1355" in
  match Experiments.Suite.find name with
  | None -> Error ("suite lacks " ^ name)
  | Some e -> (
      let sock = Filename.temp_file "fpgapart_bench" ".sock" in
      Sys.remove sock;
      let cfg = Service.Server.default_config ~socket_path:sock in
      let ready = Atomic.make false in
      let server =
        Thread.create
          (fun () ->
            match
              Service.Server.run
                ~on_ready:(fun () -> Atomic.set ready true)
                cfg
            with
            | Ok () -> ()
            | Error msg -> prerr_endline ("bench: service: " ^ msg))
          ()
      in
      while not (Atomic.get ready) do
        Thread.yield ()
      done;
      let finish () =
        (match Service.Client.rpc ~socket:sock Service.Protocol.Shutdown with
        | Ok _ | Error _ -> ());
        Thread.join server
      in
      Fun.protect ~finally:finish (fun () ->
          let text =
            Netlist.Bench_format.to_string
              (Lazy.force e.Experiments.Suite.circuit)
          in
          let options = Core.Kway.Options.make ~runs:!kway_runs ~seed:1 () in
          let rpc req =
            match Service.Client.rpc ~socket:sock req with
            | Error msg -> Error msg
            | Ok reply -> (
                match Service.Client.ok_or_error reply with
                | Ok reply -> Ok reply
                | Error (_, msg) -> Error msg)
          in
          let submit () =
            rpc
              (Service.Protocol.Submit
                 {
                   name;
                   format = Service.Protocol.Bench;
                   netlist = text;
                   options;
                   envelope = Service.Protocol.default_envelope;
                 })
          in
          let ( let* ) = Result.bind in
          let t0 = Obs.Clock.wall () in
          let* reply = submit () in
          let* job =
            match
              Option.bind (Obs.Json.member "job" reply) Obs.Json.to_int
            with
            | Some id -> Ok id
            | None -> Error "submit reply lacks a job id"
          in
          let* _ =
            rpc (Service.Protocol.Result { job; wait = true })
          in
          let cold = Obs.Clock.wall () -. t0 in
          let t1 = Obs.Clock.wall () in
          let* hit_reply = submit () in
          let hit = Obs.Clock.wall () -. t1 in
          let* () =
            if
              Option.bind (Obs.Json.member "cached" hit_reply)
                Obs.Json.to_bool
              = Some true
            then Ok ()
            else Error "second submission missed the cache"
          in
          Ok
            ( cold,
              hit,
              Obs.Json.Obj
                [
                  ("circuit", Obs.Json.String name);
                  ("runs", Obs.Json.Int !kway_runs);
                  ("cold_e2e_secs", Obs.Json.Float cold);
                  ("cache_hit_e2e_secs", Obs.Json.Float hit);
                ] )))

(* Fleet end-to-end latency at 1/2/4 workers: cold submit, cache hit,
   and a portfolio race, each through a real scheduler fanning out to
   forked worker processes. Needs the fpgapart binary (workers are
   exec'd); resolved from FPGAPART_BIN or the default build path, and
   the row is skipped when neither exists. All keys are *_secs. *)
let fleet_worker_exe () =
  match Sys.getenv_opt "FPGAPART_BIN" with
  | Some p when Sys.file_exists p -> Some p
  | _ ->
      let guess = "_build/default/bin/fpgapart.exe" in
      if Sys.file_exists guess then Some guess else None

let fleet_row () =
  let name = "c1355" in
  match (Experiments.Suite.find name, fleet_worker_exe ()) with
  | None, _ -> Error ("suite lacks " ^ name)
  | _, None -> Error "fpgapart binary not built (workers are exec'd)"
  | Some e, Some exe ->
      let text =
        Netlist.Bench_format.to_string (Lazy.force e.Experiments.Suite.circuit)
      in
      let measure workers =
        let sock = Filename.temp_file "fpgapart_fleet_bench" ".sock" in
        Sys.remove sock;
        let cfg =
          Fleet.Scheduler.default_config ~socket_path:sock ~workers
            ~worker_exe:exe
        in
        let ready = Atomic.make false in
        let sched =
          Thread.create
            (fun () ->
              match
                Fleet.Scheduler.run
                  ~on_ready:(fun () -> Atomic.set ready true)
                  cfg
              with
              | Ok () -> ()
              | Error msg -> prerr_endline ("bench: fleet: " ^ msg))
            ()
        in
        while not (Atomic.get ready) do
          Thread.yield ()
        done;
        let finish () =
          (match Service.Client.rpc ~socket:sock Service.Protocol.Shutdown with
          | Ok _ | Error _ -> ());
          Thread.join sched
        in
        Fun.protect ~finally:finish (fun () ->
            let rpc req =
              match Service.Client.rpc ~socket:sock req with
              | Error msg -> Error msg
              | Ok reply -> (
                  match Service.Client.ok_or_error reply with
                  | Ok reply -> Ok reply
                  | Error (_, msg) -> Error msg)
            in
            (* Wait for the worker pool before timing anything, so the
               cold number measures the job, not the fork+exec. *)
            let deadline = Obs.Clock.wall () +. 30.0 in
            let rec wait_up () =
              let up =
                match rpc Service.Protocol.Health with
                | Error _ -> 0
                | Ok reply -> (
                    match
                      Option.bind
                        (Option.bind
                           (Obs.Json.member "health" reply)
                           (Obs.Json.member "workers_up"))
                        Obs.Json.to_int
                    with
                    | Some n -> n
                    | None -> 0)
              in
              if up >= workers then Ok ()
              else if Obs.Clock.wall () > deadline then
                Error "fleet workers never came up"
              else begin
                Thread.delay 0.05;
                wait_up ()
              end
            in
            let submit ~seed ~portfolio =
              rpc
                (Service.Protocol.Submit
                   {
                     name;
                     format = Service.Protocol.Bench;
                     netlist = text;
                     options = Core.Kway.Options.make ~runs:!kway_runs ~seed ();
                     envelope =
                       {
                         Service.Protocol.tenant = "bench";
                         priority = 0;
                         portfolio;
                       };
                   })
            in
            let ( let* ) = Result.bind in
            let* () = wait_up () in
            let round ~seed ~portfolio =
              let t0 = Obs.Clock.wall () in
              let* reply = submit ~seed ~portfolio in
              let* () =
                if
                  Option.bind
                    (Obs.Json.member "result" reply)
                    (fun _ -> Some ())
                  = Some ()
                then Ok ()
                else
                  let* job =
                    match
                      Option.bind (Obs.Json.member "job" reply) Obs.Json.to_int
                    with
                    | Some id -> Ok id
                    | None -> Error "submit reply lacks a job id"
                  in
                  let* _ =
                    rpc (Service.Protocol.Result { job; wait = true })
                  in
                  Ok ()
              in
              Ok (Obs.Clock.wall () -. t0)
            in
            let* cold = round ~seed:1 ~portfolio:false in
            let* hit = round ~seed:1 ~portfolio:false in
            let* folio = round ~seed:2 ~portfolio:true in
            Ok
              ( cold,
                hit,
                folio,
                Obs.Json.Obj
                  [
                    ("workers", Obs.Json.Int workers);
                    ("cold_e2e_secs", Obs.Json.Float cold);
                    ("cache_hit_e2e_secs", Obs.Json.Float hit);
                    ("portfolio_e2e_secs", Obs.Json.Float folio);
                  ] ))
      in
      let ( let* ) = Result.bind in
      let* rows =
        List.fold_left
          (fun acc workers ->
            let* acc = acc in
            let* cold, hit, folio, row = measure workers in
            Format.printf
              "fleet %d worker%s: cold %.3fs / hit %.4fs / portfolio %.3fs@."
              workers
              (if workers = 1 then "" else "s")
              cold hit folio;
            Ok (row :: acc))
          (Ok []) [ 1; 2; 4 ]
      in
      Ok
        (Obs.Json.Obj
           [
             ("circuit", Obs.Json.String name);
             ("runs", Obs.Json.Int !kway_runs);
             ("scales", Obs.Json.List (List.rev rows));
           ])

let partition_stats () =
  section "BENCH_partition.json: k-way engine telemetry aggregate";
  progress
    "partition telemetry: running the suite under a collecting sink \
     (plus jobs=1 vs jobs=%d wall-clock runs)..."
    !jobs;
  let doc, speedups =
    Experiments.Obs_report.suite_doc ~runs:!kway_runs ~seed:1 ~jobs:!jobs ()
  in
  (* The hot-loop microbenchmark rides in the same artifact: the per-move
     numbers (moves/sec, words/move) sit next to the end-to-end telemetry
     they explain. *)
  let doc =
    match hotloop_doc () with
    | Ok h -> (
        match doc with
        | Obs.Json.Obj fields -> Obs.Json.Obj (fields @ [ ("hotloop", h) ])
        | other -> other)
    | Error msg ->
        prerr_endline ("bench: " ^ msg);
        doc
  in
  (* The incremental-repartitioning (ECO) measurement rides along too:
     cold vs warm wall-clock and cost on a seeded 1%-edit of the hotloop
     circuit — the artifact behind the resubmit speedup gate. *)
  let doc =
    let name = !hotloop_circuit in
    match Experiments.Suite.find name with
    | None -> doc
    | Some e -> (
        progress "resubmit: %s, seed %d, 1%% edit (cold vs warm)..." name
          !seed;
        let options = Core.Kway.Options.make ~runs:!kway_runs ~seed:1 () in
        match Experiments.Eco.run ~options ~seed:!seed ~frac:0.01 e with
        | Error msg ->
            prerr_endline ("bench: resubmit: " ^ msg);
            doc
        | Ok report -> (
            let row = Experiments.Eco.to_json report in
            Format.printf
              "resubmit %s: cold %.2fs / warm %.2fs (%.1fx), cost %.0f -> \
               %.0f (ratio %.3f), dirty %d/%d@."
              name report.Experiments.Eco.cold_wall_secs
              report.Experiments.Eco.warm_wall_secs
              report.Experiments.Eco.speedup report.Experiments.Eco.cold_cost
              report.Experiments.Eco.warm_cost
              report.Experiments.Eco.cost_ratio
              report.Experiments.Eco.dirty_cells
              report.Experiments.Eco.edited_cells;
            match doc with
            | Obs.Json.Obj fields ->
                Obs.Json.Obj (fields @ [ ("resubmit", row) ])
            | other -> other))
  in
  (* The end-to-end service latency rides along: what a client of the
     daemon waits for a cold job and for a cache hit, transport and
     queueing included. *)
  let doc =
    progress "service: in-process daemon, cold + cache-hit round trip...";
    match service_row () with
    | Error msg ->
        prerr_endline ("bench: service: " ^ msg);
        doc
    | Ok (cold, hit, row) -> (
        Format.printf "service e2e: cold %.3fs / cache hit %.4fs@." cold hit;
        match doc with
        | Obs.Json.Obj fields -> Obs.Json.Obj (fields @ [ ("service", row) ])
        | other -> other)
  in
  (* Fleet scaling rides along: the same round trips through a real
     multi-process scheduler at 1, 2 and 4 workers, plus a portfolio
     race — the numbers behind the fleet SLOs. *)
  let doc =
    progress "fleet: scheduler + worker processes at 1/2/4 workers...";
    match fleet_row () with
    | Error msg ->
        prerr_endline ("bench: fleet: " ^ msg);
        doc
    | Ok row -> (
        match doc with
        | Obs.Json.Obj fields -> Obs.Json.Obj (fields @ [ ("fleet", row) ])
        | other -> other)
  in
  (* Per-objective ablation rides along: every builtin cost objective on
     every suite circuit, so the paper / multi-personality / chiplet
     numbers sit next to the main campaign they vary. *)
  let doc =
    progress "objectives: %d circuits x %d objectives..."
      (List.length (Experiments.Suite.all ()))
      (List.length Fpga.Objective.builtins);
    let rows =
      List.concat_map
        (Experiments.Objectives.run ~runs:!kway_runs ~seed:1)
        (Experiments.Suite.all ())
    in
    Format.printf "%a@." Experiments.Objectives.pp rows;
    match doc with
    | Obs.Json.Obj fields ->
        Obs.Json.Obj
          (fields @ [ ("objectives", Experiments.Objectives.rows_to_json rows) ])
    | other -> other
  in
  (* Flat vs multilevel rides along: the V-cycle next to the flat driver
     on the largest bundled circuit (the quality gate — multilevel must
     land within a few percent), plus the seeded 100k-cell Rent-profile
     circuit only the multilevel backbone can take in seconds.
     FPGAPART_PERF_FULL=1 widens to the million-cell profile. *)
  let doc =
    let module J = Obs.Json in
    let ml = Core.Kway.Multilevel Core.Kway.Options.default_multilevel in
    let strategy_name = function
      | Core.Kway.Flat -> "flat"
      | Core.Kway.Multilevel _ -> "multilevel"
    in
    let row ~name ~library ~strategy =
      match Experiments.Suite.find name with
      | None ->
          J.Obj
            [
              ("circuit", J.String name);
              ("error", J.String "unknown circuit");
            ]
      | Some e -> (
          progress "multilevel row: %s (%s)..." name (strategy_name strategy);
          let hg = Lazy.force e.Experiments.Suite.hypergraph in
          let options = Core.Kway.Options.make ~runs:1 ~seed:1 ~strategy () in
          match Core.Kway.partition ~options ~library hg with
          | Error msg ->
              J.Obj [ ("circuit", J.String name); ("error", J.String msg) ]
          | Ok r ->
              let s = r.Core.Kway.summary in
              Format.printf
                "multilevel row %s (%s): %d devices, cost %.0f, %.2fs@." name
                (strategy_name strategy) s.Fpga.Cost.num_partitions
                s.Fpga.Cost.total_cost r.Core.Kway.wall_secs;
              J.Obj
                [
                  ("circuit", J.String name);
                  ("options", Experiments.Obs_report.options_to_json options);
                  ("result", Experiments.Obs_report.result_to_json r);
                ])
    in
    let rows =
      [
        row ~name:"s38584" ~library:Fpga.Library.xc3000
          ~strategy:Core.Kway.Flat;
        row ~name:"s38584" ~library:Fpga.Library.xc3000 ~strategy:ml;
      ]
    in
    let rows =
      match Fpga.Library.load "bench/scale_devices.json" with
      | Error msg ->
          prerr_endline ("bench: multilevel: scale_devices: " ^ msg);
          rows
      | Ok scale ->
          let rows = rows @ [ row ~name:"gen100k" ~library:scale ~strategy:ml ] in
          if Sys.getenv_opt "FPGAPART_PERF_FULL" <> None then
            rows @ [ row ~name:"gen1m" ~library:scale ~strategy:ml ]
          else rows
    in
    match doc with
    | Obs.Json.Obj fields -> Obs.Json.Obj (fields @ [ ("multilevel", J.List rows) ])
    | other -> other
  in
  Experiments.Obs_report.write ~path:"BENCH_partition.json" doc;
  (match speedups with
  | [] -> ()
  | l ->
      Format.printf "%-10s %12s %12s %9s@." "circuit" "jobs=1 wall"
        (Printf.sprintf "jobs=%d wall" !jobs)
        "speedup";
      let sum1 = ref 0.0 and sumn = ref 0.0 in
      List.iter
        (fun (s : Experiments.Obs_report.speedup) ->
          sum1 := !sum1 +. s.Experiments.Obs_report.jobs1_wall;
          sumn := !sumn +. s.Experiments.Obs_report.jobsn_wall;
          Format.printf "%-10s %11.2fs %11.2fs %8.2fx@."
            s.Experiments.Obs_report.circuit s.Experiments.Obs_report.jobs1_wall
            s.Experiments.Obs_report.jobsn_wall
            (s.Experiments.Obs_report.jobs1_wall
            /. Float.max 1e-9 s.Experiments.Obs_report.jobsn_wall))
        l;
      Format.printf "%-10s %11.2fs %11.2fs %8.2fx  (aggregate)@." "total" !sum1
        !sumn
        (!sum1 /. Float.max 1e-9 !sumn));
  Format.printf
    "wrote BENCH_partition.json (schema v%d: per-circuit options/result, \
     fm.pass and kway.* event streams, per-circuit jobs=1 vs jobs=%d \
     wall-clock)@."
    Experiments.Obs_report.schema_version !jobs;
  (* One traced partition of the largest default circuit: the Perfetto
     artifact showing how the multi-start runs spread over the domains. *)
  match !trace_path with
  | None -> ()
  | Some path -> (
      progress "trace: c6288 at jobs=%d -> %s..." !jobs path;
      match Experiments.Suite.find "c6288" with
      | None -> prerr_endline "bench: c6288 missing from the suite"
      | Some e ->
          let h = Lazy.force e.Experiments.Suite.hypergraph in
          let obs = Obs.create ~trace:true () in
          let options =
            Core.Kway.Options.make ~runs:!kway_runs ~seed:1 ~jobs:!jobs ()
          in
          (match
             Core.Kway.partition ~obs ~options ~library:Fpga.Library.xc3000 h
           with
          | Ok _ -> ()
          | Error msg -> prerr_endline ("bench: traced partition failed: " ^ msg));
          Obs.Trace.write ~path obs;
          Format.printf "wrote %s (Chrome trace-event JSON; open in \
                         ui.perfetto.dev)@."
            path)

let timing () =
  section "Extension: partition-aware static timing (baseline vs T=1)";
  let rows =
    List.filter_map
      (fun e ->
        progress "timing: %s..." e.Experiments.Suite.display;
        Experiments.Timing_eval.run ~runs:!kway_runs ~seed:!seed e)
      (Experiments.Suite.all ())
  in
  Format.printf "%a@." Experiments.Timing_eval.pp rows

let ablation () =
  section "Ablation A: functional vs traditional replication (min-cut)";
  let rows =
    List.map
      (fun e ->
        progress "ablation A: %s..." e.Experiments.Suite.display;
        Experiments.Ablation.replication_model ~runs:10 ~seed:!seed e)
      (Experiments.Suite.all ())
  in
  Format.printf "%a@." Experiments.Ablation.pp_replication_model rows;
  section "Ablation B: CLB output pairing on/off";
  let rows =
    List.map
      (fun e ->
        progress "ablation B: %s..." e.Experiments.Suite.display;
        Experiments.Ablation.pairing ~runs:10 ~seed:!seed e)
      (Experiments.Suite.all ())
  in
  Format.printf "%a@." Experiments.Ablation.pp_pairing rows;
  section "Ablation C: flat vs multilevel initial solutions";
  let rows =
    List.map
      (fun e ->
        progress "ablation C: %s..." e.Experiments.Suite.display;
        Experiments.Ablation.multilevel ~runs:5 ~seed:!seed e)
      (Experiments.Suite.all ())
  in
  Format.printf "%a@." Experiments.Ablation.pp_multilevel rows

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                          *)
(* ------------------------------------------------------------------ *)

let perf_tests () =
  let open Bechamel in
  let entry name =
    match Experiments.Suite.find name with
    | Some e -> e
    | None -> assert false
  in
  let h_mid = Lazy.force (entry "s9234").Experiments.Suite.hypergraph in
  let total_mid = Hypergraph.total_area h_mid in
  let circuit_small = Lazy.force (entry "c1355").Experiments.Suite.circuit in
  (* Pre-built state for kernel benches. *)
  let st = Partition_state.create h_mid ~init_on_b:(fun c -> c mod 2 = 0) in
  let kernel_eval =
    Test.make ~name:"kernel/gain-eval"
      (Staged.stage (fun () ->
           let acc = ref 0 in
           for c = 0 to 99 do
             let d =
               Partition_state.eval st c
                 (Bitvec.complement
                    (Bitvec.norm (Partition_state.full_mask st c))
                    (Partition_state.mask st c))
             in
             acc := !acc + d.Partition_state.d_cut
           done;
           !acc))
  in
  let kernel_apply =
    Test.make ~name:"kernel/apply-undo"
      (Staged.stage (fun () ->
           for c = 0 to 99 do
             let old_mask = Partition_state.mask st c in
             let flip =
               Bitvec.complement
                 (Bitvec.norm (Partition_state.full_mask st c))
                 old_mask
             in
             ignore (Partition_state.apply st c flip);
             ignore (Partition_state.apply st c old_mask)
           done))
  in
  let t2_mapping =
    Test.make ~name:"table2/technology-mapping"
      (Staged.stage (fun () -> Techmap.Mapper.map circuit_small))
  in
  let f3_distribution =
    Test.make ~name:"fig3/psi-distribution"
      (Staged.stage (fun () -> Core.Replication_potential.distribution h_mid))
  in
  let t3_plain =
    let cfg = Core.Fm.balance_config ~total_area:total_mid () in
    Test.make ~name:"table3/fm-mincut"
      (Staged.stage (fun () ->
           let st = Core.Fm.random_state (Netlist.Rng.create 1) h_mid in
           Core.Fm.run cfg st))
  in
  let t3_repl =
    let cfg =
      Core.Fm.balance_config ~replication:(`Functional 0) ~total_area:total_mid
        ()
    in
    Test.make ~name:"table3/fm-mincut+func-repl"
      (Staged.stage (fun () ->
           let st = Core.Fm.random_state (Netlist.Rng.create 1) h_mid in
           Core.Fm.run cfg st))
  in
  let kway options name =
    Test.make ~name
      (Staged.stage (fun () ->
           match
             Core.Kway.partition ~options ~library:Fpga.Library.xc3000 h_mid
           with
           | Ok r -> r.Core.Kway.summary.Fpga.Cost.total_cost
           | Error _ -> nan))
  in
  let t4567_base =
    kway (Core.Kway.Options.make ~runs:1 ()) "table4-7/kway-baseline"
  in
  let t4567_repl =
    kway
      (Core.Kway.Options.make ~runs:1 ~replication:(`Functional 0) ())
      "table4-7/kway+func-repl(T=0)"
  in
  [
    kernel_eval;
    kernel_apply;
    t2_mapping;
    f3_distribution;
    t3_plain;
    t3_repl;
    t4567_base;
    t4567_repl;
  ]

let perf () =
  section "Bechamel micro-benchmarks (one kernel per table)";
  let open Bechamel in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 1.0) () in
  let grouped = Test.make_grouped ~name:"paper" (perf_tests ()) in
  let raw = Benchmark.all cfg [ instance ] grouped in
  let results = Analyze.all ols instance raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let t =
          match Analyze.OLS.estimates ols with Some (t :: _) -> t | _ -> nan
        in
        (name, t) :: acc)
      results []
    |> List.sort compare
  in
  Format.printf "%-42s %16s@." "kernel" "time/run";
  List.iter
    (fun (name, t) ->
      let pretty =
        if Float.is_nan t then "-"
        else if t > 1e9 then Printf.sprintf "%.2f s" (t /. 1e9)
        else if t > 1e6 then Printf.sprintf "%.2f ms" (t /. 1e6)
        else if t > 1e3 then Printf.sprintf "%.2f us" (t /. 1e3)
        else Printf.sprintf "%.0f ns" t
      in
      Format.printf "%-42s %16s@." name pretty)
    rows

(* ------------------------------------------------------------------ *)

let artifacts =
  [
    ("table1", table1);
    ("table2", table2);
    ("fig3", fig3);
    ("table3", table3);
    ("table4", table4);
    ("table5", table5);
    ("table6", table6);
    ("table7", table7);
    ("ablation", ablation);
    ("timing", timing);
    ("partition", partition_stats);
    ("hotloop", hotloop);
    ("perf", perf);
  ]

let run selected cut_runs' kway_runs' seed' jobs' trace' hl_circuit' hl_runs' =
  cut_runs := cut_runs';
  kway_runs := kway_runs';
  seed := seed';
  jobs := jobs';
  trace_path := trace';
  hotloop_circuit := hl_circuit';
  hotloop_runs := hl_runs';
  let names =
    selected
    |> List.concat_map (fun name ->
           if name = "all" then List.map fst artifacts else [ name ])
  in
  match List.find_opt (fun n -> not (List.mem_assoc n artifacts)) names with
  | Some unknown ->
      Format.eprintf "bench: unknown artifact %S (choose from: all %s)@."
        unknown
        (String.concat " " (List.map fst artifacts));
      exit 2
  | None ->
      let names = if names = [] then List.map fst artifacts else names in
      let t0 = Obs.Clock.cpu () in
      List.iter (fun name -> (List.assoc name artifacts) ()) names;
      progress "total CPU time: %.1fs" (Obs.Clock.cpu () -. t0)

let main =
  let doc =
    "Regenerate the paper's tables, figures, telemetry aggregate and \
     micro-benchmarks"
  in
  let artifacts_arg =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"ARTIFACT"
          ~doc:
            "Artifacts to produce (default: all): all, table1..table7, \
             fig3, ablation, timing, partition, hotloop, perf.")
  in
  let cut_runs_arg =
    Arg.(
      value & opt int 20
      & info [ "cut-runs" ] ~docv:"N"
          ~doc:"Table III bipartitions per circuit (default 20).")
  in
  let hotloop_circuit_arg =
    Arg.(
      value & opt string "s38584"
      & info [ "hotloop-circuit" ] ~docv:"NAME"
          ~doc:
            "Circuit for the hot-loop microbenchmark (default s38584, the \
             largest bundled circuit).")
  in
  let hotloop_runs_arg =
    Arg.(
      value & opt int 3
      & info [ "hotloop-runs" ] ~docv:"N"
          ~doc:"F-M runs per gain mode in the hot-loop microbenchmark \
                (default 3).")
  in
  Cmd.v (Cmd.info "bench" ~doc)
    Term.(
      const run $ artifacts_arg $ cut_runs_arg
      $ Cli_common.runs ~extra_names:[ "kway-runs" ] ()
      $ Cli_common.seed ~default:7 ()
      $ Cli_common.jobs ~default:4 ()
      $ Cli_common.trace () $ hotloop_circuit_arg $ hotloop_runs_arg)

let () = exit (Cmd.eval main)
