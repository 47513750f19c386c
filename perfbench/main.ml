(* perfbench: the fpgapart benchmark. See README.md for the workloads,
   the metrics and how each is measured.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   With --trace 0 the last line of stdout is a JSON object holding the
   end-to-end metrics; with --trace 1 it holds the per-layer metrics, and
   the same figures plus Perfetto traces land under --out. *)

(* Print what each workload feeds the program: per circuit its mapped
   size, library and devices, and the fractional cost lower bound; per
   ECO lineage its replication mode and edit sizes. *)
let describe ~seed =
  let circuit (c : Inputs.circuit) =
    match Netlist.Bench_format.parse c.Inputs.text with
    | Error e -> failwith e
    | Ok circ ->
        let h =
          Techmap.Mapper.to_hypergraph
            (Techmap.Mapper.map ~options:c.Inputs.map_options circ)
        in
        let devices =
          List.map
            (fun (d : Fpga.Device.t) -> d.Fpga.Device.name)
            (Fpga.Library.devices c.Inputs.library)
        in
        Printf.printf "| %s | %d | %d | %d | %s (%s) | %.0f |\n" c.Inputs.name
          (Hypergraph.num_cells h) h.Hypergraph.num_nets (Hypergraph.pins h)
          c.Inputs.library_name
          (String.concat ", " devices)
          (Verify.lower_bound ~library:c.Inputs.library h)
  in
  print_endline
    "| circuit | cells | nets | pins | library (devices) | cost lower bound |";
  print_endline "|---|---|---|---|---|---|";
  List.iter circuit (Inputs.paper ~seed);
  List.iter circuit (Inputs.scale ~seed);
  print_endline "";
  print_endline
    "| lineage base | replication | edits per round | ops per edit |";
  print_endline "|---|---|---|---|";
  List.iteri
    (fun i (l : Eco.lineage) ->
      let b = Eco.make_base i l in
      let ops =
        Array.to_list
          (Array.map (fun d -> string_of_int (List.length d)) b.Eco.deltas)
      in
      Printf.printf "| %s | %s | %d | %s |\n" l.Eco.base_name
        (match l.Eco.replication with
        | `None -> "none"
        | `Functional t -> Printf.sprintf "functional, T=%d" t)
        l.Eco.edits (String.concat ", " ops))
    Eco.lineages

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 30. in
  let trace = ref 0 and describe_only = ref false in
  let fpgapart = ref "_build/default/bin/fpgapart.exe" in
  let out = ref "perfbench/out" in
  Arg.parse
    [
      ( "--workload",
        Arg.Set_string workload,
        "NAME paper-xc3000 | scale-ml | service-eco" );
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
      ( "--fpgapart",
        Arg.Set_string fpgapart,
        "PATH the fpgapart CLI service-eco runs as its daemon" );
      ("--out", Arg.Set_string out, "DIR where traced runs write their files");
      ( "--describe",
        Arg.Set describe_only,
        " print the make-up of every workload's inputs and exit" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  let seed = !seed and seconds = !seconds and out = !out in
  let trace = !trace = 1 and name = !workload in
  if !describe_only then describe ~seed
  else begin
    let o =
      match name with
      | "paper-xc3000" ->
          Inproc.run ~name ~circuits:(Inputs.paper ~seed) ~seconds ~trace
      | "scale-ml" ->
          Inproc.run ~name ~circuits:(Inputs.scale ~seed) ~seconds ~trace
      | "service-eco" ->
          Eco.run ~fpgapart:!fpgapart ~seed ~seconds ~trace ~out
      | w ->
          prerr_endline ("perfbench: unknown workload " ^ w);
          exit 2
    in
    List.iter
      (fun e -> prerr_endline ("perfbench: check failed: " ^ e))
      o.Report.errors;
    if trace then Report.write_files ~out ~name ~seed o;
    Report.print ~trace o
  end
