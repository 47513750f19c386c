module C = Netlist.Circuit

(* Rebuild the circuit resolving nodes in sorted-name order. Signal names
   are unique (the Builder enforces it), so the resulting numbering is a
   pure function of the circuit's structure — the declaration order of the
   source file is forgotten. Resolution is the same DFS-with-DFF-
   placeholders scheme the netlist parsers use: a flip-flop's D cone may
   read its own Q, so DFFs enter as placeholders and get wired after all
   nodes exist. *)
let canonical_circuit c =
  let n = Array.length c.C.nodes in
  (* Sort (name, index) pairs once: looking every name up with [C.find],
     a linear scan, would make canonicalising quadratic. *)
  let order =
    Array.mapi (fun i (node : C.node) -> (node.C.name, i)) c.C.nodes
  in
  Array.sort (fun (a, _) (b, _) -> String.compare a b) order;
  let b = C.Builder.create ~name:c.C.name () in
  let ids = Array.make n (-1) in
  let rec resolve old_id =
    if ids.(old_id) >= 0 then ids.(old_id)
    else begin
      let node = C.node c old_id in
      let id =
        match node.C.kind with
        | Netlist.Gate.Input -> C.Builder.input b node.C.name
        | Netlist.Gate.Dff -> C.Builder.dff_placeholder b node.C.name
        | kind ->
            let fanins = Array.to_list (Array.map resolve node.C.fanins) in
            C.Builder.gate b ~name:node.C.name kind fanins
      in
      ids.(old_id) <- id;
      id
    end
  in
  Array.iter (fun (_, old_id) -> ignore (resolve old_id)) order;
  Array.iteri
    (fun old_id (node : C.node) ->
      if Netlist.Gate.equal node.C.kind Netlist.Gate.Dff then
        C.Builder.connect_dff b ids.(old_id) (resolve node.C.fanins.(0)))
    c.C.nodes;
  Array.to_list c.C.outputs
  |> List.map (fun id -> ((C.node c id).C.name, id))
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.iter (fun (_, id) -> C.Builder.mark_output b ids.(id));
  C.Builder.finish b

let md5_hex s = Stdlib.Digest.to_hex (Stdlib.Digest.string s)

let add_ints buf ints =
  Array.iter (fun i -> Buffer.add_string buf (string_of_int i ^ ",")) ints

let hypergraph_fingerprint (h : Hypergraph.t) =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (Printf.sprintf "cells=%d;" (Hypergraph.num_cells h));
  Array.iter
    (fun (cell : Hypergraph.cell) ->
      Buffer.add_string buf cell.Hypergraph.name;
      Buffer.add_char buf '#';
      Buffer.add_string buf (string_of_int cell.Hypergraph.area);
      Buffer.add_string buf ";dem:";
      add_ints buf cell.Hypergraph.demand;
      Buffer.add_string buf ";in:";
      add_ints buf cell.Hypergraph.inputs;
      Buffer.add_string buf ";out:";
      add_ints buf cell.Hypergraph.outputs;
      Buffer.add_string buf ";sup:";
      Array.iter
        (fun s ->
          add_ints buf (Array.of_list (Bitvec.to_list s));
          Buffer.add_char buf '|')
        cell.Hypergraph.supports;
      Buffer.add_char buf '\n')
    h.Hypergraph.cells;
  Buffer.add_string buf (Printf.sprintf "nets=%d;" h.Hypergraph.num_nets);
  Array.iteri
    (fun n name ->
      Buffer.add_string buf name;
      Buffer.add_string buf (if h.Hypergraph.net_external.(n) then "!;" else ";"))
    h.Hypergraph.net_names;
  md5_hex (Buffer.contents buf)

(* The scalar fields are cached views of the vectors, but both go into
   the hash anyway: two devices that differ only on a secondary axis
   (say BRAM capacity) are different parts and must not share job
   keys. *)
let library_fingerprint lib =
  let buf = Buffer.create 256 in
  List.iter
    (fun (d : Fpga.Device.t) ->
      Buffer.add_string buf
        (Printf.sprintf "%s:%d:%d:%.6f:%.6f:%.6f;res:" d.Fpga.Device.name
           d.Fpga.Device.capacity d.Fpga.Device.terminals d.Fpga.Device.price
           d.Fpga.Device.util_low d.Fpga.Device.util_high);
      add_ints buf d.Fpga.Device.resources;
      Buffer.add_string buf ";win:";
      Array.iteri
        (fun a low ->
          Buffer.add_string buf
            (Printf.sprintf "%.6f..%.6f," low d.Fpga.Device.res_high.(a)))
        d.Fpga.Device.res_low;
      Buffer.add_char buf '\n')
    (Fpga.Library.devices lib);
  md5_hex (Buffer.contents buf)

(* The options JSON of the stats schema is exactly the result-shaping
   subset (jobs and should_stop are execution knobs, deliberately absent
   there), so its deterministic rendering is the right hash input. *)
let options_fingerprint options =
  md5_hex (Obs.Json.to_string (Experiments.Obs_report.options_to_json options))

let job_key ~library ~options h =
  md5_hex
    (hypergraph_fingerprint h ^ "/" ^ library_fingerprint library ^ "/"
   ^ options_fingerprint options)

let lineage_key ~base ~edited = md5_hex (base ^ ">" ^ edited)
