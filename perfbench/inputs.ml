(* Seeded inputs. The program only ever sees what these functions hand
   it: netlist text, a device library and options. The same seed gives
   the same bytes.

   For the in-process workloads the seed renames every signal of the
   netlist text, keeping its line order: the parser numbers nodes in the
   same order, so every seed maps to the same hypergraph up to names and
   the engine, whose own seed is fixed, does the same work and returns
   the same partition in every run. Run-to-run spread is then host noise
   alone, which is what the bounds have to absorb on a shared 2-core host
   where identical work swings by a third. *)

type circuit = {
  name : string;
  text : string;  (** the .bench netlist the front end parses *)
  map_options : Techmap.Mapper.options;
  library : Fpga.Library.t;
  library_name : string;
  options : Core.Kway.options;
}

(* A seed-derived stream, mixed with a per-use tag so that two uses of
   one seed draw independent numbers. *)
let rng ~seed tag = Random.State.make [| seed; Hashtbl.hash tag; 0x5eed |]

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

let starts_with p s =
  String.length s >= String.length p && String.sub s 0 (String.length p) = p

(* A semantics-preserving byte permutation of .bench text: comments
   first, then the INPUT lines, the OUTPUT lines and the gate lines, each
   group in shuffled order (the reader resolves names after the whole
   file is read, so a use may precede its definition). *)
let permute_bench st text =
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' text)
  in
  let group p = Array.of_list (List.filter p lines) in
  let comments = group (starts_with "#") in
  let inputs = group (starts_with "INPUT(") in
  let outputs = group (starts_with "OUTPUT(") in
  let gates =
    group (fun l ->
        not
          (starts_with "#" l || starts_with "INPUT(" l
         || starts_with "OUTPUT(" l))
  in
  shuffle st inputs;
  shuffle st outputs;
  shuffle st gates;
  String.concat "\n"
    (List.concat_map Array.to_list [ comments; inputs; outputs; gates ])
  ^ "\n"

(* A seed-derived bijective renaming of every signal of .bench text,
   keeping the line order and the structure. Lines are comments,
   "INPUT(x)" / "OUTPUT(x)" declarations, or "x = KIND(a, b, ...)". *)
let rename_bench st text =
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' text)
  in
  let inside l =
    let i = String.index l '(' and j = String.rindex l ')' in
    String.sub l (i + 1) (j - i - 1)
  in
  let head l = String.sub l 0 (String.index l '(') in
  let args l = List.map String.trim (String.split_on_char ',' (inside l)) in
  let lhs l = String.trim (String.sub l 0 (String.index l '=')) in
  let kind l =
    let rhs = String.index l '=' + 1 in
    String.trim (head (String.sub l rhs (String.length l - rhs)))
  in
  let is_decl l = starts_with "INPUT(" l || starts_with "OUTPUT(" l in
  let ids = Hashtbl.create 4096 in
  let note name =
    if not (Hashtbl.mem ids name) then
      Hashtbl.replace ids name (Hashtbl.length ids)
  in
  List.iter
    (fun l ->
      if starts_with "#" l then ()
      else if is_decl l then note (inside l)
      else List.iter note (lhs l :: args l))
    lines;
  let perm = Array.init (Hashtbl.length ids) Fun.id in
  shuffle st perm;
  let fresh name = Printf.sprintf "n%d" perm.(Hashtbl.find ids name) in
  let rename l =
    if starts_with "#" l then l
    else if is_decl l then Printf.sprintf "%s(%s)" (head l) (fresh (inside l))
    else
      Printf.sprintf "%s = %s(%s)" (fresh (lhs l)) (kind l)
        (String.concat ", " (List.map fresh (args l)))
  in
  String.concat "\n" (List.map rename lines) ^ "\n"

(* --- paper-xc3000 -------------------------------------------------- *)

(* The paper's flow on its nine Table II circuits: XC3000 library, flat
   k-way search, functional replication at threshold 0, one domain. One
   multi-start per call (the paper uses five) keeps a round of all nine
   circuits near 8 s, so a run holds several rounds. *)
let engine_seed = 1

let paper_options =
  Core.Kway.Options.make ~runs:1 ~seed:engine_seed ~replication:(`Functional 0)
    ~jobs:1 ()

let paper ~seed =
  List.map
    (fun (e : Experiments.Suite.entry) ->
      let text =
        Netlist.Bench_format.to_string (Lazy.force e.Experiments.Suite.circuit)
      in
      {
        name = e.Experiments.Suite.name;
        text = rename_bench (rng ~seed e.Experiments.Suite.name) text;
        map_options = Techmap.Mapper.default_options;
        library = Fpga.Library.xc3000;
        library_name = "xc3000";
        options = paper_options;
      })
    (Experiments.Suite.all ())

(* --- scale-ml ------------------------------------------------------ *)

(* The synthetic doubling-ladder library of the repository's scale perf
   gate (bench/scale_devices.json), restated here so the benchmark reads
   no file outside its own directory. *)
let scale_library =
  Fpga.Library.make
    [
      Fpga.Device.make ~name:"S4K" ~capacity:4096 ~terminals:2400 ~price:400.
        ~util_low:0.0 ~util_high:0.95 ();
      Fpga.Device.make ~name:"S8K" ~capacity:8192 ~terminals:4000 ~price:760.
        ~util_low:0.5 ~util_high:0.95 ();
      Fpga.Device.make ~name:"S16K" ~capacity:16384 ~terminals:6400
        ~price:1450. ~util_low:0.5 ~util_high:0.95 ();
      Fpga.Device.make ~name:"S32K" ~capacity:32768 ~terminals:9600
        ~price:2780. ~util_low:0.5 ~util_high:0.95 ();
    ]

(* The scale suite's mapping: structural CLB pairing only. *)
let scale_map_options =
  { Techmap.Mapper.default_options with Techmap.Mapper.pair_disjoint = false }

let multilevel_options =
  Core.Kway.Options.make ~runs:1 ~seed:engine_seed ~jobs:1
    ~strategy:(Core.Kway.Multilevel Core.Kway.Options.default_multilevel)
    ()

(* Two Rent-profile circuits through the multilevel V-cycle: one
   of about 32k cells on the scale library, where coarsening runs deep
   and the front end is seconds of work, and one of about 2k cells on
   XC3000, where the small device caps stall coarsening and the coarse
   k-way search needs dozens of devices. *)
let scale_gates = [ ("gen-scale", 60_000, `Scale); ("gen-xc3000", 4_000, `Xc) ]

let scale ~seed =
  List.map
    (fun (name, gates, lib) ->
      let circuit =
        Netlist.Generator.scale ~name
          {
            Netlist.Generator.default_scale with
            sc_gates = gates;
            sc_seed = 7;
          }
      in
      let library, library_name =
        match lib with
        | `Scale -> (scale_library, "scale")
        | `Xc -> (Fpga.Library.xc3000, "xc3000")
      in
      {
        name;
        text =
          rename_bench (rng ~seed name)
            (Netlist.Bench_format.to_string circuit);
        map_options = scale_map_options;
        library;
        library_name;
        options = multilevel_options;
      })
    scale_gates
