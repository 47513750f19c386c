type node = {
  id : int;
  name : string;
  kind : Gate.kind;
  fanins : int array;
}

type t = {
  nodes : node array;
  fanouts : int array array;
  inputs : int array;
  outputs : int array;
  name : string;
}

(* Shared by the builder and by [validate]. *)
let check_node ~num_nodes n =
  if not (Gate.arity_ok n.kind (Array.length n.fanins)) then
    Error (Printf.sprintf "node %s: kind %s cannot have %d fanins" n.name
             (Gate.to_string n.kind) (Array.length n.fanins))
  else if Array.exists (fun f -> f < 0 || f >= num_nodes) n.fanins then
    Error (Printf.sprintf "node %s: fanin id out of range" n.name)
  else Ok ()

(* Kahn's algorithm over combinational dependencies only: Input, Dff and
   constant nodes are sources; a Dff's fanin is not a dependency of its
   output. Returns [Error names_on_cycle] when a combinational cycle
   exists. *)
let topo_or_cycle nodes =
  let n = Array.length nodes in
  let indeg = Array.make n 0 in
  let is_source nd =
    match nd.kind with
    | Gate.Input | Gate.Dff | Gate.Const0 | Gate.Const1 -> true
    | _ -> false
  in
  Array.iter
    (fun nd -> if not (is_source nd) then indeg.(nd.id) <- Array.length nd.fanins)
    nodes;
  let order = Array.make n (-1) in
  let head = ref 0 and tail = ref 0 in
  Array.iter
    (fun nd ->
      if indeg.(nd.id) = 0 then begin
        order.(!tail) <- nd.id;
        incr tail
      end)
    nodes;
  (* Successor lists restricted to combinational consumers. *)
  let succs = Array.make n [] in
  Array.iter
    (fun nd ->
      if not (is_source nd) then
        Array.iter (fun f -> succs.(f) <- nd.id :: succs.(f)) nd.fanins)
    nodes;
  while !head < !tail do
    let u = order.(!head) in
    incr head;
    List.iter
      (fun v ->
        indeg.(v) <- indeg.(v) - 1;
        if indeg.(v) = 0 then begin
          order.(!tail) <- v;
          incr tail
        end)
      succs.(u)
  done;
  if !tail = n then Ok order
  else begin
    let stuck = ref [] in
    Array.iter (fun nd -> if indeg.(nd.id) > 0 then stuck := nd.name :: !stuck) nodes;
    Error !stuck
  end

module Builder = struct
  type t = {
    nodes : node Vec.t;
    by_name : (string, int) Hashtbl.t;
    inputs : int Vec.t;
    outputs : int Vec.t;
    mutable fresh : int;
    circuit_name : string;
  }

  let create ?(name = "circuit") () =
    {
      nodes = Vec.create ();
      by_name = Hashtbl.create 64;
      inputs = Vec.create ();
      outputs = Vec.create ();
      fresh = 0;
      circuit_name = name;
    }

  let add b name kind fanins =
    if Hashtbl.mem b.by_name name then
      invalid_arg ("Circuit.Builder: duplicate signal name " ^ name);
    let id = Vec.length b.nodes in
    let n = { id; name; kind; fanins } in
    let placeholder_dff = Gate.equal kind Gate.Dff && Array.length fanins = 0 in
    (if not placeholder_dff then
       match check_node ~num_nodes:(id + 1) n with
       | Ok () -> ()
       | Error msg -> invalid_arg ("Circuit.Builder: " ^ msg));
    ignore (Vec.push b.nodes n);
    Hashtbl.add b.by_name name id;
    id

  let input b name =
    let id = add b name Gate.Input [||] in
    ignore (Vec.push b.inputs id);
    id

  let fresh_name b =
    let rec loop () =
      let name = Printf.sprintf "n%d" b.fresh in
      b.fresh <- b.fresh + 1;
      if Hashtbl.mem b.by_name name then loop () else name
    in
    loop ()

  let gate b ?name kind fanins =
    let name = match name with Some n -> n | None -> fresh_name b in
    add b name kind (Array.of_list fanins)

  let mark_output b id =
    if id < 0 || id >= Vec.length b.nodes then
      invalid_arg "Circuit.Builder.mark_output: no such node";
    if not (Vec.exists (fun o -> o = id) b.outputs) then
      ignore (Vec.push b.outputs id)

  (* Placeholder DFFs carry an empty fanin array until connected. *)
  let dff_placeholder b name = add b name Gate.Dff [||]

  let connect_dff b dff d =
    if dff < 0 || dff >= Vec.length b.nodes then
      invalid_arg "Circuit.Builder.connect_dff: no such node";
    if d < 0 || d >= Vec.length b.nodes then
      invalid_arg "Circuit.Builder.connect_dff: no such D node";
    let nd = Vec.get b.nodes dff in
    if not (Gate.equal nd.kind Gate.Dff) then
      invalid_arg "Circuit.Builder.connect_dff: not a flip-flop";
    if Array.length nd.fanins <> 0 then
      invalid_arg "Circuit.Builder.connect_dff: already connected";
    Vec.set b.nodes dff { nd with fanins = [| d |] }

  let name_of b id =
    if id < 0 || id >= Vec.length b.nodes then
      invalid_arg "Circuit.Builder.name_of: no such node";
    (Vec.get b.nodes id).name

  let finish b =
    let nodes = Vec.to_array b.nodes in
    Array.iter
      (fun nd ->
        if Gate.equal nd.kind Gate.Dff && Array.length nd.fanins = 0 then
          invalid_arg
            ("Circuit.Builder.finish: flip-flop " ^ nd.name ^ " never connected"))
      nodes;
    (match topo_or_cycle nodes with
    | Ok _ -> ()
    | Error names ->
        invalid_arg
          ("Circuit.Builder.finish: combinational cycle through "
          ^ String.concat ", " (List.filteri (fun i _ -> i < 5) names)));
    let fanout_lists = Array.make (Array.length nodes) [] in
    Array.iter
      (fun nd ->
        Array.iter (fun f -> fanout_lists.(f) <- nd.id :: fanout_lists.(f)) nd.fanins)
      nodes;
    {
      nodes;
      fanouts = Array.map (fun l -> Array.of_list (List.rev l)) fanout_lists;
      inputs = Vec.to_array b.inputs;
      outputs = Vec.to_array b.outputs;
      name = b.circuit_name;
    }
end

let node c i = c.nodes.(i)
let num_nodes c = Array.length c.nodes
let num_gates c =
  Array.fold_left
    (fun acc n -> if Gate.equal n.kind Gate.Input then acc else acc + 1)
    0 c.nodes

let num_dff c =
  Array.fold_left
    (fun acc n -> if Gate.equal n.kind Gate.Dff then acc + 1 else acc)
    0 c.nodes

let find c name =
  (* A linear scan: circuits carry no name index. Fine for one lookup
     (the tests use it so); code that resolves every node by name must
     build its own index or sort (name, index) pairs once, as
     Service.Digest.canonical_circuit does, or it goes quadratic. *)
  let n = Array.length c.nodes in
  let rec loop i =
    if i >= n then None
    else if String.equal c.nodes.(i).name name then Some i
    else loop (i + 1)
  in
  loop 0

let is_output c i = Array.exists (fun o -> o = i) c.outputs

let topological_order c =
  match topo_or_cycle c.nodes with
  | Ok order -> order
  | Error _ -> assert false (* established by Builder.finish *)

let levels c =
  let order = topological_order c in
  let lv = Array.make (num_nodes c) 0 in
  Array.iter
    (fun i ->
      let nd = c.nodes.(i) in
      match nd.kind with
      | Gate.Input | Gate.Dff | Gate.Const0 | Gate.Const1 -> lv.(i) <- 0
      | _ ->
          lv.(i) <-
            1 + Array.fold_left (fun acc f -> max acc lv.(f)) (-1) nd.fanins)
    order;
  lv

let depth c = Array.fold_left max 0 (levels c)

let validate c =
  let num = num_nodes c in
  let rec check_all i =
    if i >= num then Ok ()
    else
      match check_node ~num_nodes:num c.nodes.(i) with
      | Error _ as e -> e
      | Ok () -> if c.nodes.(i).id <> i then Error "node id mismatch" else check_all (i + 1)
  in
  match check_all 0 with
  | Error _ as e -> e
  | Ok () -> (
      if Array.exists (fun o -> o < 0 || o >= num) c.outputs then
        Error "output id out of range"
      else
        match topo_or_cycle c.nodes with
        | Ok _ -> Ok ()
        | Error names ->
            Error ("combinational cycle through " ^ String.concat ", " names))

let pp_summary fmt c =
  Format.fprintf fmt "%s: %d PI, %d PO, %d gates (%d DFF), depth %d" c.name
    (Array.length c.inputs) (Array.length c.outputs) (num_gates c) (num_dff c)
    (depth c)
