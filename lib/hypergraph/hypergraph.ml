let demand_arity = 4

type cell = {
  id : int;
  name : string;
  area : int;
  demand : int array;
  inputs : int array;
  outputs : int array;
  supports : Bitvec.t array;
  conn_cache : int array array;
  full_nets : int array;
}

type t = {
  cells : cell array;
  num_nets : int;
  net_cells : int array array;
  net_external : bool array;
  net_names : string array;
}

type cell_spec = {
  s_name : string;
  s_area : int;
  s_demand : int array;
  s_inputs : int array;
  s_outputs : int array;
  s_supports : Bitvec.t array;
}

(* Build-time helpers. Hypergraphs are rebuilt for every k-way split, so
   these run on arrays only: no lists, growable vectors or hash tables per
   cell. *)

(* Sort a fresh array in place and return its distinct values. *)
let sort_uniq_in_place arr =
  Array.sort Int.compare arr;
  let n = Array.length arr in
  let k = ref (min n 1) in
  for i = 1 to n - 1 do
    if arr.(i) <> arr.(!k - 1) then begin
      arr.(!k) <- arr.(i);
      incr k
    end
  done;
  if !k = n then arr else Array.sub arr 0 !k

(* Copy [src.(i)] for every bit [i] of [mask], ascending, into [dst] from
   position [k]; returns the next free position. *)
let fill_masked src (mask : Bitvec.t) dst k =
  let k = ref k and i = ref 0 and rest = ref mask in
  while !rest <> 0 do
    if !rest land 1 <> 0 then begin
      dst.(!k) <- src.(!i);
      incr k
    end;
    rest := !rest lsr 1;
    incr i
  done;
  !k

(* Input pins the outputs in [out_mask] depend on. *)
let support_union c (out_mask : Bitvec.t) =
  let acc = ref Bitvec.empty and o = ref 0 and rest = ref out_mask in
  while !rest <> 0 do
    if !rest land 1 <> 0 then acc := Bitvec.union !acc c.supports.(!o);
    rest := !rest lsr 1;
    incr o
  done;
  !acc

let connected_nets_uncached c ~out_mask =
  if Bitvec.is_empty out_mask then [||]
  else begin
    let in_mask = support_union c out_mask in
    let nets = Array.make (Bitvec.norm out_mask + Bitvec.norm in_mask) 0 in
    let k = fill_masked c.outputs out_mask nets 0 in
    ignore (fill_masked c.inputs in_mask nets k);
    sort_uniq_in_place nets
  end

(* A validated cell's inputs each support some output, so its full-mask
   connected nets are exactly its distinct incident nets. *)
let cell_nets c = c.full_nets

let connected_nets c ~out_mask =
  if out_mask >= 0 && out_mask < Array.length c.conn_cache then
    c.conn_cache.(out_mask)
  else if Bitvec.equal out_mask (Bitvec.full (Array.length c.outputs)) then
    c.full_nets
  else connected_nets_uncached c ~out_mask

let connected_nets_traditional c ~out_mask =
  if Bitvec.is_empty out_mask then [||]
  else begin
    let n_in = Array.length c.inputs in
    let nets = Array.make (Bitvec.norm out_mask + n_in) 0 in
    let k = fill_masked c.outputs out_mask nets 0 in
    Array.blit c.inputs 0 nets k n_in;
    sort_uniq_in_place nets
  end

(* Cells with few outputs (every mapped CLB) get a per-mask memo table;
   every cell gets the full-mask entry. *)
let fill_conn_cache c =
  let m = Array.length c.outputs in
  let full = Bitvec.full m in
  if m > 4 then { c with full_nets = connected_nets_uncached c ~out_mask:full }
  else begin
    let table =
      Array.init (1 lsl m) (fun mask -> connected_nets_uncached c ~out_mask:mask)
    in
    { c with conn_cache = table; full_nets = table.(full) }
  end

let check_cell ~num_nets c =
  let n_in = Array.length c.inputs in
  let bad msg = Error (Printf.sprintf "cell %s: %s" c.name msg) in
  if c.area < 1 then bad "area must be >= 1"
  else if Array.length c.demand < 1 || Array.length c.demand > demand_arity
  then bad "demand must use 1..demand_arity axes"
  else if c.demand.(0) <> c.area then bad "demand.(0) must equal area"
  else if Array.exists (fun x -> x < 0) c.demand then
    bad "demand must be non-negative"
  else if Array.length c.outputs = 0 then bad "cell has no outputs"
  else if Array.length c.supports <> Array.length c.outputs then
    bad "one support mask per output required"
  else if
    Array.exists (fun n -> n < 0 || n >= num_nets) c.inputs
    || Array.exists (fun n -> n < 0 || n >= num_nets) c.outputs
  then bad "net id out of range"
  else if n_in > Bitvec.max_width then bad "too many input pins"
  else if
    Array.exists (fun s -> not (Bitvec.subset s (Bitvec.full n_in))) c.supports
  then bad "support refers to a missing input pin"
  else if
    n_in > 0
    && not
         (Bitvec.equal
            (Array.fold_left Bitvec.union Bitvec.empty c.supports)
            (Bitvec.full n_in))
  then bad "some input pin supports no output"
  else if n_in = 0 && Array.exists (fun s -> not (Bitvec.is_empty s)) c.supports
  then bad "support of an input-less cell must be empty"
  else Ok ()

let validate h =
  let num = Array.length h.cells in
  let rec check_cells i =
    if i >= num then Ok ()
    else if h.cells.(i).id <> i then Error "cell id mismatch"
    else
      match check_cell ~num_nets:h.num_nets h.cells.(i) with
      | Error _ as e -> e
      | Ok () -> check_cells (i + 1)
  in
  match check_cells 0 with
  | Error _ as e -> e
  | Ok () -> (
      (* Exactly one driver per net among the cells, unless external. *)
      let drivers = Array.make h.num_nets 0 in
      Array.iter
        (fun c -> Array.iter (fun n -> drivers.(n) <- drivers.(n) + 1) c.outputs)
        h.cells;
      let rec check_nets n =
        if n >= h.num_nets then Ok ()
        else if drivers.(n) > 1 then
          Error (Printf.sprintf "net %d has %d drivers" n drivers.(n))
        else if drivers.(n) = 0 && not h.net_external.(n) then
          Error (Printf.sprintf "net %d has no driver and is not external" n)
        else check_nets (n + 1)
      in
      check_nets 0)

let create_of_array ?net_names ~num_nets ~external_nets specs =
  let cells =
    Array.mapi
      (fun id s ->
        fill_conn_cache
          {
            id;
            name = s.s_name;
            area = s.s_area;
            demand =
              (if Array.length s.s_demand = 0 then [| s.s_area |]
               else Array.copy s.s_demand);
            inputs = s.s_inputs;
            outputs = s.s_outputs;
            supports = s.s_supports;
            conn_cache = [||];
            full_nets = [||];
          })
      specs
  in
  let net_external = Array.make num_nets false in
  List.iter
    (fun n ->
      if n < 0 || n >= num_nets then
        invalid_arg "Hypergraph.create: external net id out of range";
      net_external.(n) <- true)
    external_nets;
  (* net -> cells, ascending cell id: count, then fill. Each cell's
     full_nets is deduplicated, so a cell lands once per net. *)
  let fill = Array.make num_nets 0 in
  let each_incidence f =
    Array.iter
      (fun c ->
        Array.iter (fun n -> if n >= 0 && n < num_nets then f c n) c.full_nets)
      cells
  in
  each_incidence (fun _ n -> fill.(n) <- fill.(n) + 1);
  let net_cells = Array.map (fun d -> Array.make d 0) fill in
  Array.fill fill 0 num_nets 0;
  each_incidence (fun c n ->
      net_cells.(n).(fill.(n)) <- c.id;
      fill.(n) <- fill.(n) + 1);
  let net_names =
    match net_names with
    | Some a ->
        if Array.length a <> num_nets then
          invalid_arg "Hypergraph.create: net_names length mismatch";
        a
    | None -> Array.init num_nets (fun n -> Printf.sprintf "net%d" n)
  in
  let h = { cells; num_nets; net_cells; net_external; net_names } in
  match validate h with
  | Ok () -> h
  | Error msg -> invalid_arg ("Hypergraph.create: " ^ msg)

let create ?net_names ~num_nets ~external_nets specs =
  create_of_array ?net_names ~num_nets ~external_nets (Array.of_list specs)

let num_cells h = Array.length h.cells
let cell h i = h.cells.(i)
let total_area h = Array.fold_left (fun acc c -> acc + c.area) 0 h.cells

let total_demand h =
  let acc = Array.make demand_arity 0 in
  Array.iter
    (fun c ->
      let d = c.demand in
      for a = 0 to Array.length d - 1 do
        acc.(a) <- acc.(a) + d.(a)
      done)
    h.cells;
  acc

let boundary h ~labels =
  if Array.length labels <> num_cells h then
    invalid_arg "Hypergraph.boundary: labels do not cover the cells";
  let flags = Array.make (num_cells h) false in
  Array.iter
    (fun cells ->
      if Array.length cells > 1 then begin
        let l0 = labels.(cells.(0)) in
        if Array.exists (fun c -> labels.(c) <> l0) cells then
          Array.iter (fun c -> flags.(c) <- true) cells
      end)
    h.net_cells;
  flags

let max_cell_degree h =
  Array.fold_left (fun acc c -> max acc (Array.length c.full_nets)) 0 h.cells

let pins h =
  Array.fold_left
    (fun acc c -> acc + Array.length c.inputs + Array.length c.outputs)
    0 h.cells

(* [n] in the sorted array [nets]. *)
let mem_sorted nets n =
  let lo = ref 0 and hi = ref (Array.length nets) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if nets.(mid) < n then lo := mid + 1 else hi := mid
  done;
  !lo < Array.length nets && nets.(!lo) = n

let touches cell m n =
  (not (Bitvec.is_empty m)) && mem_sorted (connected_nets cell ~out_mask:m) n

(* [v]'s bits renumbered to their rank among the bits of [within]
   ([v] a subset of [within]): a support over the kept input pins, in the
   dense pin numbering of the induced cell. *)
let compress (v : Bitvec.t) (within : Bitvec.t) =
  let acc = ref Bitvec.empty and rank = ref 0 and bit = ref 0 in
  let rest = ref within in
  while !rest <> 0 do
    if !rest land 1 <> 0 then begin
      if Bitvec.mem !bit v then acc := Bitvec.add !rank !acc;
      incr rank
    end;
    rest := !rest lsr 1;
    incr bit
  done;
  !acc

(* Restrict to copies: each (cell id, out_mask) becomes a new cell carrying
   exactly those outputs and the inputs they depend on. A net becomes
   external when it was external before or when some incidence of the
   original hypergraph is not covered by the kept copies. *)
let induce_copies h specs =
  let specs = Array.of_list specs in
  let kept_mask = Array.make (num_cells h) Bitvec.empty in
  Array.iter
    (fun (id, m) ->
      if id < 0 || id >= num_cells h then
        invalid_arg "Hypergraph.induce_copies: cell id out of range";
      if Bitvec.is_empty m then
        invalid_arg "Hypergraph.induce_copies: empty output mask";
      if not (Bitvec.subset m (Bitvec.full (Array.length h.cells.(id).outputs)))
      then invalid_arg "Hypergraph.induce_copies: mask out of range";
      if not (Bitvec.is_empty kept_mask.(id)) then
        invalid_arg "Hypergraph.induce_copies: duplicate cell";
      kept_mask.(id) <- m)
    specs;
  (* Net renumbering: nets touched by kept copies survive, numbered in
     first-touch order. *)
  let net_map = Array.make h.num_nets (-1) in
  let old_of_new = Array.make h.num_nets 0 in
  let num_new_nets = ref 0 in
  Array.iter
    (fun (id, m) ->
      let nets = connected_nets h.cells.(id) ~out_mask:m in
      for k = 0 to Array.length nets - 1 do
        let n = nets.(k) in
        if net_map.(n) < 0 then begin
          net_map.(n) <- !num_new_nets;
          old_of_new.(!num_new_nets) <- n;
          incr num_new_nets
        end
      done)
    specs;
  let num_new_nets = !num_new_nets in
  (* External detection: walk original incidences. The cell touches n (it
     is in net_cells). The net leaks outside when the kept copy does not
     cover that incidence, or when the dropped copy (the complement of the
     kept outputs, e.g. the other half of a replicated cell) also touches
     it. *)
  let externals = ref [] in
  for k = num_new_nets - 1 downto 0 do
    let n = old_of_new.(k) in
    let ext = ref h.net_external.(n) in
    let cells = h.net_cells.(n) in
    let i = ref 0 in
    while (not !ext) && !i < Array.length cells do
      let cell = h.cells.(cells.(!i)) in
      let kept = kept_mask.(cell.id) in
      let dropped =
        Bitvec.diff (Bitvec.full (Array.length cell.outputs)) kept
      in
      if (not (touches cell kept n)) || touches cell dropped n then ext := true;
      incr i
    done;
    if !ext then externals := k :: !externals
  done;
  let new_specs =
    Array.map
      (fun (id, m) ->
        let c = h.cells.(id) in
        let in_mask = support_union c m in
        let s_inputs = Array.make (Bitvec.norm in_mask) 0 in
        ignore (fill_masked c.inputs in_mask s_inputs 0);
        let s_outputs = Array.make (Bitvec.norm m) 0 in
        ignore (fill_masked c.outputs m s_outputs 0);
        let s_supports = Array.make (Bitvec.norm m) Bitvec.empty in
        ignore (fill_masked c.supports m s_supports 0);
        for k = 0 to Array.length s_inputs - 1 do
          s_inputs.(k) <- net_map.(s_inputs.(k))
        done;
        for k = 0 to Array.length s_outputs - 1 do
          s_outputs.(k) <- net_map.(s_outputs.(k));
          s_supports.(k) <- compress s_supports.(k) in_mask
        done;
        { s_name = c.name; s_area = c.area; s_demand = c.demand;
          s_inputs; s_outputs; s_supports })
      specs
  in
  let net_names =
    Array.init num_new_nets (fun k -> h.net_names.(old_of_new.(k)))
  in
  let h' =
    create_of_array ~net_names ~num_nets:num_new_nets ~external_nets:!externals
      new_specs
  in
  (h', specs)

let induce h ~keep =
  if Array.length keep <> num_cells h then
    invalid_arg "Hypergraph.induce: keep length mismatch";
  let specs = ref [] in
  for id = num_cells h - 1 downto 0 do
    if keep.(id) then
      specs :=
        (id, Bitvec.full (Array.length h.cells.(id).outputs)) :: !specs
  done;
  let h', spec_arr = induce_copies h !specs in
  (h', Array.map fst spec_arr)

let pp_summary fmt h =
  let n_ext =
    Array.fold_left (fun acc e -> if e then acc + 1 else acc) 0 h.net_external
  in
  Format.fprintf fmt "%d cells (area %d), %d nets (%d external), %d pins"
    (num_cells h) (total_area h) h.num_nets n_ext (pins h)
