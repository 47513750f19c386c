let of_supports supports =
  let m = Array.length supports in
  if m <= 1 then 0
  else begin
    (* An input contributes iff it appears in exactly one adjacency
       vector, so psi is the number of pins seen exactly once: one pass
       tracking the pins seen at least once and at least twice. No lists —
       the F-M engine asks on every rescore of a multi-output cell. *)
    let once = ref Bitvec.empty and twice = ref Bitvec.empty in
    for i = 0 to m - 1 do
      let a_i = supports.(i) in
      twice := Bitvec.union !twice (Bitvec.inter !once a_i);
      once := Bitvec.union !once a_i
    done;
    Bitvec.norm (Bitvec.diff !once !twice)
  end

let of_cell (c : Hypergraph.cell) = of_supports c.Hypergraph.supports

let all h = Array.init (Hypergraph.num_cells h) (fun i -> of_cell (Hypergraph.cell h i))

let replicable ~threshold (c : Hypergraph.cell) =
  Array.length c.Hypergraph.outputs > 1 && of_cell c >= threshold

type distribution = {
  single_output : int;
  multi_by_psi : (int * int) list;
  total : int;
}

let distribution h =
  let counts = Hashtbl.create 16 in
  let single = ref 0 in
  let total = Hypergraph.num_cells h in
  for i = 0 to total - 1 do
    let c = Hypergraph.cell h i in
    if Array.length c.Hypergraph.outputs <= 1 then incr single
    else begin
      let psi = of_cell c in
      Hashtbl.replace counts psi
        (1 + try Hashtbl.find counts psi with Not_found -> 0)
    end
  done;
  let multi =
    Hashtbl.fold (fun psi n acc -> (psi, n) :: acc) counts []
    |> List.sort compare
  in
  { single_output = !single; multi_by_psi = multi; total }

let max_replication_factor d ~threshold =
  List.fold_left
    (fun acc (psi, n) -> if psi >= threshold then acc + n else acc)
    0 d.multi_by_psi

let pp_distribution fmt d =
  let pct n = 100.0 *. float_of_int n /. float_of_int (max 1 d.total) in
  Format.fprintf fmt "@[<v>single-output: %5.1f%%@," (pct d.single_output);
  List.iter
    (fun (psi, n) -> Format.fprintf fmt "psi = %2d     : %5.1f%%@," psi (pct n))
    d.multi_by_psi;
  Format.fprintf fmt "@]"
