(* Result checks that share no code with the engine: no Kway.check, no
   Library.min_feasible_cost, no connected-net or summary helper. A part
   is recounted from its member list and the raw cell records; devices
   are read as plain data (capacity, terminals, window, price). *)

let fail fmt = Printf.ksprintf (fun s -> Error s) fmt
let ( let* ) = Result.bind

let max_clbs (d : Fpga.Device.t) =
  int_of_float
    (Float.floor ((d.Fpga.Device.util_high *. float_of_int d.capacity) +. 1e-9))

let device_named library name =
  List.find_opt
    (fun (d : Fpga.Device.t) -> String.equal d.Fpga.Device.name name)
    (Fpga.Library.devices library)

(* Nets a copy of [cell] carrying the outputs in [mask] touches: those
   output nets, plus every input net some carried output depends on. *)
let copy_nets (cell : Hypergraph.cell) mask =
  let nets = ref [] and support = ref 0 in
  Array.iteri
    (fun o net ->
      if mask land (1 lsl o) <> 0 then begin
        nets := net :: !nets;
        support := !support lor cell.Hypergraph.supports.(o)
      end)
    cell.Hypergraph.outputs;
  Array.iteri
    (fun i net -> if !support land (1 lsl i) <> 0 then nets := net :: !nets)
    cell.Hypergraph.inputs;
  List.sort_uniq compare !nets

(* Every output of every cell is carried by exactly one part. *)
let check_cover h (parts : Core.Kway.part list) =
  let n = Hypergraph.num_cells h in
  let seen = Array.make n 0 in
  let rec go = function
    | [] -> Ok ()
    | (p : Core.Kway.part) :: rest ->
        let rec members = function
          | [] -> go rest
          | (c, mask) :: ms ->
              if c < 0 || c >= n then fail "member %d is not a cell" c
              else if mask = 0 then fail "cell %d joins a part with no output" c
              else if seen.(c) land mask <> 0 then
                fail "an output of cell %d is driven twice" c
              else begin
                seen.(c) <- seen.(c) lor mask;
                members ms
              end
        in
        members p.Core.Kway.members
  in
  let* () = go parts in
  let rec all c =
    if c >= n then Ok ()
    else
      let width = Array.length (Hypergraph.cell h c).Hypergraph.outputs in
      if seen.(c) <> (1 lsl width) - 1 then
        fail "cell %d: outputs driven %x, expected %x" c seen.(c)
          ((1 lsl width) - 1)
      else all (c + 1)
  in
  all 0

(* Per part, recount CLBs (a replicated cell pays its whole area in every
   part holding a copy) and IOBs (nets the part touches that leave it:
   external, or touched by another part too). *)
let recount h (parts : Core.Kway.part list) =
  let parts = Array.of_list parts in
  let k = Array.length parts in
  let touch = Array.make h.Hypergraph.num_nets [] in
  let clbs = Array.make k 0 in
  Array.iteri
    (fun j (p : Core.Kway.part) ->
      List.iter
        (fun (c, mask) ->
          let cell = Hypergraph.cell h c in
          clbs.(j) <- clbs.(j) + cell.Hypergraph.area;
          List.iter
            (fun net ->
              match touch.(net) with
              | j' :: _ when j' = j -> ()
              | l -> touch.(net) <- j :: l)
            (copy_nets cell mask))
        p.Core.Kway.members)
    parts;
  let iobs = Array.make k 0 in
  Array.iteri
    (fun net ps ->
      let ps = List.sort_uniq compare ps in
      let leaves = h.Hypergraph.net_external.(net) || List.length ps > 1 in
      if leaves then List.iter (fun j -> iobs.(j) <- iobs.(j) + 1) ps)
    touch;
  (clbs, iobs)

(* A part list fits: each part within its device's CLB ceiling and
   terminal count (the lower utilization bound is relaxed, as the engine
   allows for remainder parts), and the prices add up. *)
let check_fit ~library ~what parts ~total_cost =
  let rec go acc = function
    | [] ->
        if Float.abs (acc -. total_cost) > 1e-6 *. Float.max 1. total_cost then
          fail "%s: prices sum to %.2f, result says %.2f" what acc total_cost
        else Ok ()
    | (name, clbs, iobs) :: rest -> (
        match device_named library name with
        | None -> fail "%s: device %s is not in the library" what name
        | Some d ->
            if clbs > max_clbs d then
              fail "%s: %d CLBs on %s (ceiling %d)" what clbs name (max_clbs d)
            else if iobs > d.Fpga.Device.terminals then
              fail "%s: %d IOBs on %s (%d terminals)" what iobs name
                d.Fpga.Device.terminals
            else go (acc +. d.Fpga.Device.price) rest)
  in
  go 0. parts

(* The full in-process check of one engine result. *)
let check_result ~library ~what h (r : Core.Kway.result) =
  let parts = r.Core.Kway.parts in
  let* () =
    Result.map_error (fun m -> what ^ ": " ^ m) (check_cover h parts)
  in
  let clbs, iobs = recount h parts in
  let* () =
    List.fold_left
      (fun acc (j, (p : Core.Kway.part)) ->
        let* () = acc in
        if p.Core.Kway.clbs <> clbs.(j) || p.Core.Kway.iobs <> iobs.(j) then
          fail "%s: part %d says %d CLBs / %d IOBs, recount %d / %d" what j
            p.Core.Kway.clbs p.Core.Kway.iobs clbs.(j) iobs.(j)
        else Ok ())
      (Ok ())
      (List.mapi (fun j p -> (j, p)) parts)
  in
  let s = r.Core.Kway.summary in
  let sum a = Array.fold_left ( + ) 0 a in
  let* () =
    if s.Fpga.Cost.num_partitions <> List.length parts then
      fail "%s: summary counts %d parts, %d listed" what
        s.Fpga.Cost.num_partitions (List.length parts)
    else if s.Fpga.Cost.total_clbs <> sum clbs then
      fail "%s: summary says %d CLBs, recount %d" what s.Fpga.Cost.total_clbs
        (sum clbs)
    else if s.Fpga.Cost.total_iobs <> sum iobs then
      fail "%s: summary says %d IOBs, recount %d" what s.Fpga.Cost.total_iobs
        (sum iobs)
    else Ok ()
  in
  check_fit ~library ~what
    (List.mapi
       (fun j (p : Core.Kway.part) ->
         (p.Core.Kway.device.Fpga.Device.name, clbs.(j), iobs.(j)))
       parts)
    ~total_cost:s.Fpga.Cost.total_cost

(* A fractional lower bound on total device cost: the cheapest fractional
   mix of devices whose summed CLB ceilings hold every cell once and whose
   summed terminals hold every pad net once (each pad net costs at least
   one IOB somewhere), and never below the cheapest single device. The
   two-constraint covering LP has an optimal vertex using at most two
   device types, so trying every single type and every pair is exact. *)
let lower_bound ~library h =
  let area = float_of_int (Hypergraph.total_area h) in
  let pads =
    let n = ref 0 in
    Array.iteri
      (fun net ext ->
        if ext && h.Hypergraph.net_cells.(net) <> [||] then incr n)
      h.Hypergraph.net_external;
    float_of_int !n
  in
  let devs =
    List.map
      (fun (d : Fpga.Device.t) ->
        ( float_of_int (max_clbs d),
          float_of_int d.Fpga.Device.terminals,
          d.Fpga.Device.price ))
      (Fpga.Library.devices library)
  in
  let single (c, t, p) = p *. Float.max (area /. c) (pads /. t) in
  let pair (c1, t1, p1) (c2, t2, p2) =
    (* x1 c1 + x2 c2 = area, x1 t1 + x2 t2 = pads *)
    let det = (c1 *. t2) -. (c2 *. t1) in
    if Float.abs det < 1e-12 then Float.infinity
    else
      let x1 = ((area *. t2) -. (c2 *. pads)) /. det in
      let x2 = ((c1 *. pads) -. (area *. t1)) /. det in
      if x1 < 0. || x2 < 0. then Float.infinity else (x1 *. p1) +. (x2 *. p2)
  in
  let best =
    List.fold_left
      (fun acc d ->
        List.fold_left
          (fun acc d' -> Float.min acc (pair d d'))
          (Float.min acc (single d))
          devs)
      Float.infinity devs
  in
  let cheapest =
    List.fold_left (fun acc (_, _, p) -> Float.min acc p) Float.infinity devs
  in
  Float.max best cheapest

let check_bound ~what ~bound ~total_cost =
  if total_cost +. 1e-6 < bound then
    fail "%s: total cost %.2f is below the lower bound %.2f" what total_cost
      bound
  else Ok ()

(* --- daemon replies ------------------------------------------------ *)

module J = Obs.Json

let field name j =
  match J.member name j with
  | Some v -> Ok v
  | None -> fail "reply has no %S field" name

let int_field name j =
  let* v = field name j in
  match J.to_int v with Some i -> Ok i | None -> fail "%S is not an int" name

let float_field name j =
  let* v = field name j in
  match J.to_float v with
  | Some f -> Ok f
  | None -> fail "%S is not a number" name

type reply_summary = {
  parts : (string * int * int) list;  (** device, CLBs, IOBs *)
  cost : float;
  replicated : int;
}

(* Read a daemon result document (the [result] object of a reply) and
   check it on its own terms: every part fits its device, the prices add
   up to the total, and the CLB/IOB totals are the part sums. *)
let check_reply ~library ~what result =
  let* parts_json = field "parts" result in
  let* parts =
    match parts_json with
    | J.List ps ->
        List.fold_right
          (fun p acc ->
            let* acc = acc in
            let* dev = field "device" p in
            let* clbs = int_field "clbs" p in
            let* iobs = int_field "iobs" p in
            match J.to_str dev with
            | Some d -> Ok ((d, clbs, iobs) :: acc)
            | None -> fail "part device is not a string")
          ps (Ok [])
    | _ -> fail "%s: parts is not a list" what
  in
  let* cost = float_field "total_cost" result in
  let* iobs = int_field "total_iobs" result in
  let* clbs = int_field "total_clbs" result in
  let* k = int_field "num_partitions" result in
  let* replicated = int_field "replicated_cells" result in
  let* () =
    if parts = [] then fail "%s: no parts" what
    else if k <> List.length parts then
      fail "%s: %d partitions, %d parts listed" what k (List.length parts)
    else if clbs <> List.fold_left (fun a (_, c, _) -> a + c) 0 parts then
      fail "%s: total_clbs is not the part sum" what
    else if iobs <> List.fold_left (fun a (_, _, i) -> a + i) 0 parts then
      fail "%s: total_iobs is not the part sum" what
    else Ok ()
  in
  let* () = check_fit ~library ~what parts ~total_cost:cost in
  Ok { parts; cost; replicated }

(* A daemon reply equals an in-process result: same parts in the same
   order on the same devices, same totals. *)
let same_as_inprocess ~what (s : reply_summary) (r : Core.Kway.result) =
  let mine =
    List.map
      (fun (p : Core.Kway.part) ->
        ( p.Core.Kway.device.Fpga.Device.name,
          p.Core.Kway.clbs,
          p.Core.Kway.iobs ))
      r.Core.Kway.parts
  in
  if mine <> s.parts then
    fail "%s: daemon parts differ from the in-process run" what
  else if r.Core.Kway.replicated_cells <> s.replicated then
    fail "%s: replicated cells %d in process, %d from the daemon" what
      r.Core.Kway.replicated_cells s.replicated
  else if Float.abs (r.Core.Kway.summary.Fpga.Cost.total_cost -. s.cost) > 1e-6
  then fail "%s: cost differs from the in-process run" what
  else Ok ()
