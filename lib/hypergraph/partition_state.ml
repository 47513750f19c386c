type side = A | B

let opposite = function A -> B | B -> A
let side_to_string = function A -> "A" | B -> "B"

type model = Functional | Traditional

type t = {
  hg : Hypergraph.t;
  model : model;
  out_on_b : Bitvec.t array;
  conn_a : int array;  (* per net: copies connected on side A *)
  conn_b : int array;
  mutable cut : int;
  mutable term_a : int;
  mutable term_b : int;
  mutable area_a : int;
  mutable area_b : int;
  (* Per-side resource totals over the cells' demand vectors (slot 0
     restates area); fixed length [Hypergraph.demand_arity]. Same
     replication semantics as area: a replicated cell pays its full
     demand on both sides. *)
  res_a : int array;
  res_b : int array;
  (* Scratch buffers for the per-operation net deltas (F-M evaluates one
     candidate operation per neighbouring cell after every applied move, so
     this path must not allocate). s1/s2 hold the per-side delta streams
     (ascending net order); they are merged into s_nets/s_da/s_db. *)
  mutable s_nets : int array;
  mutable s_da : int array;
  mutable s_db : int array;
  mutable s_len : int;
  mutable s1_nets : int array;
  mutable s1_d : int array;
  mutable s1_len : int;
  mutable s2_nets : int array;
  mutable s2_d : int array;
  mutable s2_len : int;
  (* Nets whose per-side connection category (0 / 1 / >=2) changed in the
     last [apply] — exactly the nets that crossed a gain-relevant critical
     boundary (0<->1 or 1<->2 on a side). Kept separate from the s_* eval
     scratch so readers may interleave [eval]/[eval_into] calls with the
     iteration. *)
  mutable ch_nets : int array;
  mutable ch_len : int;
  sd : scratch; (* reusable target for the record-returning eval/apply *)
}

and delta = {
  d_cut : int;
  d_term_a : int;
  d_term_b : int;
  d_area_a : int;
  d_area_b : int;
}

and scratch = {
  mutable sc_cut : int;
  mutable sc_term_a : int;
  mutable sc_term_b : int;
  mutable sc_area_a : int;
  mutable sc_area_b : int;
  sc_res_a : int array;
  sc_res_b : int array;
}

let zero_delta = { d_cut = 0; d_term_a = 0; d_term_b = 0; d_area_a = 0; d_area_b = 0 }

let make_scratch () =
  {
    sc_cut = 0;
    sc_term_a = 0;
    sc_term_b = 0;
    sc_area_a = 0;
    sc_area_b = 0;
    sc_res_a = Array.make Hypergraph.demand_arity 0;
    sc_res_b = Array.make Hypergraph.demand_arity 0;
  }

let hypergraph t = t.hg
let model t = t.model

(* Nets a copy touches under the state's replication model. *)
let conn_nets t cell ~out_mask =
  match t.model with
  | Functional -> Hypergraph.connected_nets cell ~out_mask
  | Traditional -> Hypergraph.connected_nets_traditional cell ~out_mask

let full_mask t c = Bitvec.full (Array.length (Hypergraph.cell t.hg c).Hypergraph.outputs)
let mask t c = t.out_on_b.(c)

let is_replicated t c =
  let m = t.out_on_b.(c) in
  (not (Bitvec.is_empty m)) && not (Bitvec.equal m (full_mask t c))

let num_replicated t =
  let n = ref 0 in
  for c = 0 to Hypergraph.num_cells t.hg - 1 do
    if is_replicated t c then incr n
  done;
  !n

let cut t = t.cut
let terminals t = function A -> t.term_a | B -> t.term_b
let area t = function A -> t.area_a | B -> t.area_b
let resource t side a = match side with A -> t.res_a.(a) | B -> t.res_b.(a)
let resources t side =
  Array.copy (match side with A -> t.res_a | B -> t.res_b)

let single_side t c =
  let m = t.out_on_b.(c) in
  if Bitvec.is_empty m then Some A
  else if Bitvec.equal m (full_mask t c) then Some B
  else None

let connections t side n =
  match side with A -> t.conn_a.(n) | B -> t.conn_b.(n)

let net_cut t n = t.conn_a.(n) > 0 && t.conn_b.(n) > 0

let mask_on t c = function
  | B -> t.out_on_b.(c)
  | A -> Bitvec.diff (full_mask t c) t.out_on_b.(c)

let side_copies t side =
  let acc = ref [] in
  for c = Hypergraph.num_cells t.hg - 1 downto 0 do
    let m = mask_on t c side in
    if not (Bitvec.is_empty m) then acc := (c, m) :: !acc
  done;
  !acc

(* Per-net contributions to the tracked counters. *)
let cut_of ca cb = if ca > 0 && cb > 0 then 1 else 0

(* Terminal contribution of a net to the side holding [ch] of its
   connections ([ct] on the other side): the side needs an IOB for it when
   it connects and the net leaves the side (cut or external). Side B's is
   [term_a_of ~ext cb ca]. An int, not a pair: scratch_totals calls it per
   touched net per candidate. *)
let term_a_of ~ext ch ct = if ch > 0 && (ct > 0 || ext) then 1 else 0

let recompute t =
  let hg = t.hg in
  let ca = Array.make hg.Hypergraph.num_nets 0 in
  let cb = Array.make hg.Hypergraph.num_nets 0 in
  let area_a = ref 0 and area_b = ref 0 in
  for c = 0 to Hypergraph.num_cells hg - 1 do
    let cell = Hypergraph.cell hg c in
    let m_a = mask_on t c A and m_b = mask_on t c B in
    if not (Bitvec.is_empty m_a) then begin
      area_a := !area_a + cell.Hypergraph.area;
      Array.iter (fun n -> ca.(n) <- ca.(n) + 1) (conn_nets t cell ~out_mask:m_a)
    end;
    if not (Bitvec.is_empty m_b) then begin
      area_b := !area_b + cell.Hypergraph.area;
      Array.iter (fun n -> cb.(n) <- cb.(n) + 1) (conn_nets t cell ~out_mask:m_b)
    end
  done;
  let cut = ref 0 and term_a = ref 0 and term_b = ref 0 in
  for n = 0 to hg.Hypergraph.num_nets - 1 do
    let ext = hg.Hypergraph.net_external.(n) in
    cut := !cut + cut_of ca.(n) cb.(n);
    term_a := !term_a + term_a_of ~ext ca.(n) cb.(n);
    term_b := !term_b + term_a_of ~ext cb.(n) ca.(n)
  done;
  (!cut, !term_a, !term_b, !area_a, !area_b)

let create_with_masks ?(model = Functional) hg ~masks =
  let n_cells = Hypergraph.num_cells hg in
  let out_on_b =
    Array.init n_cells (fun c ->
        let full =
          Bitvec.full (Array.length (Hypergraph.cell hg c).Hypergraph.outputs)
        in
        let m = masks c in
        if not (Bitvec.subset m full) then
          invalid_arg "Partition_state.create_with_masks: mask out of range";
        m)
  in
  let t =
    {
      hg;
      model;
      out_on_b;
      conn_a = Array.make hg.Hypergraph.num_nets 0;
      conn_b = Array.make hg.Hypergraph.num_nets 0;
      cut = 0;
      term_a = 0;
      term_b = 0;
      area_a = 0;
      area_b = 0;
      res_a = Array.make Hypergraph.demand_arity 0;
      res_b = Array.make Hypergraph.demand_arity 0;
      s_nets = Array.make 32 0;
      s_da = Array.make 32 0;
      s_db = Array.make 32 0;
      s_len = 0;
      s1_nets = Array.make 32 0;
      s1_d = Array.make 32 0;
      s1_len = 0;
      s2_nets = Array.make 32 0;
      s2_d = Array.make 32 0;
      s2_len = 0;
      ch_nets = Array.make 32 0;
      ch_len = 0;
      sd = make_scratch ();
    }
  in
  (* Fill the connection counts from scratch. *)
  for c = 0 to n_cells - 1 do
    let cell = Hypergraph.cell hg c in
    let m_a = mask_on t c A and m_b = mask_on t c B in
    let dem = cell.Hypergraph.demand in
    if not (Bitvec.is_empty m_a) then begin
      t.area_a <- t.area_a + cell.Hypergraph.area;
      for a = 0 to Array.length dem - 1 do
        t.res_a.(a) <- t.res_a.(a) + dem.(a)
      done;
      Array.iter
        (fun n -> t.conn_a.(n) <- t.conn_a.(n) + 1)
        (conn_nets t cell ~out_mask:m_a)
    end;
    if not (Bitvec.is_empty m_b) then begin
      t.area_b <- t.area_b + cell.Hypergraph.area;
      for a = 0 to Array.length dem - 1 do
        t.res_b.(a) <- t.res_b.(a) + dem.(a)
      done;
      Array.iter
        (fun n -> t.conn_b.(n) <- t.conn_b.(n) + 1)
        (conn_nets t cell ~out_mask:m_b)
    end
  done;
  for n = 0 to hg.Hypergraph.num_nets - 1 do
    let ext = hg.Hypergraph.net_external.(n) in
    let ca = t.conn_a.(n) and cb = t.conn_b.(n) in
    t.cut <- t.cut + cut_of ca cb;
    t.term_a <- t.term_a + term_a_of ~ext ca cb;
    t.term_b <- t.term_b + term_a_of ~ext cb ca
  done;
  t

let create ?model hg ~init_on_b =
  create_with_masks ?model hg ~masks:(fun c ->
      if init_on_b c then
        Bitvec.full (Array.length (Hypergraph.cell hg c).Hypergraph.outputs)
      else Bitvec.empty)

let copy t =
  {
    t with
    out_on_b = Array.copy t.out_on_b;
    conn_a = Array.copy t.conn_a;
    conn_b = Array.copy t.conn_b;
    res_a = Array.copy t.res_a;
    res_b = Array.copy t.res_b;
    s_nets = Array.make 32 0;
    s_da = Array.make 32 0;
    s_db = Array.make 32 0;
    s_len = 0;
    s1_nets = Array.make 32 0;
    s1_d = Array.make 32 0;
    s1_len = 0;
    s2_nets = Array.make 32 0;
    s2_d = Array.make 32 0;
    s2_len = 0;
    ch_nets = Array.make 32 0;
    ch_len = 0;
    sd = make_scratch ();
  }

(* Everything from here to [apply] runs once per candidate in the F-M hot
   loop, so it is top-level code over [t]: no local closures (without
   flambda a closure capturing [t] is heap-allocated on every call) and no
   tuple returns. *)
let grow a = Array.append a (Array.make (max 32 (Array.length a)) 0)

let push1 t n v =
  if t.s1_len = Array.length t.s1_nets then begin
    t.s1_nets <- grow t.s1_nets;
    t.s1_d <- grow t.s1_d
  end;
  t.s1_nets.(t.s1_len) <- n;
  t.s1_d.(t.s1_len) <- v;
  t.s1_len <- t.s1_len + 1

let push2 t n v =
  if t.s2_len = Array.length t.s2_nets then begin
    t.s2_nets <- grow t.s2_nets;
    t.s2_d <- grow t.s2_d
  end;
  t.s2_nets.(t.s2_len) <- n;
  t.s2_d.(t.s2_len) <- v;
  t.s2_len <- t.s2_len + 1

let push_side t side n v = match side with A -> push1 t n v | B -> push2 t n v

(* Emit the symmetric difference of two sorted, deduplicated net arrays
   into [side]'s stream: -1 for nets only in [removed], +1 for nets only
   in [added], in ascending net order. *)
let diff_sorted t side removed added =
  let i = ref 0 and j = ref 0 in
  let nr = Array.length removed and na = Array.length added in
  while !i < nr || !j < na do
    if !i >= nr then begin
      push_side t side added.(!j) 1;
      incr j
    end
    else if !j >= na then begin
      push_side t side removed.(!i) (-1);
      incr i
    end
    else if removed.(!i) = added.(!j) then begin
      incr i;
      incr j
    end
    else if removed.(!i) < added.(!j) then begin
      push_side t side removed.(!i) (-1);
      incr i
    end
    else begin
      push_side t side added.(!j) 1;
      incr j
    end
  done

let push_merged t n da db =
  t.s_nets.(t.s_len) <- n;
  t.s_da.(t.s_len) <- da;
  t.s_db.(t.s_len) <- db;
  t.s_len <- t.s_len + 1

(* Aggregate per-net connection deltas of a mask change into the scratch
   buffers: entries (net, da, db) with da/db in {-1, 0, +1}. Sorted-array
   merges over the old/new connected-net sets of each side; the handful of
   touched nets is scanned linearly. *)
let net_deltas t c new_mask =
  let cell = Hypergraph.cell t.hg c in
  let old_b = t.out_on_b.(c) in
  let full = full_mask t c in
  t.s1_len <- 0;
  t.s2_len <- 0;
  diff_sorted t A
    (conn_nets t cell ~out_mask:(Bitvec.diff full old_b))
    (conn_nets t cell ~out_mask:(Bitvec.diff full new_mask));
  diff_sorted t B
    (conn_nets t cell ~out_mask:old_b)
    (conn_nets t cell ~out_mask:new_mask);
  (* Merge the two sorted streams into (net, da, db) triples. *)
  t.s_len <- 0;
  let need = t.s1_len + t.s2_len in
  if need > Array.length t.s_nets then begin
    let size = max 32 need in
    t.s_nets <- Array.make size 0;
    t.s_da <- Array.make size 0;
    t.s_db <- Array.make size 0
  end;
  let i = ref 0 and j = ref 0 in
  while !i < t.s1_len || !j < t.s2_len do
    if !i >= t.s1_len then begin
      push_merged t t.s2_nets.(!j) 0 t.s2_d.(!j);
      incr j
    end
    else if !j >= t.s2_len then begin
      push_merged t t.s1_nets.(!i) t.s1_d.(!i) 0;
      incr i
    end
    else if t.s1_nets.(!i) = t.s2_nets.(!j) then begin
      push_merged t t.s1_nets.(!i) t.s1_d.(!i) t.s2_d.(!j);
      incr i;
      incr j
    end
    else if t.s1_nets.(!i) < t.s2_nets.(!j) then begin
      push_merged t t.s1_nets.(!i) t.s1_d.(!i) 0;
      incr i
    end
    else begin
      push_merged t t.s2_nets.(!j) 0 t.s2_d.(!j);
      incr j
    end
  done

let exists m = if Bitvec.is_empty m then 0 else 1

(* Fold the scratch net deltas into [out] (scratch must hold the deltas of
   changing cell [c] to [new_mask]). Writes fields in place — the F-M hot
   loop evaluates one candidate per affected neighbour per applied move, so
   this path allocates nothing. *)
let scratch_totals t c new_mask (out : scratch) =
  let cell = Hypergraph.cell t.hg c in
  let d_cut = ref 0 and d_ta = ref 0 and d_tb = ref 0 in
  for i = 0 to t.s_len - 1 do
    let n = t.s_nets.(i) in
    let ca = t.conn_a.(n) and cb = t.conn_b.(n) in
    let ca' = ca + t.s_da.(i) and cb' = cb + t.s_db.(i) in
    let ext = t.hg.Hypergraph.net_external.(n) in
    d_cut := !d_cut + cut_of ca' cb' - cut_of ca cb;
    d_ta := !d_ta + term_a_of ~ext ca' cb' - term_a_of ~ext ca cb;
    d_tb := !d_tb + term_a_of ~ext cb' ca' - term_a_of ~ext cb ca
  done;
  let old_b = t.out_on_b.(c) in
  let full = full_mask t c in
  out.sc_cut <- !d_cut;
  out.sc_term_a <- !d_ta;
  out.sc_term_b <- !d_tb;
  let ma =
    exists (Bitvec.diff full new_mask) - exists (Bitvec.diff full old_b)
  in
  let mb = exists new_mask - exists old_b in
  out.sc_area_a <- cell.Hypergraph.area * ma;
  out.sc_area_b <- cell.Hypergraph.area * mb;
  let dem = cell.Hypergraph.demand in
  let dem_len = Array.length dem in
  for a = 0 to Hypergraph.demand_arity - 1 do
    let d = if a < dem_len then dem.(a) else 0 in
    out.sc_res_a.(a) <- d * ma;
    out.sc_res_b.(a) <- d * mb
  done

let reset_scratch (out : scratch) =
  out.sc_cut <- 0;
  out.sc_term_a <- 0;
  out.sc_term_b <- 0;
  out.sc_area_a <- 0;
  out.sc_area_b <- 0;
  Array.fill out.sc_res_a 0 Hypergraph.demand_arity 0;
  Array.fill out.sc_res_b 0 Hypergraph.demand_arity 0

let delta_of_sd t =
  {
    d_cut = t.sd.sc_cut;
    d_term_a = t.sd.sc_term_a;
    d_term_b = t.sd.sc_term_b;
    d_area_a = t.sd.sc_area_a;
    d_area_b = t.sd.sc_area_b;
  }

let check_mask t c m =
  if not (Bitvec.subset m (full_mask t c)) then
    invalid_arg "Partition_state: mask not a subset of the cell's outputs"

let eval_into t c new_mask (out : scratch) =
  check_mask t c new_mask;
  if Bitvec.equal new_mask t.out_on_b.(c) then reset_scratch out
  else begin
    net_deltas t c new_mask;
    scratch_totals t c new_mask out
  end

let eval t c new_mask =
  check_mask t c new_mask;
  if Bitvec.equal new_mask t.out_on_b.(c) then zero_delta
  else begin
    net_deltas t c new_mask;
    scratch_totals t c new_mask t.sd;
    delta_of_sd t
  end

(* Connection-count category: gains of candidate operations on a cell
   depend on an incident net's side counts only through min(count, 2),
   because any single-cell mask change shifts each side count by at most
   one and every per-net contribution (cut_of / term_a_of) tests counts
   against 0 over a +-1 neighbourhood. A net whose categories are
   unchanged on both sides therefore leaves every neighbour's candidate
   deltas — hence its best op — untouched. *)
let cat x = if x > 2 then 2 else x

let apply t c new_mask =
  check_mask t c new_mask;
  if Bitvec.equal new_mask t.out_on_b.(c) then begin
    t.ch_len <- 0;
    zero_delta
  end
  else begin
    net_deltas t c new_mask;
    scratch_totals t c new_mask t.sd;
    let d = delta_of_sd t in
    if t.s_len > Array.length t.ch_nets then
      t.ch_nets <- Array.make (max 32 t.s_len) 0;
    t.ch_len <- 0;
    for i = 0 to t.s_len - 1 do
      let n = t.s_nets.(i) in
      let ca = t.conn_a.(n) and cb = t.conn_b.(n) in
      let da = t.s_da.(i) and db = t.s_db.(i) in
      if cat ca <> cat (ca + da) || cat cb <> cat (cb + db) then begin
        t.ch_nets.(t.ch_len) <- n;
        t.ch_len <- t.ch_len + 1
      end;
      t.conn_a.(n) <- ca + da;
      t.conn_b.(n) <- cb + db
    done;
    t.out_on_b.(c) <- new_mask;
    t.cut <- t.cut + d.d_cut;
    t.term_a <- t.term_a + d.d_term_a;
    t.term_b <- t.term_b + d.d_term_b;
    t.area_a <- t.area_a + d.d_area_a;
    t.area_b <- t.area_b + d.d_area_b;
    for a = 0 to Hypergraph.demand_arity - 1 do
      t.res_a.(a) <- t.res_a.(a) + t.sd.sc_res_a.(a);
      t.res_b.(a) <- t.res_b.(a) + t.sd.sc_res_b.(a)
    done;
    d
  end

let num_changed_nets t = t.ch_len

let iter_changed_nets t f =
  for i = 0 to t.ch_len - 1 do
    f t.ch_nets.(i)
  done

let recompute_resources t =
  let ra = Array.make Hypergraph.demand_arity 0 in
  let rb = Array.make Hypergraph.demand_arity 0 in
  for c = 0 to Hypergraph.num_cells t.hg - 1 do
    let cell = Hypergraph.cell t.hg c in
    let dem = cell.Hypergraph.demand in
    if not (Bitvec.is_empty (mask_on t c A)) then
      for a = 0 to Array.length dem - 1 do
        ra.(a) <- ra.(a) + dem.(a)
      done;
    if not (Bitvec.is_empty (mask_on t c B)) then
      for a = 0 to Array.length dem - 1 do
        rb.(a) <- rb.(a) + dem.(a)
      done
  done;
  (ra, rb)

let check_consistency t =
  let cut, ta, tb, aa, ab = recompute t in
  let pair name got want =
    if got = want then Ok ()
    else Error (Printf.sprintf "%s: tracked %d, recomputed %d" name got want)
  in
  let ( >>= ) r f = match r with Ok () -> f () | Error _ as e -> e in
  pair "cut" t.cut cut >>= fun () ->
  pair "term_a" t.term_a ta >>= fun () ->
  pair "term_b" t.term_b tb >>= fun () ->
  pair "area_a" t.area_a aa >>= fun () ->
  pair "area_b" t.area_b ab >>= fun () ->
  let ra, rb = recompute_resources t in
  let rec axes a =
    if a >= Hypergraph.demand_arity then Ok ()
    else
      pair (Printf.sprintf "res_a.(%d)" a) t.res_a.(a) ra.(a) >>= fun () ->
      pair (Printf.sprintf "res_b.(%d)" a) t.res_b.(a) rb.(a) >>= fun () ->
      axes (a + 1)
  in
  axes 0
