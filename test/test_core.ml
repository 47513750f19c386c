(* Tests for the paper's core algorithms: replication potential (eq. 4-6),
   the unified gain model (eq. 7-11), gain buckets, F-M with functional
   replication, and the k-way heterogeneous-device driver. *)

open Core

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool
let qc t = QCheck_alcotest.to_alcotest t

(* ------------------------------------------------------------------ *)
(* Replication potential                                              *)
(* ------------------------------------------------------------------ *)

let test_psi_fig1 () =
  (* Fig. 1: A_X = [1 1 0], A_Y = [0 1 1] -> psi = 2. *)
  let psi =
    Replication_potential.of_supports
      [| Bitvec.of_list [ 0; 1 ]; Bitvec.of_list [ 1; 2 ] |]
  in
  checki "Fig. 1 cell" 2 psi

let test_psi_fig2 () =
  (* Fig. 2: A_X1 = [1 1 1 1 0], A_X2 = [0 0 0 1 1] -> psi = 4. *)
  let psi =
    Replication_potential.of_supports
      [| Bitvec.of_list [ 0; 1; 2; 3 ]; Bitvec.of_list [ 3; 4 ] |]
  in
  checki "Fig. 2 cell" 4 psi

let test_psi_single_output () =
  (* Eq. (4): psi = 0 when m = 1, regardless of inputs. *)
  checki "single output" 0
    (Replication_potential.of_supports [| Bitvec.of_list [ 0; 1; 2; 3 ] |])

let qcheck_psi_matches_eq4 =
  (* Eq. (4) term by term, as the reference: output i's private pins are
     its support minus the union of every other output's. *)
  let eq4 supports =
    let m = Array.length supports in
    if m <= 1 then 0
    else begin
      let psi = ref 0 in
      for i = 0 to m - 1 do
        let others = ref Bitvec.empty in
        for j = 0 to m - 1 do
          if j <> i then others := Bitvec.union !others supports.(j)
        done;
        psi := !psi + Bitvec.norm (Bitvec.diff supports.(i) !others)
      done;
      !psi
    end
  in
  QCheck.Test.make ~name:"psi = eq. 4 on random supports" ~count:300
    QCheck.(pair small_int (int_range 1 6))
    (fun (seed, m) ->
      let rng = Netlist.Rng.create (seed + 3) in
      let supports =
        Array.init m (fun _ -> Netlist.Rng.int rng (Bitvec.full 8 + 1))
      in
      Replication_potential.of_supports supports = eq4 supports)

let test_psi_disjoint_and_identical () =
  checki "disjoint supports: all inputs private" 4
    (Replication_potential.of_supports
       [| Bitvec.of_list [ 0; 1 ]; Bitvec.of_list [ 2; 3 ] |]);
  checki "identical supports: psi 0" 0
    (Replication_potential.of_supports
       [| Bitvec.of_list [ 0; 1 ]; Bitvec.of_list [ 0; 1 ] |]);
  checki "three outputs" 3
    (Replication_potential.of_supports
       [|
         Bitvec.of_list [ 0; 1 ]; Bitvec.of_list [ 1; 2 ]; Bitvec.of_list [ 3 ];
       |])

let test_distribution () =
  let h = Test_util.fig4_hypergraph () in
  let d = Replication_potential.distribution h in
  checki "total" 8 d.Replication_potential.total;
  (* M is the only multi-output cell; its psi is 5 (all inputs private). *)
  checki "single-output cells" 7 d.Replication_potential.single_output;
  Alcotest.check
    Alcotest.(list (pair int int))
    "multi by psi" [ (5, 1) ] d.Replication_potential.multi_by_psi;
  checki "r_0 counts all multi-output cells" 1
    (Replication_potential.max_replication_factor d ~threshold:0);
  checki "r_5" 1 (Replication_potential.max_replication_factor d ~threshold:5);
  checki "r_6" 0 (Replication_potential.max_replication_factor d ~threshold:6)

let test_replicable_threshold () =
  let h = Test_util.fig4_hypergraph () in
  let m = Hypergraph.cell h 0 in
  let rx = Hypergraph.cell h 6 in
  checkb "M at T=0" true (Replication_potential.replicable ~threshold:0 m);
  checkb "M at T=5" true (Replication_potential.replicable ~threshold:5 m);
  checkb "M at T=6" false (Replication_potential.replicable ~threshold:6 m);
  checkb "single-output never" false
    (Replication_potential.replicable ~threshold:0 rx)

(* ------------------------------------------------------------------ *)
(* Gain model                                                         *)
(* ------------------------------------------------------------------ *)

let test_gain_fig4_golden () =
  (* The paper's worked example: G_m = -1, G_tr = -2, G_r = +2. *)
  let _, st = Test_util.fig4_state () in
  let v = Gain.vectors st 0 in
  checki "G_m (eq. 7)" (-1) (Gain.single_move v);
  checki "G_tr (eq. 8)" (-2) (Gain.traditional_replication v);
  (match Gain.functional_replication st 0 ~threshold:0 with
  | Some (g, o) ->
      checki "G_r (eq. 11)" 2 g;
      checki "best output is X2" 1 o
  | None -> Alcotest.fail "functional replication should be available");
  (* Vector values, for the record: 2 cut inputs, both critical. *)
  checki "|C_I|" 2 (Bitvec.norm v.Gain.c_i);
  checki "|C_O|" 1 (Bitvec.norm v.Gain.c_o);
  checki "n" 5 v.Gain.n_inputs

let test_gain_threshold_blocks () =
  let _, st = Test_util.fig4_state () in
  checkb "T=6 blocks M" true
    (Gain.functional_replication st 0 ~threshold:6 = None);
  checkb "single-output cell can never replicate" true
    (Gain.functional_replication st 6 ~threshold:0 = None)

let qcheck_formula_matches_eval =
  (* Eq. (7) must equal the exact cut delta of a whole-cell move for every
     single cell, on arbitrary random states. *)
  QCheck.Test.make ~name:"eq. 7 = exact move delta" ~count:80
    QCheck.(pair small_int (int_range 4 20))
    (fun (seed, n_cells) ->
      let h = Test_util.random_hypergraph seed n_cells in
      let rng = Netlist.Rng.create (seed + 77) in
      let st = Partition_state.create h ~init_on_b:(fun _ -> Netlist.Rng.bool rng) in
      let ok = ref true in
      for c = 0 to Hypergraph.num_cells h - 1 do
        match Partition_state.single_side st c with
        | None -> ()
        | Some _ ->
            let v = Gain.vectors st c in
            let full = Partition_state.full_mask st c in
            let flip = Bitvec.complement (Bitvec.norm full) (Partition_state.mask st c) in
            let d = Partition_state.eval st c flip in
            if Gain.single_move v <> -d.Partition_state.d_cut then ok := false
      done;
      !ok)

let qcheck_functional_gain_positive_cases =
  (* G_r as reported must equal the exact delta of applying the chosen
     output migration. *)
  QCheck.Test.make ~name:"eq. 11 gain = exact migration delta" ~count:60
    QCheck.(pair small_int (int_range 4 16))
    (fun (seed, n_cells) ->
      let h = Test_util.random_hypergraph seed n_cells in
      let rng = Netlist.Rng.create (seed + 99) in
      let st = Partition_state.create h ~init_on_b:(fun _ -> Netlist.Rng.bool rng) in
      let ok = ref true in
      for c = 0 to Hypergraph.num_cells h - 1 do
        match Gain.functional_replication st c ~threshold:0 with
        | None -> ()
        | Some (g, o) ->
            let current = Partition_state.mask st c in
            let mask =
              if Bitvec.mem o current then Bitvec.remove o current
              else Bitvec.add o current
            in
            let d = Partition_state.eval st c mask in
            if g <> -d.Partition_state.d_cut then ok := false
      done;
      !ok)

let test_best_mask_change_candidates () =
  let _, st = Test_util.fig4_state () in
  (* Without replication: only the whole-cell move. *)
  let plain = Gain.best_mask_change st ~replication:`None 0 in
  checki "move only" 1 (List.length plain);
  (* With replication at T=0: move + one migration per output. *)
  let repl = Gain.best_mask_change st ~replication:(`Functional 0) 0 in
  checki "move + 2 migrations" 3 (List.length repl);
  (* Once replicated, unreplication and split adjustment appear. *)
  ignore (Partition_state.apply st 0 (Bitvec.singleton 1));
  let after = Gain.best_mask_change st ~replication:(`Functional 0) 0 in
  checkb "includes full-A merge" true
    (List.exists (fun (m, _) -> Bitvec.is_empty m) after);
  checkb "includes full-B merge" true
    (List.exists (fun (m, _) -> Bitvec.equal m (Partition_state.full_mask st 0)) after)

let test_no_duplicate_candidates () =
  (* Satellite of the incremental engine: iter_masks generates every
     candidate exactly once at the source (no post-hoc dedup), never the
     current mask, covering output counts m = 1, 2, 3 in both single-side
     and replicated states under both replication modes. *)
  let h = Test_util.random_hypergraph 3 20 in
  let n = Hypergraph.num_cells h in
  let outs c = Array.length (Hypergraph.cell h c).Hypergraph.outputs in
  List.iter
    (fun m ->
      checkb
        (Printf.sprintf "fixture covers m=%d" m)
        true
        (Array.exists (fun c -> outs c = m) (Array.init n Fun.id)))
    [ 1; 2; 3 ];
  let rng = Netlist.Rng.create 17 in
  for trial = 0 to 5 do
    let st =
      Partition_state.create h ~init_on_b:(fun _ -> Netlist.Rng.bool rng)
    in
    if trial > 0 then
      for c = 0 to n - 1 do
        if Netlist.Rng.int rng 3 = 0 then
          ignore
            (Partition_state.apply st c
               (Test_util.random_mask rng (Partition_state.full_mask st c)))
      done;
    List.iter
      (fun replication ->
        for c = 0 to n - 1 do
          let masks =
            List.map fst (Gain.best_mask_change st ~replication c)
          in
          let uniq = List.sort_uniq compare masks in
          checki "no duplicate candidates" (List.length masks)
            (List.length uniq);
          checkb "current mask never generated" false
            (List.exists (Bitvec.equal (Partition_state.mask st c)) masks)
        done)
      [ `None; `Functional 0 ]
  done

(* ------------------------------------------------------------------ *)
(* Bucket                                                             *)
(* ------------------------------------------------------------------ *)

let test_bucket_basics () =
  let b = Bucket.create ~num_items:10 ~max_gain:5 in
  checki "empty" 0 (Bucket.cardinal b);
  Bucket.insert b 3 2;
  Bucket.insert b 4 (-1);
  Bucket.insert b 5 2;
  checki "cardinal" 3 (Bucket.cardinal b);
  checkb "mem" true (Bucket.mem b 3);
  checki "gain" 2 (Bucket.gain b 3);
  (* LIFO at the top gain level: 5 inserted after 3. *)
  (match Bucket.find_best b (fun _ -> true) with
  | Some item -> checki "LIFO top" 5 item
  | None -> Alcotest.fail "expected an item");
  (* Predicate skips. *)
  (match Bucket.find_best b (fun i -> i <> 5 && i <> 3) with
  | Some item -> checki "skips to lower gain" 4 item
  | None -> Alcotest.fail "expected an item");
  Bucket.remove b 5;
  (match Bucket.find_best b (fun _ -> true) with
  | Some item -> checki "after removal" 3 item
  | None -> Alcotest.fail "expected an item");
  Bucket.update b 4 5;
  (match Bucket.find_best b (fun _ -> true) with
  | Some item -> checki "after update" 4 item
  | None -> Alcotest.fail "expected an item")

let test_bucket_clamping () =
  let b = Bucket.create ~num_items:4 ~max_gain:3 in
  Bucket.insert b 0 100;
  Bucket.insert b 1 (-100);
  checki "stored gain unclamped" 100 (Bucket.gain b 0);
  (match Bucket.find_best b (fun _ -> true) with
  | Some item -> checki "clamped ordering works" 0 item
  | None -> Alcotest.fail "expected an item");
  Bucket.remove b 0;
  (match Bucket.find_best b (fun _ -> true) with
  | Some item -> checki "negative clamp" 1 item
  | None -> Alcotest.fail "expected an item")

let test_bucket_errors () =
  let b = Bucket.create ~num_items:4 ~max_gain:3 in
  Bucket.insert b 0 1;
  Alcotest.check_raises "double insert"
    (Invalid_argument "Bucket.insert: item already present") (fun () ->
      Bucket.insert b 0 2);
  checkb "gain of absent raises" true
    (match Bucket.gain b 3 with exception Not_found -> true | _ -> false);
  Bucket.remove b 3 (* no-op *);
  Bucket.clear b;
  checki "cleared" 0 (Bucket.cardinal b)

let test_bucket_update_fast_path_order () =
  (* An update that leaves the clamped gain unchanged must not unlink /
     relink, so it preserves the item's position within its slot and does
     not refresh its LIFO recency. *)
  let best b = Bucket.find_best b (fun _ -> true) in
  let b = Bucket.create ~num_items:8 ~max_gain:3 in
  Bucket.insert b 1 2;
  Bucket.insert b 2 2;
  (match best b with
  | Some i -> checki "LIFO before update" 2 i
  | None -> Alcotest.fail "expected an item");
  Bucket.update b 1 2;
  (match best b with
  | Some i -> checki "same-gain update of 1 keeps 2 first" 2 i
  | None -> Alcotest.fail "expected an item");
  Bucket.update b 2 2;
  (match best b with
  | Some i -> checki "same-gain update of 2 keeps its place" 2 i
  | None -> Alcotest.fail "expected an item");
  (* Same clamped slot, different stored gain: 100 and 50 both clamp to
     +3. The slot order stays; the unclamped gain is refreshed. *)
  Bucket.insert b 3 100;
  Bucket.insert b 4 100;
  (match best b with
  | Some i -> checki "4 most recent in top slot" 4 i
  | None -> Alcotest.fail "expected an item");
  Bucket.update b 4 50;
  (match best b with
  | Some i -> checki "same-slot update keeps 4 first" 4 i
  | None -> Alcotest.fail "expected an item");
  checki "stored gain refreshed" 50 (Bucket.gain b 4);
  Bucket.update b 3 60;
  (match best b with
  | Some i -> checki "same-slot update of non-head keeps order" 4 i
  | None -> Alcotest.fail "expected an item");
  (* A slot-changing round trip is a relink: recency refreshed. *)
  Bucket.update b 3 1;
  Bucket.update b 3 100;
  (match best b with
  | Some i -> checki "slot-changing round trip refreshes recency" 3 i
  | None -> Alcotest.fail "expected an item")

let test_bucket_top_decay_and_interleaving () =
  let best b pred = Bucket.find_best b pred in
  let b = Bucket.create ~num_items:8 ~max_gain:4 in
  (* Clamping at both extremes. *)
  Bucket.insert b 0 1000;
  Bucket.insert b 1 (-1000);
  checki "positive clamp stores raw gain" 1000 (Bucket.gain b 0);
  checki "negative clamp stores raw gain" (-1000) (Bucket.gain b 1);
  (* Removing the only top-slot item: the lazy top pointer must decay
     past the emptied slots to the survivors. *)
  Bucket.remove b 0;
  (match best b (fun _ -> true) with
  | Some i -> checki "top decays to bottom slot" 1 i
  | None -> Alcotest.fail "expected an item");
  (* Interleaved inserts/removes/updates across slots. *)
  Bucket.insert b 2 0;
  Bucket.insert b 3 4;
  Bucket.update b 3 (-4);
  (match best b (fun _ -> true) with
  | Some i -> checki "after top item drops to bottom" 2 i
  | None -> Alcotest.fail "expected an item");
  Bucket.update b 1 10;
  (match best b (fun _ -> true) with
  | Some i -> checki "bottom item raised to clamped top" 1 i
  | None -> Alcotest.fail "expected an item");
  Bucket.remove b 1;
  Bucket.remove b 2;
  (match best b (fun _ -> true) with
  | Some i -> checki "decay again after removals" 3 i
  | None -> Alcotest.fail "expected an item");
  Bucket.remove b 3;
  checkb "empty scan finds nothing" true (best b (fun _ -> true) = None);
  checki "empty cardinal" 0 (Bucket.cardinal b)

let qcheck_bucket_matches_model =
  (* The bucket against a naive map model that encodes the documented
     contract: items keyed by clamped gain; ties broken by
     most-recently-moved-into-the-slot; an update that keeps the clamped
     gain does not refresh recency; update inserts when absent. *)
  QCheck.Test.make ~name:"bucket matches naive map model" ~count:150
    QCheck.(pair small_int (int_range 1 6))
    (fun (seed, max_gain) ->
      let rng = Netlist.Rng.create (seed + 1) in
      let num_items = 12 in
      let b = Bucket.create ~num_items ~max_gain in
      let model = Array.make num_items None in
      let tick = ref 0 in
      let clamp g = max (-max_gain) (min max_gain g) in
      let ok = ref true in
      for _ = 1 to 400 do
        let item = Netlist.Rng.int rng num_items in
        let g = Netlist.Rng.int rng ((4 * max_gain) + 3) - (2 * max_gain) - 1 in
        match Netlist.Rng.int rng 5 with
        | 0 ->
            if model.(item) = None then begin
              Bucket.insert b item g;
              incr tick;
              model.(item) <- Some (g, !tick)
            end
        | 1 ->
            Bucket.remove b item;
            model.(item) <- None
        | 2 -> (
            Bucket.update b item g;
            match model.(item) with
            | Some (old, r) when clamp old = clamp g ->
                model.(item) <- Some (g, r)
            | _ ->
                incr tick;
                model.(item) <- Some (g, !tick))
        | 3 ->
            let allow = Array.init num_items (fun _ -> Netlist.Rng.bool rng) in
            let expected =
              let best = ref None in
              Array.iteri
                (fun i entry ->
                  match entry with
                  | Some (g, r) when allow.(i) ->
                      let key = (clamp g, r) in
                      (match !best with
                      | Some (_, bkey) when bkey >= key -> ()
                      | _ -> best := Some (i, key))
                  | _ -> ())
                model;
              Option.map fst !best
            in
            if Bucket.find_best b (fun i -> allow.(i)) <> expected then
              ok := false
        | _ ->
            if Bucket.mem b item <> (model.(item) <> None) then ok := false;
            (match model.(item) with
            | Some (g, _) -> if Bucket.gain b item <> g then ok := false
            | None -> ());
            let card =
              Array.fold_left
                (fun acc e -> if e = None then acc else acc + 1)
                0 model
            in
            if Bucket.cardinal b <> card then ok := false
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* F-M                                                                *)
(* ------------------------------------------------------------------ *)

let mapped_hypergraph circuit = Techmap.Mapper.to_hypergraph (Techmap.Mapper.map circuit)

let test_fm_improves_and_respects_balance () =
  let h = mapped_hypergraph (Netlist.Generator.alu ~bits:8 ()) in
  let total = Hypergraph.total_area h in
  let cfg = Fm.balance_config ~total_area:total () in
  let rng = Netlist.Rng.create 5 in
  let st = Fm.random_state rng h in
  let cut0 = Partition_state.cut st in
  let pen, cut, _ = Fm.run cfg st in
  checki "feasible" 0 pen;
  checkb "cut not worse" true (cut <= cut0);
  checkb "consistent" true (Result.is_ok (Partition_state.check_consistency st));
  let cap = int_of_float (ceil (1.10 *. float_of_int total /. 2.0)) in
  checkb "balance" true
    (Partition_state.area st Partition_state.A <= cap
    && Partition_state.area st Partition_state.B <= cap)

let test_fm_replication_beats_plain_on_fig4 () =
  (* On the Fig. 4 fixture a replication-enabled pass can reach cut 1;
     plain moves bottom out higher from the same start. *)
  let _, st_plain = Test_util.fig4_state () in
  let _, st_repl = Test_util.fig4_state () in
  let total = 8 in
  let plain_cfg = Fm.balance_config ~slack:0.6 ~total_area:total () in
  let repl_cfg =
    Fm.balance_config ~slack:0.6 ~replication:(`Functional 0) ~total_area:total ()
  in
  let _, cut_plain, _ = Fm.run plain_cfg st_plain in
  let _, cut_repl, _ = Fm.run repl_cfg st_repl in
  checkb "replication at least as good" true (cut_repl <= cut_plain);
  checkb "replication reaches cut <= 1" true (cut_repl <= 1)

let test_fm_replication_respects_threshold () =
  (* With a threshold above every cell's psi, no replica may appear. *)
  let h = mapped_hypergraph (Netlist.Generator.multiplier ~bits:6 ()) in
  let cfg =
    Fm.balance_config ~replication:(`Functional 1000)
      ~total_area:(Hypergraph.total_area h) ()
  in
  let rng = Netlist.Rng.create 3 in
  let st = Fm.random_state rng h in
  ignore (Fm.run cfg st);
  checki "no replicas at absurd threshold" 0 (Partition_state.num_replicated st)

let test_fm_replication_reduces_cut_on_clustered () =
  (* The paper's Table III effect, in miniature: over a few seeds,
     replication never loses and usually wins on a clustered sequential
     circuit. *)
  let c =
    Netlist.Generator.clustered
      {
        Netlist.Generator.default_clustered with
        clusters = 6;
        gates_per_cluster = 40;
        seed = 3;
      }
  in
  let h = mapped_hypergraph c in
  let total = Hypergraph.total_area h in
  let best cfg =
    let best = ref max_int in
    for seed = 1 to 5 do
      let st = Fm.random_state (Netlist.Rng.create seed) h in
      let pen, cut, _ = Fm.run cfg st in
      if pen = 0 && cut < !best then best := cut
    done;
    !best
  in
  let plain = best (Fm.balance_config ~total_area:total ()) in
  let repl =
    best (Fm.balance_config ~replication:(`Functional 0) ~total_area:total ())
  in
  checkb "plain found a feasible cut" true (plain < max_int);
  checkb "replication cut <= plain cut" true (repl <= plain)

let qcheck_fm_leaves_consistent_state =
  QCheck.Test.make ~name:"F-M leaves a consistent state" ~count:20
    QCheck.(pair small_int (int_range 8 30))
    (fun (seed, n_cells) ->
      let h = Test_util.random_hypergraph seed n_cells in
      let cfg =
        Fm.balance_config ~replication:(`Functional 0) ~slack:0.3
          ~total_area:(Hypergraph.total_area h) ()
      in
      let st = Fm.random_state (Netlist.Rng.create (seed + 5)) h in
      let cut0 = Partition_state.cut st in
      let _, cut, _ = Fm.run cfg st in
      Result.is_ok (Partition_state.check_consistency st) && cut <= cut0)

let qcheck_incremental_gains_exact =
  (* The tentpole invariant of the incremental engine: after every applied
     move, rescoring only the cells on nets that
     Partition_state.apply reported state-changed (a side's connection
     category min(count, 2) crossed 0<->1 or 1<->2) leaves every cell's
     cached best op equal to a from-scratch recomputation. Maintained here
     externally with the engine's exact selection fold, then audited over
     the WHOLE cell set after every move — so a single missed invalidation
     anywhere fails the property. Runs under both replication modes. *)
  QCheck.Test.make ~name:"incremental rescoring = from-scratch best op"
    ~count:20
    QCheck.(triple small_int (int_range 8 24) bool)
    (fun (seed, n_cells, functional) ->
      let replication = if functional then `Functional 0 else `None in
      let h = Test_util.random_hypergraph seed n_cells in
      let rng = Netlist.Rng.create (seed + 31) in
      let st =
        Partition_state.create h ~init_on_b:(fun _ -> Netlist.Rng.bool rng)
      in
      let n = Hypergraph.num_cells h in
      (* Engine-identical selection: maximise gain, tie-break on the
         smaller area growth, first-generated candidate wins the rest. *)
      let best c =
        let acc = ref None in
        Gain.iter_masks st ~replication c ~f:(fun m ->
            let d = Partition_state.eval st c m in
            let g = -d.Partition_state.d_cut in
            let tie =
              -(d.Partition_state.d_area_a + d.Partition_state.d_area_b)
            in
            match !acc with
            | Some (_, bg, bt) when bg > g || (bg = g && bt >= tie) -> ()
            | _ -> acc := Some (m, g, tie));
        !acc
      in
      let cached = Array.init n best in
      let ok = ref true in
      for _ = 1 to 3 * n do
        let c = Netlist.Rng.int rng n in
        let full = Partition_state.full_mask st c in
        let m =
          if functional then Test_util.random_mask rng full
          else Bitvec.complement (Bitvec.norm full) (Partition_state.mask st c)
        in
        ignore (Partition_state.apply st c m);
        (* The engine's maintenance step: the moved cell plus every cell
           on a state-changed net. *)
        cached.(c) <- best c;
        Partition_state.iter_changed_nets st (fun net ->
            Array.iter
              (fun cell -> cached.(cell) <- best cell)
              h.Hypergraph.net_cells.(net));
        (* The audit: every cell, not just the rescored ones. *)
        for cell = 0 to n - 1 do
          if cached.(cell) <> best cell then ok := false
        done
      done;
      !ok)

(* Words this domain allocated so far: minor + major - promoted (promoted
   words sit in both). [Gc.minor_words] reads the live minor-heap pointer;
   on OCaml 5 the minor counts of [Gc.counters] and [Gc.quick_stat] only
   advance at minor collections, so a run that allocates little reads 0
   there. *)
let allocated_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

let test_fm_allocation_per_move () =
  (* The F-M engine's inner loops run on preallocated arrays: rescoring,
     candidate evaluation and bucket scans allocate nothing, leaving
     per-run setup and a few small records per applied op. A
     deterministic work gate, not a timing one: applied ops come from a
     counting run under a collecting sink, words from an identical run
     under the no-op sink. *)
  List.iter
    (fun name ->
      let e = Option.get (Experiments.Suite.find name) in
      let h = Lazy.force e.Experiments.Suite.hypergraph in
      let cfg =
        Fm.balance_config ~replication:(`Functional 0)
          ~total_area:(Hypergraph.total_area h) ()
      in
      let obs = Obs.create () in
      ignore (Fm.run ~obs cfg (Fm.random_state (Netlist.Rng.create 1) h));
      let applied =
        List.assoc "fm.applied_ops" (Obs.snapshot obs).Obs.Snapshot.counters
      in
      let st = Fm.random_state (Netlist.Rng.create 1) h in
      let w0 = allocated_words () in
      ignore (Fm.run cfg st);
      let words = allocated_words () -. w0 in
      let per_op = words /. float_of_int (max 1 applied) in
      if per_op > 32.0 then
        Alcotest.failf "%s: %.1f words allocated per applied op (%d ops)" name
          per_op applied)
    [ "c6288"; "s38584" ]

let test_fm_oracle_mode_identical () =
  (* Oracle mode recomputes every affected cell's best op from scratch
     after every applied move and compares with the incremental cache
     (failwith on mismatch); its decisions are byte-identical to a plain
     run by construction — this pins both halves of that contract. *)
  let h = mapped_hypergraph (Netlist.Generator.alu ~bits:8 ()) in
  let total = Hypergraph.total_area h in
  let cfg =
    Fm.balance_config ~replication:(`Functional 0) ~total_area:total ()
  in
  let st = Fm.random_state (Netlist.Rng.create 7) h in
  let sto = Fm.random_state (Netlist.Rng.create 7) h in
  let score = Fm.run cfg st in
  let score_o = Fm.run { cfg with Fm.oracle = true } sto in
  checkb "oracle run returns the same score" true (score = score_o);
  for c = 0 to Hypergraph.num_cells h - 1 do
    if not (Bitvec.equal (Partition_state.mask st c) (Partition_state.mask sto c))
    then Alcotest.failf "oracle mode diverged at cell %d" c
  done

let qcheck_fm_oracle_never_trips =
  (* The oracle cross-check aborts the run on any stale cached gain; it
     completing at all on random instances, under both replication
     modes, is the property. *)
  QCheck.Test.make ~name:"F-M oracle cross-check passes" ~count:12
    QCheck.(triple small_int (int_range 8 26) bool)
    (fun (seed, n_cells, functional) ->
      let h = Test_util.random_hypergraph seed n_cells in
      let cfg =
        Fm.Config.make ~oracle:true
          ~replication:(if functional then `Functional 0 else `None)
          ~area_ok:(fun _ _ -> true)
          ~score:(fun st -> (0, Fm.objective_value Fm.Cut st, 0))
          ()
      in
      let st = Fm.random_state (Netlist.Rng.create (seed + 13)) h in
      let cut0 = Partition_state.cut st in
      let _, cut, _ = Fm.run cfg st in
      Result.is_ok (Partition_state.check_consistency st) && cut <= cut0)

let test_fm_staged_never_worse () =
  (* run_staged must match or beat plain F-M from the same start, on every
     seed, because replication extends a converged plain solution. *)
  let h = mapped_hypergraph (Netlist.Generator.alu ~bits:8 ()) in
  let total = Hypergraph.total_area h in
  let plain_cfg = Fm.balance_config ~total_area:total () in
  let repl_cfg =
    Fm.balance_config ~replication:(`Functional 0) ~total_area:total ()
  in
  for seed = 1 to 6 do
    let st1 = Fm.random_state (Netlist.Rng.create seed) h in
    let st2 = Fm.random_state (Netlist.Rng.create seed) h in
    let _, plain, _ = Fm.run plain_cfg st1 in
    let _, staged, _ = Fm.run_staged repl_cfg st2 in
    checkb "staged <= plain" true (staged <= plain)
  done

let test_fm_traditional_model_weaker () =
  (* With the traditional (all-inputs) replica connection rule the gains
     largely evaporate: the Fig. 1 motivation as a property. *)
  let c =
    Netlist.Generator.clustered
      { Netlist.Generator.default_clustered with clusters = 5; seed = 9 }
  in
  let h = mapped_hypergraph c in
  let total = Hypergraph.total_area h in
  let cfg = Fm.balance_config ~replication:(`Functional 0) ~total_area:total () in
  let best model =
    let best = ref max_int in
    for seed = 1 to 4 do
      let n = Hypergraph.num_cells h in
      let order = Array.init n Fun.id in
      Netlist.Rng.shuffle (Netlist.Rng.create seed) order;
      let on_b = Array.make n false in
      Array.iteri (fun k cell -> if k < n / 2 then on_b.(cell) <- true) order;
      let st = Partition_state.create ~model h ~init_on_b:(fun x -> on_b.(x)) in
      let _, cut, _ = Fm.run_staged cfg st in
      best := min !best cut
    done;
    !best
  in
  let functional = best Partition_state.Functional in
  let traditional = best Partition_state.Traditional in
  checkb "functional beats traditional" true (functional < traditional)

let test_two_device_config () =
  (* Refining a deliberately unbalanced Fig. 4-style instance: both sides
     must respect their windows and the terminals drop or hold. *)
  let h = mapped_hypergraph (Netlist.Generator.ripple_adder ~bits:16 ()) in
  let n = Hypergraph.num_cells h in
  let st = Partition_state.create h ~init_on_b:(fun c -> c >= n / 4) in
  let bounds cap = Fm.bounds ~min_clbs:1 ~max_clbs:cap ~max_terminals:1000 () in
  let total = Hypergraph.total_area h in
  let cfg =
    Fm.two_device_config ~bounds_a:(bounds total) ~bounds_b:(bounds total) ()
  in
  let t0 =
    Partition_state.terminals st Partition_state.A
    + Partition_state.terminals st Partition_state.B
  in
  let pen, terms, _ = Fm.run cfg st in
  checki "feasible" 0 pen;
  checkb "terminals not worse" true (terms <= t0);
  checkb "state consistent" true
    (Result.is_ok (Partition_state.check_consistency st))

(* ------------------------------------------------------------------ *)
(* Multilevel coarsening                                              *)
(* ------------------------------------------------------------------ *)

let test_coarsen_structure () =
  let h = mapped_hypergraph (Netlist.Generator.multiplier ~bits:10 ()) in
  let rng = Netlist.Rng.create 3 in
  let coarse, map = Coarsen.coarsen ~rng h in
  checkb "valid" true (Result.is_ok (Hypergraph.validate coarse));
  checkb "shrinks" true
    (Hypergraph.num_cells coarse < Hypergraph.num_cells h);
  (* Area is conserved: clusters weigh what their members weigh. *)
  checki "area conserved" (Hypergraph.total_area h)
    (Hypergraph.total_area coarse);
  (* The map is a total function onto the coarse cells. *)
  Array.iter
    (fun k -> checkb "map in range" true (k >= 0 && k < Hypergraph.num_cells coarse))
    map;
  checki "map covers fine cells" (Hypergraph.num_cells h) (Array.length map)

let test_coarsen_respects_pin_budget () =
  let h = mapped_hypergraph (Netlist.Generator.multiplier ~bits:10 ()) in
  let rng = Netlist.Rng.create 3 in
  let rec check_levels h depth =
    if depth < 4 && Hypergraph.num_cells h > 50 then begin
      let coarse, _ = Coarsen.coarsen ~rng h in
      Array.iter
        (fun cell ->
          checkb "inputs within mask budget" true
            (Array.length cell.Hypergraph.inputs <= Bitvec.max_width);
          checkb "outputs within mask budget" true
            (Array.length cell.Hypergraph.outputs <= Bitvec.max_width))
        coarse.Hypergraph.cells;
      check_levels coarse (depth + 1)
    end
  in
  check_levels h 0

let test_multilevel_init_quality () =
  (* The multilevel initial solution must not lose to random init + F-M on
     a clustered circuit (it usually wins clearly). *)
  let h = mapped_hypergraph
      (Netlist.Generator.clustered
         { Netlist.Generator.default_clustered with clusters = 10; seed = 17 })
  in
  let total = Hypergraph.total_area h in
  let cfg = Fm.balance_config ~total_area:total () in
  let best f =
    let b = ref max_int in
    for s = 1 to 4 do
      b := min !b (f (Netlist.Rng.create s))
    done;
    !b
  in
  let flat =
    best (fun rng ->
        let st = Fm.random_state rng h in
        let _, cut, _ = Fm.run cfg st in
        cut)
  in
  let ml =
    best (fun rng ->
        let st = Coarsen.multilevel_init ~rng cfg h in
        checkb "consistent" true (Result.is_ok (Partition_state.check_consistency st));
        let _, cut, _ = Fm.run cfg st in
        cut)
  in
  checkb "multilevel at least competitive" true
    (float_of_int ml <= 1.1 *. float_of_int flat)

let test_coarsen_weight_caps () =
  (* Per-axis cluster weight caps: a chain of BRAM-heavy cells (demand
     8 on axis 2, cap 10) must not merge with each other — any pair
     would weigh 16 on the BRAM axis — while a logic-only cell may
     still fold into its BRAM neighbour. *)
  let bram = [| 2; 0; 8; 0 |] in
  let spec ?(demand = bram) name inputs outputs =
    {
      Hypergraph.s_name = name;
      s_area = demand.(0);
      s_demand = demand;
      s_inputs = Array.of_list inputs;
      s_outputs = Array.of_list outputs;
      s_supports =
        Array.of_list
          (List.map
             (fun _ -> Bitvec.of_list (List.mapi (fun i _ -> i) inputs))
             outputs);
    }
  in
  let h =
    Hypergraph.create ~num_nets:6 ~external_nets:[ 4; 5 ]
      [
        spec "b0" [ 4 ] [ 0 ];
        spec "b1" [ 0 ] [ 1 ];
        spec "b2" [ 1 ] [ 2 ];
        spec "b3" [ 2 ] [ 3 ];
        spec ~demand:[| 1 |] "l" [ 3 ] [ 5 ];
      ]
  in
  let axis j (c : Hypergraph.cell) =
    if j < Array.length c.Hypergraph.demand then c.Hypergraph.demand.(j) else 0
  in
  let capped, _ =
    Coarsen.coarsen ~max_weight:[| 100; 100; 10; 100 |]
      ~rng:(Netlist.Rng.create 1) h
  in
  (* The only admissible merge is l into b3: four clusters remain and
     every cluster obeys the BRAM cap. *)
  checki "capped cells" 4 (Hypergraph.num_cells capped);
  Array.iter
    (fun c -> checkb "bram axis capped" true (axis 2 c <= 10))
    capped.Hypergraph.cells;
  checki "area conserved under caps" (Hypergraph.total_area h)
    (Hypergraph.total_area capped);
  (* Without the cap the same chain merges BRAM pairs and overshoots. *)
  let free, _ = Coarsen.coarsen ~rng:(Netlist.Rng.create 1) h in
  checkb "uncapped merges bram pairs" true
    (Array.exists (fun c -> axis 2 c > 10) free.Hypergraph.cells)

let qcheck_projection_sound =
  (* The uncoarsening contract of the V-cycle: pulling the coarse
     labelling down the hierarchy, every level materialises
     ([Kway.project_parts]) into a feasible, [Kway.check]-clean result
     whose interconnect never exceeds the coarse level's — coarsening
     only hides nets internal to one cluster, which projection keeps
     internal to one part. *)
  QCheck.Test.make ~name:"V-cycle projection stays feasible and check-clean"
    ~count:6
    QCheck.(int_range 1 1000)
    (fun seed ->
      let h =
        mapped_hypergraph
          (Netlist.Generator.clustered
             { Netlist.Generator.default_clustered with clusters = 6; seed })
      in
      let hier =
        Coarsen.hierarchy ~coarsest:60 ~rng:(Netlist.Rng.create (seed + 3)) h
      in
      let options = Kway.Options.make ~runs:2 ~seed:1 () in
      match
        Kway.partition ~options ~library:Fpga.Library.xc3000
          hier.Coarsen.coarsest
      with
      | Error _ -> QCheck.assume_fail () (* infeasible coarsest: vacuous *)
      | Ok coarse ->
          let devices =
            Array.of_list
              (List.map (fun p -> p.Kway.device) coarse.Kway.parts)
          in
          let labels, _ =
            Kway.labels_of_parts hier.Coarsen.coarsest coarse.Kway.parts
          in
          let ok = ref true in
          let cut = ref coarse.Kway.summary.Fpga.Cost.total_iobs in
          let _ =
            List.fold_left
              (fun labels (fine, map) ->
                let labels = Coarsen.project_labels ~map labels in
                (match
                   Kway.project_parts ~options ~library:Fpga.Library.xc3000
                     ~labels ~devices fine
                 with
                | Error _ -> ok := false
                | Ok parts ->
                    let r = Kway.result_of_parts fine parts in
                    (match Kway.check fine r with
                    | Ok () -> ()
                    | Error _ -> ok := false);
                    let iobs = r.Kway.summary.Fpga.Cost.total_iobs in
                    if iobs > !cut then ok := false;
                    cut := iobs);
                labels)
              labels hier.Coarsen.levels
          in
          !ok)

let test_multilevel_jobs_stable () =
  (* The multilevel driver's result must be independent of the worker
     count, like the flat driver's: same circuit, same seed, jobs=1 vs
     jobs=4 — identical devices, loads and cost. *)
  let h =
    mapped_hypergraph
      (Netlist.Generator.clustered
         { Netlist.Generator.default_clustered with clusters = 10; seed = 17 })
  in
  let run jobs =
    let options =
      Kway.Options.make ~runs:2 ~seed:1 ~jobs
        ~strategy:(Kway.Multilevel Kway.Options.default_multilevel) ()
    in
    match Kway.partition ~options ~library:Fpga.Library.xc3000 h with
    | Error e -> Alcotest.fail e
    | Ok r ->
        (match Kway.check h r with
        | Ok () -> ()
        | Error e -> Alcotest.fail ("unsound: " ^ e));
        ( r.Kway.summary.Fpga.Cost.total_cost,
          List.map
            (fun p -> (p.Kway.device.Fpga.Device.name, p.Kway.clbs, p.Kway.iobs))
            r.Kway.parts )
  in
  let cost1, parts1 = run 1 in
  let cost4, parts4 = run 4 in
  Alcotest.check (Alcotest.float 0.0) "cost jobs-independent" cost1 cost4;
  checkb "parts jobs-independent" true (parts1 = parts4)

(* ------------------------------------------------------------------ *)
(* k-way driver                                                       *)
(* ------------------------------------------------------------------ *)

(* FPGAPART_JOBS lets the CI matrix exercise the parallel multi-start
   path through the whole k-way suite without a dedicated test copy. *)
let small_options =
  Kway.Options.make ~runs:3 ~fm_attempts:2
    ~jobs:(Parallel.Pool.jobs_from_env ())
    ()

let test_kway_refinement_not_worse () =
  (* Refinement may only improve the (cost, interconnect) outcome. *)
  let h = mapped_hypergraph (Netlist.Generator.multiplier ~bits:16 ()) in
  let go refine_rounds =
    let options = { small_options with refine_rounds } in
    match Kway.partition ~options ~library:Fpga.Library.xc3000 h with
    | Error e -> Alcotest.fail e
    | Ok r ->
        (match Kway.check h r with
        | Ok () -> ()
        | Error e -> Alcotest.fail ("unsound: " ^ e));
        ( r.Kway.summary.Fpga.Cost.total_cost,
          r.Kway.summary.Fpga.Cost.total_iobs )
  in
  let cost0, iobs0 = go 0 in
  let cost1, iobs1 = go 1 in
  checkb "refinement does not raise cost" true (cost1 <= cost0);
  checkb "refinement does not raise total IOBs when cost ties" true
    (cost1 < cost0 || iobs1 <= iobs0)

(* lib/fpga cannot depend on hypergraph_lib (layering), so the demand
   arity lives in both; this pin is the only thing keeping them equal. *)
let test_demand_arity_pin () =
  checki "Fpga.Resource.demand_arity = Hypergraph.demand_arity"
    Hypergraph.demand_arity Fpga.Resource.demand_arity

let test_kway_objectives () =
  let h = mapped_hypergraph (Netlist.Generator.multiplier ~bits:16 ()) in
  List.iter
    (fun (objective : Fpga.Objective.t) ->
      let options =
        Kway.Options.make ~runs:3 ~fm_attempts:2 ~objective
          ~jobs:(Parallel.Pool.jobs_from_env ())
          ()
      in
      match Kway.partition ~options ~library:Fpga.Library.xc3000 h with
      | Error e -> Alcotest.fail (objective.Fpga.Objective.name ^ ": " ^ e)
      | Ok r -> (
          match Kway.check h r with
          | Ok () -> ()
          | Error e ->
              Alcotest.fail (objective.Fpga.Objective.name ^ " unsound: " ^ e)))
    Fpga.Objective.builtins

let test_kway_xc4000 () =
  let h = mapped_hypergraph (Netlist.Generator.multiplier ~bits:16 ()) in
  match Kway.partition ~options:small_options ~library:Fpga.Library.xc4000 h with
  | Error e -> Alcotest.fail e
  | Ok r -> (
      match Kway.check h r with
      | Ok () ->
          checkb "uses XC4000 parts" true
            (List.for_all
               (fun (name, _) -> String.length name >= 5 && String.sub name 0 3 = "XC4")
               r.Kway.summary.Fpga.Cost.device_counts)
      | Error e -> Alcotest.fail ("unsound: " ^ e))

let test_kway_single_device () =
  (* c17 maps to a couple of CLBs: one XC3020 suffices. *)
  let h = mapped_hypergraph (Netlist.Generator.c17 ()) in
  match Kway.partition ~options:small_options ~library:Fpga.Library.xc3000 h with
  | Error e -> Alcotest.fail e
  | Ok r ->
      checki "one part" 1 r.Kway.summary.Fpga.Cost.num_partitions;
      checkb "sound" true (Result.is_ok (Kway.check h r));
      checkb "cheapest device" true
        (r.Kway.summary.Fpga.Cost.total_cost <= 100.0)

let test_kway_multi_device () =
  let h = mapped_hypergraph (Netlist.Generator.multiplier ~bits:16 ()) in
  checkb "needs more than one device" true
    (Hypergraph.total_area h > Fpga.Device.max_clbs (Fpga.Library.largest Fpga.Library.xc3000));
  match Kway.partition ~options:small_options ~library:Fpga.Library.xc3000 h with
  | Error e -> Alcotest.fail e
  | Ok r -> (
      checkb "k >= 2" true (r.Kway.summary.Fpga.Cost.num_partitions >= 2);
      match Kway.check h r with
      | Ok () -> ()
      | Error e -> Alcotest.fail ("unsound partition: " ^ e))

let test_kway_with_replication () =
  let h = mapped_hypergraph (Netlist.Generator.multiplier ~bits:16 ()) in
  let options = { small_options with replication = `Functional 0 } in
  match Kway.partition ~options ~library:Fpga.Library.xc3000 h with
  | Error e -> Alcotest.fail e
  | Ok r -> (
      match Kway.check h r with
      | Ok () ->
          checkb "replication within bounds" true
            (r.Kway.replicated_cells >= 0
            && r.Kway.replicated_cells <= r.Kway.total_cells)
      | Error e -> Alcotest.fail ("unsound partition: " ^ e))

let test_kway_deterministic () =
  let h = mapped_hypergraph (Netlist.Generator.ecc ~data_bits:24 ()) in
  let go () =
    match Kway.partition ~options:small_options ~library:Fpga.Library.xc3000 h with
    | Error e -> Alcotest.fail e
    | Ok r ->
        ( r.Kway.summary.Fpga.Cost.total_cost,
          r.Kway.summary.Fpga.Cost.total_iobs,
          r.Kway.summary.Fpga.Cost.num_partitions )
  in
  let a = go () and b = go () in
  checkb "same options, same result" true (a = b)

let test_kway_check_catches_corruption () =
  let h = mapped_hypergraph (Netlist.Generator.c17 ()) in
  match Kway.partition ~options:small_options ~library:Fpga.Library.xc3000 h with
  | Error e -> Alcotest.fail e
  | Ok r ->
      (* Drop a member: coverage must fail. *)
      let broken =
        match r.Kway.parts with
        | p :: rest ->
            { r with Kway.parts = { p with Kway.members = List.tl p.Kway.members } :: rest }
        | [] -> r
      in
      checkb "detects missing output" true (Result.is_error (Kway.check h broken))

let test_kway_check_catches_bad_iobs_and_summary () =
  (* The recorded per-part IOBs and the summary figures are validated
     against recounts: corrupting any of them must be rejected while the
     pristine result still passes. *)
  let h = mapped_hypergraph (Netlist.Generator.multiplier ~bits:16 ()) in
  match Kway.partition ~options:small_options ~library:Fpga.Library.xc3000 h with
  | Error e -> Alcotest.fail e
  | Ok r ->
      checkb "pristine result accepted" true (Result.is_ok (Kway.check h r));
      let corrupt_first_part f =
        match r.Kway.parts with
        | p :: rest -> { r with Kway.parts = f p :: rest }
        | [] -> r
      in
      let bad_iobs = corrupt_first_part (fun p -> { p with Kway.iobs = p.Kway.iobs + 1 }) in
      checkb "detects inflated part iobs" true
        (Result.is_error (Kway.check h bad_iobs));
      let starved_iobs =
        corrupt_first_part (fun p -> { p with Kway.iobs = p.Kway.iobs - 1 })
      in
      checkb "detects deflated part iobs" true
        (Result.is_error (Kway.check h starved_iobs));
      let bad_cost =
        {
          r with
          Kway.summary =
            { r.Kway.summary with Fpga.Cost.total_cost = r.Kway.summary.Fpga.Cost.total_cost +. 1.0 };
        }
      in
      checkb "detects wrong summary cost" true
        (Result.is_error (Kway.check h bad_cost));
      let bad_repl = { r with Kway.replicated_cells = r.Kway.replicated_cells + 1 } in
      checkb "detects wrong replication figure" true
        (Result.is_error (Kway.check h bad_repl))

(* ------------------------------------------------------------------ *)
(* Telemetry and generated-circuit properties                         *)
(* ------------------------------------------------------------------ *)

let fm_pass_events obs =
  List.filter
    (fun e -> e.Obs.Snapshot.name = "fm.pass")
    (Obs.snapshot obs).Obs.Snapshot.events

let event_int e key =
  match List.assoc_opt key e.Obs.Snapshot.fields with
  | Some (Obs.Json.Int i) -> i
  | _ -> Alcotest.failf "fm.pass event lacks int field %s" key

let qcheck_fm_telemetry_invariants =
  (* Per-pass telemetry must satisfy the structural invariants of the
     algorithm: at most one applied op per cell, rollback within the pass's
     own ops, replication acceptance within attempts, and the last event's
     cut equal to the state's recomputed cut. *)
  QCheck.Test.make ~name:"fm.pass telemetry invariants" ~count:30
    QCheck.(pair small_int (int_range 8 30))
    (fun (seed, n_cells) ->
      let h = Test_util.random_hypergraph seed n_cells in
      let cfg =
        Fm.balance_config ~replication:(`Functional 0) ~slack:0.3
          ~total_area:(Hypergraph.total_area h) ()
      in
      let st = Fm.random_state (Netlist.Rng.create (seed + 13)) h in
      let obs = Obs.create () in
      ignore (Fm.run ~obs cfg st);
      let passes = fm_pass_events obs in
      let n = Hypergraph.num_cells h in
      let each_ok =
        List.for_all
          (fun e ->
            let applied = event_int e "applied" in
            let rolled_back = event_int e "rolled_back" in
            let attempted = event_int e "repl_attempted" in
            let accepted = event_int e "repl_accepted" in
            applied >= 0 && applied <= n
            && rolled_back >= 0
            && rolled_back <= applied
            && accepted >= 0 && accepted <= attempted
            && attempted <= applied)
          passes
      in
      let last_ok =
        match List.rev passes with
        | [] -> false (* max_passes > 0 always emits at least one event *)
        | last :: _ ->
            let cut, term_a, term_b, _, _ = Partition_state.recompute st in
            event_int last "cut" = cut
            && event_int last "terminals" = term_a + term_b
      in
      each_ok && last_ok)

let qcheck_kway_sound_on_generated_circuits =
  (* End-to-end hardening: for random generated circuits the driver's Ok
     results always pass the strengthened check, and the telemetry stays
     within the same structural bounds (sub-problems never exceed the
     original cell count). *)
  QCheck.Test.make ~name:"k-way Ok results pass check on generated circuits"
    ~count:8
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let rng = Netlist.Rng.create seed in
      let c =
        Netlist.Generator.random ~rng ~num_inputs:(8 + (seed mod 7))
          ~num_gates:(140 + (seed mod 120))
          ~num_dff:(seed mod 9)
          ~num_outputs:(6 + (seed mod 5))
          ()
      in
      let h = mapped_hypergraph c in
      let options =
        Kway.Options.make ~runs:2 ~fm_attempts:2 ~seed:(seed + 1)
          ~replication:(`Functional 0)
          ~jobs:(Parallel.Pool.jobs_from_env ())
          ()
      in
      let obs = Obs.create () in
      match Kway.partition ~obs ~options ~library:Fpga.Library.xc3000 h with
      | Error _ -> true (* infeasible random instances are acceptable *)
      | Ok r ->
          let sound =
            match Kway.check h r with
            | Ok () -> true
            | Error e -> QCheck.Test.fail_reportf "unsound: %s" e
          in
          let n = Hypergraph.num_cells h in
          let telemetry_ok =
            List.for_all
              (fun e ->
                let applied = event_int e "applied" in
                applied <= n && event_int e "rolled_back" <= applied)
              (fm_pass_events obs)
          in
          sound && telemetry_ok)

let qcheck_warm_start_sound_and_close =
  (* The incremental contract: projecting a base partition onto a small
     random edit and warm-starting yields a feasible, check-clean result
     whose cost stays within a constant factor of a cold run on the
     edited circuit. Also pins the projection bookkeeping the service
     relies on (dirty covers every unlabelled cell). *)
  QCheck.Test.make ~name:"warm start is sound and near cold cost" ~count:6
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let rng = Netlist.Rng.create (seed + 17) in
      let c =
        Netlist.Generator.random ~rng ~num_inputs:8
          ~num_gates:(120 + (seed mod 80))
          ~num_dff:(seed mod 6) ~num_outputs:8 ()
      in
      let delta = Netlist.Delta.random ~seed ~frac:0.04 c in
      match Netlist.Delta.apply c delta with
      | Error e ->
          QCheck.Test.fail_reportf "delta apply failed: %s"
            (Netlist.Delta.error_to_string e)
      | Ok edited -> (
          let base_h = mapped_hypergraph c in
          let edited_h = mapped_hypergraph edited in
          let options =
            Kway.Options.make ~runs:2 ~fm_attempts:2 ~seed:(seed + 1)
              ~jobs:(Parallel.Pool.jobs_from_env ())
              ()
          in
          let library = Fpga.Library.xc3000 in
          match
            ( Kway.partition ~options ~library base_h,
              Kway.partition ~options ~library edited_h )
          with
          | Error _, _ | _, Error _ ->
              true (* infeasible random instances are acceptable *)
          | Ok base, Ok cold -> (
              let base_labels, base_replicated =
                Kway.labels_of_parts base_h base.Kway.parts
              in
              let proj =
                Projection.project ~base:base_h ~base_labels
                  ~base_dirty:base_replicated edited_h
              in
              let dirty_covers_unlabelled =
                Array.for_all2
                  (fun l d -> l >= 0 || d)
                  proj.Projection.labels proj.Projection.dirty
              in
              let warm =
                {
                  Kway.w_labels = proj.Projection.labels;
                  w_dirty = proj.Projection.dirty;
                  w_devices =
                    Array.of_list
                      (List.map (fun p -> p.Kway.device) base.Kway.parts);
                }
              in
              match Kway.warm_start ~options ~library ~warm edited_h with
              | Error e ->
                  QCheck.Test.fail_reportf "warm start failed: %s" e
              | Ok w ->
                  (match Kway.check edited_h w with
                  | Ok () -> ()
                  | Error e ->
                      ignore (QCheck.Test.fail_reportf "warm unsound: %s" e));
                  let cold_cost = cold.Kway.summary.Fpga.Cost.total_cost in
                  let warm_cost = w.Kway.summary.Fpga.Cost.total_cost in
                  if warm_cost > 1.5 *. cold_cost then
                    QCheck.Test.fail_reportf
                      "warm cost %.1f too far above cold %.1f" warm_cost
                      cold_cost
                  else dirty_covers_unlabelled)))

(* ------------------------------------------------------------------ *)
(* Options validation and cooperative cancellation                    *)
(* ------------------------------------------------------------------ *)

let expect_invalid label f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Invalid_argument" label
  | exception Invalid_argument _ -> ()

let test_kway_options_validation () =
  (* One rejected case per field, plus the accepted boundary. *)
  expect_invalid "runs 0" (fun () -> Kway.Options.make ~runs:0 ());
  expect_invalid "runs negative" (fun () -> Kway.Options.make ~runs:(-3) ());
  expect_invalid "max_passes 0" (fun () -> Kway.Options.make ~max_passes:0 ());
  expect_invalid "fm_attempts 0" (fun () -> Kway.Options.make ~fm_attempts:0 ());
  expect_invalid "jobs 0" (fun () -> Kway.Options.make ~jobs:0 ());
  expect_invalid "refine_rounds negative" (fun () ->
      Kway.Options.make ~refine_rounds:(-1) ());
  let o = Kway.Options.make ~runs:1 ~max_passes:1 ~fm_attempts:1 ~jobs:1
      ~refine_rounds:0 ()
  in
  checki "boundary accepted" 1 o.Kway.runs

let test_fm_config_validation () =
  expect_invalid "fm max_passes 0" (fun () ->
      Fm.Config.make ~max_passes:0
        ~area_ok:(fun _ _ -> true)
        ~score:(fun _ -> (0, 0, 0))
        ());
  expect_invalid "fm max_passes negative" (fun () ->
      Fm.Config.make ~max_passes:(-2)
        ~area_ok:(fun _ _ -> true)
        ~score:(fun _ -> (0, 0, 0))
        ())

let test_kway_cancellation () =
  let h = mapped_hypergraph (Netlist.Generator.alu ~bits:8 ()) in
  (* A hook that is already true cancels before any work happens. *)
  let options = Kway.Options.make ~runs:2 ~should_stop:(fun () -> true) () in
  (match Kway.partition ~options ~library:Fpga.Library.xc3000 h with
  | Error msg -> checkb "cancelled error" true (String.equal msg Kway.cancelled)
  | Ok _ -> Alcotest.fail "expected cancellation");
  (* A hook that trips after a few polls cancels mid-search. *)
  let poll_count = ref 0 in
  let options =
    Kway.Options.make ~runs:50
      ~should_stop:(fun () ->
        incr poll_count;
        !poll_count > 5)
      ()
  in
  (match Kway.partition ~options ~library:Fpga.Library.xc3000 h with
  | Error msg -> checkb "mid-run cancel" true (String.equal msg Kway.cancelled)
  | Ok _ -> Alcotest.fail "expected mid-run cancellation");
  checkb "hook was polled" true (!poll_count > 5)

let test_kway_default_hook_inert () =
  (* The default hook must not change results: same seed, with and
     without an explicitly-false hook, byte-identical telemetry. *)
  let h = mapped_hypergraph (Netlist.Generator.c17 ()) in
  let doc options =
    let obs = Obs.create () in
    match Kway.partition ~obs ~options ~library:Fpga.Library.xc3000 h with
    | Error e -> Alcotest.fail e
    | Ok _ ->
        Obs.Json.to_string
          (Obs.Snapshot.scrub_elapsed (Obs.Snapshot.to_json (Obs.snapshot obs)))
  in
  let base = doc (Kway.Options.make ~runs:2 ()) in
  let hooked = doc (Kway.Options.make ~runs:2 ~should_stop:(fun () -> false) ()) in
  checkb "hook never changes telemetry" true (String.equal base hooked)

let () =
  Alcotest.run "core"
    [
      ( "replication_potential",
        [
          Alcotest.test_case "Fig. 1 psi" `Quick test_psi_fig1;
          Alcotest.test_case "Fig. 2 psi" `Quick test_psi_fig2;
          Alcotest.test_case "single output" `Quick test_psi_single_output;
          Alcotest.test_case "edge supports" `Quick test_psi_disjoint_and_identical;
          qc qcheck_psi_matches_eq4;
          Alcotest.test_case "distribution + r_T" `Quick test_distribution;
          Alcotest.test_case "threshold gate" `Quick test_replicable_threshold;
        ] );
      ( "gain",
        [
          Alcotest.test_case "Fig. 4 golden gains" `Quick test_gain_fig4_golden;
          Alcotest.test_case "threshold blocks replication" `Quick
            test_gain_threshold_blocks;
          qc qcheck_formula_matches_eval;
          qc qcheck_functional_gain_positive_cases;
          Alcotest.test_case "no duplicate candidates" `Quick
            test_no_duplicate_candidates;
          Alcotest.test_case "candidate operations" `Quick
            test_best_mask_change_candidates;
        ] );
      ( "bucket",
        [
          Alcotest.test_case "basics" `Quick test_bucket_basics;
          Alcotest.test_case "clamping" `Quick test_bucket_clamping;
          Alcotest.test_case "errors" `Quick test_bucket_errors;
          Alcotest.test_case "update fast path order" `Quick
            test_bucket_update_fast_path_order;
          Alcotest.test_case "top decay + interleaving" `Quick
            test_bucket_top_decay_and_interleaving;
          qc qcheck_bucket_matches_model;
        ] );
      ( "fm",
        [
          Alcotest.test_case "improves within balance" `Quick
            test_fm_improves_and_respects_balance;
          Alcotest.test_case "replication beats moves on Fig. 4" `Quick
            test_fm_replication_beats_plain_on_fig4;
          Alcotest.test_case "threshold respected" `Quick
            test_fm_replication_respects_threshold;
          Alcotest.test_case "replication helps on clustered" `Quick
            test_fm_replication_reduces_cut_on_clustered;
          qc qcheck_fm_leaves_consistent_state;
          qc qcheck_incremental_gains_exact;
          Alcotest.test_case "allocation per applied op" `Quick
            test_fm_allocation_per_move;
          Alcotest.test_case "oracle mode identical" `Quick
            test_fm_oracle_mode_identical;
          qc qcheck_fm_oracle_never_trips;
          Alcotest.test_case "staged never worse" `Quick test_fm_staged_never_worse;
          Alcotest.test_case "traditional model weaker" `Quick
            test_fm_traditional_model_weaker;
          Alcotest.test_case "two-device refinement config" `Quick
            test_two_device_config;
        ] );
      ( "coarsen",
        [
          Alcotest.test_case "structure" `Quick test_coarsen_structure;
          Alcotest.test_case "pin budget" `Quick test_coarsen_respects_pin_budget;
          Alcotest.test_case "multilevel init quality" `Quick
            test_multilevel_init_quality;
          Alcotest.test_case "per-axis weight caps" `Quick
            test_coarsen_weight_caps;
          qc qcheck_projection_sound;
          Alcotest.test_case "multilevel jobs-independent" `Quick
            test_multilevel_jobs_stable;
        ] );
      ( "kway",
        [
          Alcotest.test_case "single device" `Quick test_kway_single_device;
          Alcotest.test_case "multiple devices" `Quick test_kway_multi_device;
          Alcotest.test_case "with replication" `Quick test_kway_with_replication;
          Alcotest.test_case "deterministic" `Quick test_kway_deterministic;
          Alcotest.test_case "check catches corruption" `Quick
            test_kway_check_catches_corruption;
          Alcotest.test_case "check catches bad iobs/summary" `Quick
            test_kway_check_catches_bad_iobs_and_summary;
          Alcotest.test_case "refinement not worse" `Quick
            test_kway_refinement_not_worse;
          Alcotest.test_case "alternative library" `Quick test_kway_xc4000;
          Alcotest.test_case "demand arity pinned" `Quick test_demand_arity_pin;
          Alcotest.test_case "all builtin objectives" `Quick
            test_kway_objectives;
        ] );
      ( "telemetry",
        [
          qc qcheck_fm_telemetry_invariants;
          qc qcheck_kway_sound_on_generated_circuits;
        ] );
      ("warm start", [ qc qcheck_warm_start_sound_and_close ]);
      ( "options",
        [
          Alcotest.test_case "kway validation" `Quick
            test_kway_options_validation;
          Alcotest.test_case "fm validation" `Quick test_fm_config_validation;
          Alcotest.test_case "cancellation" `Quick test_kway_cancellation;
          Alcotest.test_case "default hook inert" `Quick
            test_kway_default_hook_inert;
        ] );
    ]
