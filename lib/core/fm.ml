type objective = Cut | Terminals

let objective_value obj st =
  match obj with
  | Cut -> Partition_state.cut st
  | Terminals ->
      Partition_state.terminals st Partition_state.A
      + Partition_state.terminals st Partition_state.B

type score = int * int * int

let never_stop () = false

let every_cell _ = true

type config = {
  objective : objective;
  replication : [ `None | `Functional of int ];
  max_passes : int;
  area_ok : int -> int -> bool;
  score : Partition_state.t -> score;
  should_stop : unit -> bool;
  oracle : bool;
  active : int -> bool;
}

module Config = struct
  type t = config

  let make ?(objective = Cut) ?(replication = `None) ?(max_passes = 12)
      ?(should_stop = never_stop) ?(oracle = false) ?(active = every_cell)
      ~area_ok ~score () =
    if max_passes <= 0 then
      invalid_arg
        (Printf.sprintf "Fm.Config.make: max_passes must be positive (got %d)"
           max_passes);
    {
      objective;
      replication;
      max_passes;
      area_ok;
      score;
      should_stop;
      oracle;
      active;
    }
end

(* FPGAPART_FM_ORACLE=1 turns on the oracle cross-check in every run of the
   process — the tooling's way to prove the incremental engine right
   without threading a flag through every CLI. *)
let env_oracle =
  lazy
    (match Sys.getenv_opt "FPGAPART_FM_ORACLE" with
    | Some ("1" | "true" | "yes") -> true
    | _ -> false)

let balance_config ?(objective = Cut) ?(replication = `None) ?(max_passes = 12)
    ?(slack = 0.10) ~total_area () =
  let cap =
    int_of_float (ceil ((1.0 +. slack) *. float_of_int total_area /. 2.0))
  in
  Config.make ~objective ~replication ~max_passes
    ~area_ok:(fun a b -> a <= cap && b <= cap)
    ~score:(fun st ->
      let a = Partition_state.area st Partition_state.A in
      let b = Partition_state.area st Partition_state.B in
      (max 0 (max a b - cap), objective_value objective st, 0))
    ()

type device_bounds = {
  min_clbs : int;
  max_clbs : int;
  max_terminals : int;
  res_max : int array;
}

let bounds ?(res_max = [||]) ~min_clbs ~max_clbs ~max_terminals () =
  if min_clbs < 0 || max_clbs < min_clbs then
    invalid_arg "Fm.bounds: need 0 <= min_clbs <= max_clbs";
  if max_terminals < 0 then
    invalid_arg "Fm.bounds: max_terminals must be non-negative";
  if
    Array.length res_max <> 0
    && Array.length res_max <> Hypergraph.demand_arity
  then
    invalid_arg "Fm.bounds: res_max must be empty or demand_arity long";
  { min_clbs; max_clbs; max_terminals; res_max }

(* Secondary-axis overflow, as a soft penalty like the terminal budget
   already is (never part of area_ok, so the hot loop's legality check
   stays two integer compares). [res_max = [||]] — the scalar objectives —
   skips the loop entirely and adds a literal 0 to the score, keeping the
   legacy formula bit-identical. *)
let res_pen st side res_max =
  if Array.length res_max = 0 then 0
  else begin
    let p = ref 0 in
    for a = 1 to Array.length res_max - 1 do
      p := !p + max 0 (Partition_state.resource st side a - res_max.(a))
    done;
    !p
  end

let device_config ?(objective = Cut) ?(replication = `None) ?(max_passes = 12)
    ?(should_stop = never_stop) ~bounds () =
  Config.make ~objective ~replication ~max_passes ~should_stop
    (* Hard cap keeps side A from overshooting the device wildly; the rest
       of the feasibility hunt happens through the penalty. *)
    ~area_ok:(fun a _b -> a <= bounds.max_clbs + (bounds.max_clbs / 4) + 1)
    ~score:(fun st ->
      let a = Partition_state.area st Partition_state.A in
      let ta = Partition_state.terminals st Partition_state.A in
      let pen =
        max 0 (bounds.min_clbs - a)
        + max 0 (a - bounds.max_clbs)
        + max 0 (ta - bounds.max_terminals)
        + res_pen st Partition_state.A bounds.res_max
      in
      (* Prefer a smaller remainder at equal cut: it fills the split-off
         device (fewer, better-used devices cost less — objective 1)
         without rewarding gratuitous replication into side A. *)
      (pen, objective_value objective st, Partition_state.area st Partition_state.B))
    ()

let two_device_config ?(objective = Terminals) ?(replication = `None)
    ?(max_passes = 12) ?(should_stop = never_stop) ?(active = every_cell)
    ~bounds_a ~bounds_b () =
  let slack bounds = bounds.max_clbs + (bounds.max_clbs / 4) + 1 in
  Config.make ~objective ~replication ~max_passes ~should_stop ~active
    ~area_ok:(fun a b -> a <= slack bounds_a && b <= slack bounds_b)
    ~score:(fun st ->
      let a = Partition_state.area st Partition_state.A in
      let b = Partition_state.area st Partition_state.B in
      let ta = Partition_state.terminals st Partition_state.A in
      let tb = Partition_state.terminals st Partition_state.B in
      let pen_of bounds side clbs terms =
        max 0 (bounds.min_clbs - clbs)
        + max 0 (clbs - bounds.max_clbs)
        + max 0 (terms - bounds.max_terminals)
        + res_pen st side bounds.res_max
      in
      ( pen_of bounds_a Partition_state.A a ta
        + pen_of bounds_b Partition_state.B b tb,
        objective_value objective st,
        a + b (* prefer shedding replicas at equal objective *) ))
    ()

let random_state rng hg =
  let n = Hypergraph.num_cells hg in
  let order = Array.init n Fun.id in
  Netlist.Rng.shuffle rng order;
  let on_b = Array.make n false in
  Array.iteri (fun k c -> if k < n / 2 then on_b.(c) <- true) order;
  Partition_state.create hg ~init_on_b:(fun c -> on_b.(c))

(* Whole-cell moves are the classic F-M operation; every other mask change
   (output migration, split adjustment, un-replication) belongs to the
   replication extension. Telemetry attributes ops to the two families. *)
let is_replication_op ~old_mask ~new_mask ~full =
  not
    ((Bitvec.is_empty old_mask && Bitvec.equal new_mask full)
    || (Bitvec.equal old_mask full && Bitvec.is_empty new_mask))

let run ?(obs = Obs.noop) cfg st =
  let hg = Partition_state.hypergraph st in
  let n = Hypergraph.num_cells hg in
  let max_gain = (2 * Hypergraph.max_cell_degree hg) + 2 in
  let bucket = Bucket.create ~num_items:n ~max_gain in
  let observing = Obs.enabled obs in
  let oracle = cfg.oracle || Lazy.force env_oracle in
  let pass_idx = ref 0 in
  (* The chosen op per cell, unpacked into int arrays (Bitvec.t = int;
     masks are >= 0, so op_mask = -1 encodes "no candidate"): rescoring in
     the hot loop must not allocate. op_gain is the bucket key (-delta of
     the objective), op_tie the area tie-break, op_da/op_db the area
     deltas legality needs. *)
  let op_mask = Array.make n (-1) in
  let op_gain = Array.make n 0 in
  let op_tie = Array.make n 0 in
  let op_da = Array.make n 0 in
  let op_db = Array.make n 0 in
  let locked = Array.make n false in
  (* Epoch stamps dedupe the per-move dirty set: a neighbour shared by
     several state-changed nets of the moved cell is visited once per
     move, not once per shared net. *)
  let stamp = Array.make n (-1) in
  let epoch = ref 0 in
  let sc = Partition_state.make_scratch () in
  (* Best-candidate registers written by [consider]; hoisting the closure
     out of the loop keeps candidate evaluation allocation-free. *)
  let cur = ref 0 in
  let found = ref false in
  let bm = ref (-1) and bg = ref 0 and bt = ref 0 in
  let bda = ref 0 and bdb = ref 0 in
  let scratch_obj () =
    match cfg.objective with
    | Cut -> sc.Partition_state.sc_cut
    | Terminals -> sc.Partition_state.sc_term_a + sc.Partition_state.sc_term_b
  in
  (* Maximise gain, tie-break on the smallest area growth (prefer plain
     moves over creating replicas when equal). First generated wins
     further ties, and iter_masks generates deterministically. *)
  let consider mask =
    Partition_state.eval_into st !cur mask sc;
    let g = -scratch_obj () in
    let tie =
      -(sc.Partition_state.sc_area_a + sc.Partition_state.sc_area_b)
    in
    if (not !found) || g > !bg || (g = !bg && tie > !bt) then begin
      found := true;
      bm := mask;
      bg := g;
      bt := tie;
      bda := sc.Partition_state.sc_area_a;
      bdb := sc.Partition_state.sc_area_b
    end
  in
  let compute_best cell =
    cur := cell;
    found := false;
    Gain.iter_masks st ~replication:cfg.replication cell ~f:consider
  in
  let rescored = ref 0 in
  let rescore cell =
    compute_best cell;
    if not !found then begin
      op_mask.(cell) <- -1;
      Bucket.remove bucket cell
    end
    else begin
      op_mask.(cell) <- !bm;
      op_gain.(cell) <- !bg;
      op_tie.(cell) <- !bt;
      op_da.(cell) <- !bda;
      op_db.(cell) <- !bdb;
      Bucket.update bucket cell !bg
    end
  in
  let legal cell =
    op_mask.(cell) >= 0
    && cfg.area_ok
         (Partition_state.area st Partition_state.A + op_da.(cell))
         (Partition_state.area st Partition_state.B + op_db.(cell))
  in
  (* Bucket-scan length: how many candidates find_best inspected before
     one passed the legality predicate. Observed into a histogram only
     when a sink listens. *)
  let scanned = ref 0 in
  let select_pred cell =
    Stdlib.incr scanned;
    legal cell
  in
  let find_best () =
    if observing then begin
      scanned := 0;
      let r = Bucket.find_best bucket select_pred in
      Obs.observe obs "fm.scan_len" !scanned;
      r
    end
    else Bucket.find_best bucket legal
  in
  (* Visit one cell of a state-changed net: rescore it, once per move. *)
  let visit_cell cell =
    if (not locked.(cell)) && stamp.(cell) <> !epoch then begin
      stamp.(cell) <- !epoch;
      Stdlib.incr rescored;
      rescore cell
    end
  in
  let visit_net net =
    let cells = hg.Hypergraph.net_cells.(net) in
    for k = 0 to Array.length cells - 1 do
      visit_cell cells.(k)
    done
  in
  (* Oracle mode: after each move, recompute the best op of every unlocked
     cell sharing a net with the moved cell — the complete set whose gains
     could have changed (apply only touches counts of the moved cell's
     incident nets) — and compare against the cached op. The sweep only
     reads state, so an oracle run makes byte-identical decisions; it can
     only abort. A second epoch-stamp array dedupes the sweep as [stamp]
     dedupes rescoring, so the check allocates nothing per cell. *)
  let ostamp = if oracle then Array.make n (-1) else [||] in
  let oracle_check moved =
    let check cell =
      if (not locked.(cell)) && ostamp.(cell) <> !epoch then begin
        ostamp.(cell) <- !epoch;
        let had = op_mask.(cell) >= 0 in
        let cm = op_mask.(cell)
        and cg = op_gain.(cell)
        and ct = op_tie.(cell)
        and cda = op_da.(cell)
        and cdb = op_db.(cell) in
        compute_best cell;
        let ok =
          if not !found then not had
          else had && cm = !bm && cg = !bg && ct = !bt && cda = !bda
               && cdb = !bdb
        in
        if not ok then
          failwith
            (Printf.sprintf
               "Fm oracle: stale cached op for cell %d after moving cell %d \
                (cached mask=%d gain=%d tie=%d da=%d db=%d; fresh %s mask=%d \
                gain=%d tie=%d da=%d db=%d)"
               cell moved cm cg ct cda cdb
               (if !found then "found" else "none")
               !bm !bg !bt !bda !bdb)
      end
    in
    let nets = Hypergraph.cell_nets (Hypergraph.cell hg moved) in
    for i = 0 to Array.length nets - 1 do
      let cells = hg.Hypergraph.net_cells.(nets.(i)) in
      for k = 0 to Array.length cells - 1 do
        check cells.(k)
      done
    done
  in
  (* Trail of (cell, pre-move mask), preallocated: each cell is applied at
     most once per pass. *)
  let trail_cell = Array.make n 0 in
  let trail_old = Array.make n 0 in
  let one_pass () =
    Bucket.clear bucket;
    Array.fill locked 0 n false;
    (* Inactive cells are pre-locked: they never enter the bucket, are
       never rescored (pass initialisation included) and never move, so a
       warm start pays per pass only for the blast radius it declared.
       With the default predicate the branch is always taken and the pass
       is byte-identical to the unrestricted engine. *)
    for cell = 0 to n - 1 do
      if cfg.active cell then rescore cell
      else begin
        locked.(cell) <- true;
        op_mask.(cell) <- -1
      end
    done;
    let trail_len = ref 0 in
    let repl_attempted = ref 0 in
    let pass_rescored0 = !rescored in
    let t_wall0 = if observing then Obs.Clock.wall () else 0.0 in
    let start_score = cfg.score st in
    let best = ref start_score in
    let best_prefix = ref 0 in
    let continue = ref true in
    while !continue do
      match find_best () with
      | None -> continue := false
      | Some cell ->
          let mask = op_mask.(cell) in
          let old_mask = Partition_state.mask st cell in
          if observing then begin
            Obs.observe obs "fm.gain" op_gain.(cell);
            if
              is_replication_op ~old_mask ~new_mask:mask
                ~full:(Partition_state.full_mask st cell)
            then incr repl_attempted
          end;
          ignore (Partition_state.apply st cell mask);
          locked.(cell) <- true;
          Bucket.remove bucket cell;
          trail_cell.(!trail_len) <- cell;
          trail_old.(!trail_len) <- old_mask;
          incr trail_len;
          (* Criticality-filtered incremental rescoring: only cells on
             nets whose side-connection category crossed a critical
             boundary (as reported by apply) can have a different best op;
             everyone else's cached op — and bucket position — is still
             exact. *)
          incr epoch;
          Partition_state.iter_changed_nets st visit_net;
          if oracle then oracle_check cell;
          let s = cfg.score st in
          if s < !best then begin
            best := s;
            best_prefix := !trail_len
          end
    done;
    (* Roll back to the best prefix. Each cell is applied at most once per
       pass, so while undoing, the cell's current mask is exactly the mask
       the pass applied — enough to re-classify the discarded ops. *)
    let to_undo = !trail_len - !best_prefix in
    let repl_undone = ref 0 in
    for i = !trail_len - 1 downto !best_prefix do
      let cell = trail_cell.(i) and old_mask = trail_old.(i) in
      if
        observing
        && is_replication_op ~old_mask
             ~new_mask:(Partition_state.mask st cell)
             ~full:(Partition_state.full_mask st cell)
      then incr repl_undone;
      ignore (Partition_state.apply st cell old_mask)
    done;
    let improved = !best < start_score in
    if observing then begin
      Obs.incr obs "fm.passes";
      Obs.incr obs ~by:!trail_len "fm.applied_ops";
      Obs.incr obs ~by:to_undo "fm.rolled_back_ops";
      Obs.incr obs ~by:(!rescored - pass_rescored0) "fm.rescored_cells";
      (if !trail_len > 0 then
         let dt = Obs.Clock.wall () -. t_wall0 in
         Obs.observe obs "fm.moves_per_sec"
           (int_of_float (float_of_int !trail_len /. Float.max dt 1e-9)));
      Obs.event obs "fm.pass"
        [
          ("pass", Obs.Json.Int !pass_idx);
          ("applied", Obs.Json.Int !trail_len);
          ("rolled_back", Obs.Json.Int to_undo);
          ("repl_attempted", Obs.Json.Int !repl_attempted);
          ("repl_accepted", Obs.Json.Int (!repl_attempted - !repl_undone));
          ("cut", Obs.Json.Int (Partition_state.cut st));
          ( "terminals",
            Obs.Json.Int
              (Partition_state.terminals st Partition_state.A
              + Partition_state.terminals st Partition_state.B) );
          ("area_a", Obs.Json.Int (Partition_state.area st Partition_state.A));
          ("area_b", Obs.Json.Int (Partition_state.area st Partition_state.B));
          ("improved", Obs.Json.Bool improved);
        ];
      incr pass_idx
    end;
    improved
  in
  (* Each pass runs inside its own span so a tracing sink gets one
     wall-clock span (and GC delta) per F-M pass; without a sink no name
     is even built. *)
  let timed_pass () =
    if observing then
      Obs.span obs ("pass" ^ string_of_int !pass_idx) one_pass
    else one_pass ()
  in
  (* The stop hook is polled only between passes: a pass either completes
     (and rolls back to its best prefix) or never starts, so cancellation
     can not leave the state mid-pass — the score contract ("never
     worsens") survives an abort. With the default hook the polls are
     no-ops and the pass sequence is byte-identical to the unhooked
     engine. *)
  let passes = ref 0 in
  while (not (cfg.should_stop ())) && !passes < cfg.max_passes && timed_pass ()
  do
    incr passes
  done;
  cfg.score st

let run_staged ?(obs = Obs.noop) cfg st =
  match cfg.replication with
  | `None -> run ~obs cfg st
  | `Functional _ ->
      if Obs.enabled obs then
        Obs.event obs "fm.stage" [ ("stage", Obs.Json.String "plain") ];
      ignore (run ~obs { cfg with replication = `None } st);
      if Obs.enabled obs then
        Obs.event obs "fm.stage" [ ("stage", Obs.Json.String "replication") ];
      run ~obs cfg st
