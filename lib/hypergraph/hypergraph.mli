(** Hypergraph model of a mapped circuit, following Section II of the paper:
    [H = ({X; Y}, E)] with interior cells [X], terminals [Y] and nets [E].

    Cells carry per-output {e adjacency vectors} (the input-pin support of
    each output), the information functional replication exploits. Nets
    record which cells touch them; terminals are not materialised as nodes —
    a net that reaches a chip-level I/O pad or, during recursive
    partitioning, a cell of an already-fixed partition, is flagged
    {e external}. *)

val demand_arity : int
(** Maximum length of a cell demand vector (4). Slot 0 is the primary
    (CLB/area) axis; further slots are opaque resource classes the
    [fpga] layer interprets (FF, BRAM, DSP — pinned to
    [Fpga.Resource.demand_arity] by a test, since that library sits
    above this one). *)

type cell = private {
  id : int;               (** dense index *)
  name : string;
  area : int;             (** CLBs one copy of this cell occupies
                              (= [demand.(0)], cached) *)
  demand : int array;
      (** per-resource demand of one copy; length in
          [1..demand_arity], [demand.(0) = area]. Missing axes read
          as 0. *)
  inputs : int array;     (** net id per input pin *)
  outputs : int array;    (** net id per output pin; the cell drives these *)
  supports : Bitvec.t array;
      (** [supports.(o)] = input pins output [o] depends on; the adjacency
          vector [A_{X_o}] of the paper *)
  conn_cache : int array array;
      (** memoised {!connected_nets} per output mask (empty for cells with
          many outputs); filled by {!create} *)
  full_nets : int array;
      (** memoised {!connected_nets} for the all-outputs mask (= all
          distinct incident nets); filled by {!create} for every cell, so
          whole-cell moves stay O(degree) even on wide cluster cells *)
}

type t = private {
  cells : cell array;
  num_nets : int;
  net_cells : int array array;
      (** [net_cells.(n)] = ids of cells touching net [n], deduplicated *)
  net_external : bool array;
      (** net reaches outside this hypergraph (chip pad or fixed partition) *)
  net_names : string array;
}

(** {1 Construction} *)

type cell_spec = {
  s_name : string;
  s_area : int;
  s_demand : int array;
      (** per-resource demand; [[||]] defaults to [[| s_area |]],
          otherwise [s_demand.(0)] must equal [s_area] and the length
          must not exceed {!demand_arity} *)
  s_inputs : int array;
  s_outputs : int array;
  s_supports : Bitvec.t array;
}

val create :
  ?net_names:string array ->
  num_nets:int ->
  external_nets:int list ->
  cell_spec list ->
  t
(** Build and validate a hypergraph. Raises [Invalid_argument] when a net id
    is out of range, a support mask refers to a missing input pin, two cells
    drive the same net, or a support is empty while the cell has inputs
    (every output must depend on at least one input unless the cell has no
    input pins at all). *)

(** {1 Accessors} *)

val num_cells : t -> int
val cell : t -> int -> cell
val total_area : t -> int

val total_demand : t -> int array
(** Element-wise sum of all cell demand vectors, zero-extended to length
    {!demand_arity}; [(total_demand h).(0) = total_area h]. *)

val max_cell_degree : t -> int
(** Maximum number of distinct nets incident to one cell. *)

val cell_nets : cell -> int array
(** Distinct nets incident to a full copy of the cell (inputs + outputs),
    ascending. This is the memoised [full_nets] array itself: shared, so
    callers must not mutate it. *)

val connected_nets : cell -> out_mask:Bitvec.t -> int array
(** Distinct nets a {e partial} copy of the cell touches when it carries
    exactly the outputs in [out_mask]: those output nets plus the input nets
    in the union of their supports. [out_mask = empty] yields [\[||\]]. *)

val connected_nets_traditional : cell -> out_mask:Bitvec.t -> int array
(** The {e traditional replication} connection rule (Kring–Newton style,
    the model the paper's eq. 8 scores): a copy carrying any output
    connects {e all} of the cell's input nets, ignoring the per-output
    adjacency vectors. Used as an ablation baseline. *)

val pins : t -> int
(** Total pin count (all cell input and output pins). *)

val boundary : t -> labels:int array -> bool array
(** [boundary h ~labels] flags every cell incident to a net whose cells
    carry at least two distinct labels — the cells whose moves can change
    the cut of the labelling. Cells on single-label (internal) nets only
    are left unflagged, external or not: an external net touched by one
    part costs the same IOB wherever that part's cells sit. O(pins). *)

val validate : t -> (unit, string) result

(** {1 Derived hypergraphs} *)

val induce_copies : t -> (int * Bitvec.t) list -> t * (int * Bitvec.t) array
(** [induce_copies h specs] builds the hypergraph of the given cell
    {e copies}: each [(id, out_mask)] becomes a new cell carrying exactly
    the outputs in [out_mask] and the input pins their supports reference
    (pins renumbered densely). A net is external in the result when it was
    external in [h] or when any incidence of [h] is not covered by the kept
    copies (e.g. the other copy of a replicated cell). Returns the new
    hypergraph (cells in [specs] order) and the spec array. Raises
    [Invalid_argument] on empty masks or duplicate cells. *)

val induce : t -> keep:bool array -> t * int array
(** [induce h ~keep] restricts [h] to the cells with [keep.(id)] true.
    Nets touching a dropped cell or flagged external stay/become external;
    nets with no kept cell disappear. Returns the sub-hypergraph and the
    mapping from new cell ids to old ones. *)

val pp_summary : Format.formatter -> t -> unit
