(** Gate-level circuit intermediate representation.

    A circuit is a set of nodes (one per signal, as in the ISCAS [.bench]
    format: every gate defines exactly one named signal), a subset of which
    are primary inputs, plus a list of primary-output signals. D flip-flops
    are nodes like any other; their fanin is the [D] pin and their signal is
    the [Q] pin, so they break combinational cycles. *)

type node = private {
  id : int;            (** dense index in [nodes] *)
  name : string;       (** unique signal name *)
  kind : Gate.kind;
  fanins : int array;  (** node ids feeding this gate, in pin order *)
}

type t = private {
  nodes : node array;
  fanouts : int array array;  (** [fanouts.(i)] = ids reading node [i] *)
  inputs : int array;         (** ids of [Input] nodes, in creation order *)
  outputs : int array;        (** ids of primary-output driver nodes *)
  name : string;              (** circuit name, e.g. ["c6288"] *)
}

(** {1 Construction} *)

module Builder : sig
  type circuit := t
  type t

  val create : ?name:string -> unit -> t

  val input : t -> string -> int
  (** Declare a primary input signal; returns its node id. *)

  val gate : t -> ?name:string -> Gate.kind -> int list -> int
  (** [gate b kind fanins] adds a gate reading the given node ids; returns
      the new node id. A fresh name is invented when [name] is omitted.
      Raises [Invalid_argument] on a bad arity, an unknown fanin id, or a
      duplicate name. *)

  val mark_output : t -> int -> unit
  (** Mark a node's signal as a primary output (idempotent). *)

  val dff_placeholder : t -> string -> int
  (** Declare a D flip-flop whose [D] pin will be wired later with
      {!connect_dff}. Needed because a flip-flop's [Q] may feed the very
      cone that computes its [D] (sequential feedback), so [D] can be a
      forward reference. *)

  val connect_dff : t -> int -> int -> unit
  (** [connect_dff b dff d] wires the [D] pin of a placeholder flip-flop.
      Raises [Invalid_argument] if [dff] is not a placeholder created by
      {!dff_placeholder} or was already connected. *)

  val name_of : t -> int -> string
  (** Name of an already-created node. *)

  val finish : t -> circuit
  (** Freeze the builder. Raises [Invalid_argument] if any combinational
      cycle exists or a placeholder flip-flop was never connected. *)
end

(** {1 Accessors} *)

val node : t -> int -> node
val num_nodes : t -> int
val num_gates : t -> int
(** Count of non-[Input] nodes (flip-flops included). *)

val num_dff : t -> int
val find : t -> string -> int option
(** Look a node up by signal name. O(nodes): a linear scan, so never call
    it once per node. *)

val is_output : t -> int -> bool

(** {1 Structure} *)

val topological_order : t -> int array
(** Every node, combinational sources ([Input], [Dff], constants) first,
    then gates in dependency order. DFF fanins are not dependencies (the
    [D] pin is consumed at the clock edge). *)

val levels : t -> int array
(** [levels.(i)] = length of the longest combinational path from a source
    to node [i]; sources are level 0. *)

val depth : t -> int
(** Maximum over {!levels}. *)

val validate : t -> (unit, string) result
(** Re-check all structural invariants (arity, fanin bounds, acyclicity,
    output marks). The builder establishes these; [validate] exists to
    check circuits after hand-modification in tests and as a qcheck
    property target. *)

val pp_summary : Format.formatter -> t -> unit
(** One-line summary: name, #inputs, #outputs, #gates, #DFF, depth. *)
