(** Shared branch & bound search core.

    Both tree searches in the repo — {!Milp}'s best-first branch &
    bound and the Reluplex-style DFS phase splitting in
    [Cert.Reluplex_style] — walk a tree whose nodes differ from their
    parent only in a handful of variable bounds, re-solving one
    compiled LP matrix per node through a warm-started
    {!Lp.Simplex.session}.  This module owns the shared machinery:

    - {!Node}: a search node as a {e bound delta} against its parent
      (never a full copy of the bound arrays), so a million-node
      frontier costs O(depth) floats per node instead of O(n_vars);
    - {!Cursor}: moves a bound sink (a solver session) from the
      previously materialised node to the next one via their lowest
      common ancestor, applying and undoing deltas — the warm-start
      contract that nodes only ever {e move variable bounds} is
      enforced here;
    - {!Frontier}: best-first (min-heap on the node key) and DFS
      (explicit stack, no recursion) orders behind one interface;
    - {!Strategy}: the two branching rules (the most-fractional
      baseline and the dual-guided scoring shared with [Cert.Refine]);
    - {!run}: the driver loop with node/deadline budgets, pruning and
      incumbent bookkeeping, instrumented with [Obs] spans and the
      [search.nodes] / [search.prunes] / [search.incumbents] metrics.

    Keys are always in {e minimisation} sense: smaller is more
    promising, and a node whose key is no better than the incumbent is
    pruned.  Maximising clients negate on the way in and out. *)

module Strategy : sig
  type t =
    | Most_fractional
        (** the baseline: branch on the candidate farthest from
            feasibility — in [Milp] the integer farthest from
            integrality, in the Reluplex-style splitter the ReLU with
            the largest violation *)
    | Dual_guided
        (** rank candidates by |dual| x relaxation gap, using the node
            LP's row duals to weight each candidate by how strongly its
            relaxation rows bind the current optimum *)

  val all : t list

  val to_string : t -> string
  (** CLI / wire name: ["most-fractional"], ["dual-guided"]. *)

  val of_string : string -> t option

  (** Precomputed sparse columns of selected variables, for charging
      row duals back to the variables they constrain. *)
  module Columns : sig
    type t

    val make : Lp.Model.t -> vars:int array -> t
    (** Extract the constraint columns of [vars] once; O(nnz) total. *)

    val sensitivity : t -> duals:float array -> int -> float
    (** [sensitivity cols ~duals v] is [sum_r |dual_r * a_rv|] over the
        rows [r] in which [v] appears — the first-order objective
        sensitivity to shifting [v]'s bounds.  Returns [0.] for
        variables outside [vars] or when [duals] is empty (non-optimal
        solve). *)
  end
end

module Node : sig
  type 'a t
  (** A search node: the bound changes against its parent, a
      minimisation-sense priority key, and a client tag ['a] (e.g. the
      ReLU split fixed on the edge above this node). *)

  val root : 'a -> 'a t
  (** Root node: empty delta, key [neg_infinity]. *)

  val child :
    'a t -> tag:'a -> delta:(int * float * float) list -> key:float -> 'a t
  (** [child parent ~tag ~delta ~key]: [delta] lists [(var, lo, hi)]
      absolute bounds that hold at the child (and below, until
      overridden by a deeper delta). *)

  val key : 'a t -> float

  val tag : 'a t -> 'a

  val depth : 'a t -> int
  (** Root has depth 0. *)

  val var_bounds : 'a t -> int -> (float * float) option
  (** Innermost delta entry for a variable along the chain up to the
      root, if any; [None] means the root bounds apply. *)

  val fold_tags : 'a t -> init:'b -> f:('b -> 'a -> 'b) -> 'b
  (** Fold over the tags on the path root -> node, root's tag first. *)
end

module Cursor : sig
  type 'a t
  (** Tracks which node's bounds a sink (a solver session plus the
      caller's scratch arrays) currently holds, and moves between
      nodes by applying/undoing deltas through their lowest common
      ancestor — O(distance in the tree), not O(n_vars). *)

  val create :
    set:(int -> lo:float -> hi:float -> unit) ->
    root_lo:float array ->
    root_hi:float array ->
    'a Node.t ->
    'a t
  (** [create ~set ~root_lo ~root_hi root] starts at [root]; the sink
      must already hold the root bounds ([set] is not called).  The
      root arrays are read (never written) when a delta var reverts to
      its root bounds. *)

  val goto : 'a t -> 'a Node.t -> unit
  (** Move the sink to [node]'s bounds.  [node] must belong to the
      same tree as the cursor's root. *)
end

module Frontier : sig
  type 'a t

  val best_first : unit -> 'a t
  (** Min-heap on {!Node.key}: pops the most promising node. *)

  val dfs : unit -> 'a t
  (** Explicit LIFO stack: pops the most recently pushed node.  Depth
      is bounded by the heap, not the OCaml call stack. *)

  val push : 'a t -> 'a Node.t -> unit

  val pop : 'a t -> 'a Node.t option

  val is_empty : 'a t -> bool

  val size : 'a t -> int

  val min_key : 'a t -> float
  (** Smallest key present ([infinity] when empty).  O(1) for
      best-first, O(size) for DFS — the proven-bound bookkeeping that
      needs it runs once per search, not per node. *)
end

type stats = {
  mutable nodes : int;      (** nodes expanded (LP solved) *)
  mutable prunes : int;     (** nodes popped but bound-dominated *)
  mutable incumbents : int; (** accepted incumbent improvements *)
}

val zero_stats : unit -> stats

val note_incumbent : stats -> unit
(** Count an accepted incumbent (stats record, [search.incumbents]
    metric and the enclosing trace span). *)

type limits = { max_nodes : int; deadline : float }
(** [deadline] is an absolute [Unix.gettimeofday] instant;
    [infinity] disables the check (and its per-node clock read). *)

val no_limits : limits

type 'a step =
  | Expand of 'a Node.t list  (** children to push ([[]] closes a leaf) *)
  | Halt                      (** abort the whole search (solver failure) *)

type stop =
  | Exhausted   (** frontier empty: search space covered *)
  | Pruned_out  (** [halt_on_prune] popped a dominated node *)
  | Node_limit
  | Deadline
  | Halted      (** a visit returned {!Halt} *)

val run :
  ?span:string ->
  ?prune:(float -> bool) ->
  ?halt_on_prune:bool ->
  limits:limits ->
  stats:stats ->
  frontier:'a Frontier.t ->
  visit:('a Node.t -> 'a step) ->
  unit ->
  stop
(** Drive the search: pop, test [prune] on the node's key (a pruned
    node is counted and dropped — with [halt_on_prune], under
    best-first order every remaining node is dominated too, so the
    search stops), then [visit] inside an [Obs] span ([span], default
    ["search.node"]) and push the returned children.  Budgets are
    checked before each pop, so a [Node_limit]/[Deadline] stop leaves
    unprocessed nodes on the frontier for the caller's proven-bound
    accounting. *)
