(** Algorithm 1 of the paper: efficient global-robustness
    over-approximation by ITNE + network decomposition + LP relaxation
    + selective refinement.

    Layer by layer, neuron by neuron, ranges of the pre-activation
    [y], its twin distance [dy], the post-activation [x] and its
    distance [dx] are computed by solving small relaxed sub-network
    problems over a sliding window; earlier layers' ranges feed later
    windows.  The result is a sound, deterministic over-approximation
    [eps >= eps_exact] of the output variation bound for every network
    output.

    Each layer pass is planned by {!Planner} (affine fast path, shared
    dense encodings, per-neuron conv cones, cone deduplication) and run
    by {!Plan.Executor} (domain fan-out, warm solver sessions, solve
    accounting); this module only applies the answers to {!Bounds}. *)

type refine_rule = Refine.rule =
  | No_refine
  | Count of int        (** refine the top-[r] neurons per sub-problem *)
  | Fraction of float   (** refine this fraction of relaxable neurons *)

type sym_mode =
  | Sym_off
  | Sym_fwd
      (** forward affine pre-pass ({!Symbolic.propagate}): tightens the
          pipeline's own bounds in place, so certified eps can change
          (only ever downward) *)
  | Sym_back
      (** backward-substituting pre-analysis
          ({!Symbolic_back.analyse}) on a shadow copy of the bounds:
          dx queries whose LP optimum provably equals the stored chord
          transfer are answered with zero solves, and window-input
          boxes the analysis strictly tightened seed the remaining
          solves; certified eps is bitwise-unchanged whenever the fast
          path declines (no conclusive skip fires spuriously and no
          seed is attached) *)

type config = {
  window : int;             (** sub-network depth [W] *)
  refine : refine_rule;
  milp_options : Milp.options;  (** for refined sub-problems *)
  margin : float;           (** added to the reported epsilon for numerical
                                soundness *)
  mode : Encode.mode;       (** [Relaxed]: LPR (the paper's Algorithm 1);
                                [Exact]: pure ITNE network decomposition
                                with exact sub-MILPs *)
  exact_output_relation : bool;
      (** encode the target neuron's own distance relation exactly in
          the LpRelaxX sub-problem (a 2-binary MILP); strictly tighter
          than the pure chord relaxation at negligible cost.  Disable to
          reproduce the paper's pure-LPR behaviour. *)
  domains : int;
      (** fan the independent per-neuron sub-problems of each layer out
          over this many OCaml domains (the paper's future-work
          parallelisation).  1 = sequential; results are identical for
          any value. *)
  symbolic : sym_mode;
      (** symbolic pre-analysis before the layer sweep (extension
          beyond the paper); see {!sym_mode}. *)
  dedup : bool;
      (** encode structurally identical cones once (translated conv/pool
          windows with bit-equal interior intervals) and replay them
          under the instance's input bounds.  Certified bounds are
          bit-identical with or without; see {!Planner.signature}. *)
  branch : Search.Strategy.t;
      (** branch & bound / refinement strategy, threaded into every
          MILP sub-solve and into {!Refine.select}.  [Most_fractional]
          (default) reproduces the historical behaviour bit for bit.
          [Dual_guided] ranks branching and refinement candidates by
          accumulated |dual| column sensitivity.  Certified eps is
          unchanged across strategies (searches run to proven
          optimality); only the node counts differ. *)
}

val default_config : config
(** [window = 2], no refinement, relaxed mode, exact output relation,
    margin 1e-6, most-fractional branching. *)

type report = {
  eps : float array;        (** per network output: certified bound on
                                [|F(x')_j - F(x)_j|] *)
  bounds : Bounds.t;        (** all intermediate ranges *)
  lp_solves : int;
  milp_solves : int;
  lp_pivots : int;          (** simplex pivots across all LP and MILP-node
                                solves *)
  lp_warm_solves : int;     (** LP queries served from a retained basis
                                instead of a cold two-phase solve *)
  bound_queries : int;      (** LP/MILP bound queries planned *)
  encoded_models : int;     (** distinct models actually encoded; strictly
                                less than [bound_queries] whenever cone
                                deduplication fired *)
  dedup_hits : int;         (** cones answered by replaying another cone's
                                encoding *)
  symbolic_conclusive : int;
      (** bound queries answered by the symbolic pre-analysis alone
          (neither encoded nor solved; not counted in
          [bound_queries]) *)
  symbolic_seeded : int;    (** variable-bound overrides seeded from
                                strictly tighter symbolic intervals *)
  symbolic_stable_relus : int;
      (** ReLUs whose phase the backward analysis proved over the whole
          input box ([Sym_back] only) *)
  runtime : float;          (** seconds *)
}

val certify :
  ?config:config ->
  ?pool:Plan.Executor.pool ->
  ?solve_hook:(Plan.Executor.solve -> Plan.Executor.solve) ->
  Nn.Network.t -> input:Interval.t array -> delta:float ->
  report
(** [pool] keeps compiled cone matrices and warm solver sessions alive
    across calls (one pool per worker — see {!Plan.Executor}); answers
    are identical with or without.  [solve_hook] wraps every LP/MILP
    bound query — the certification daemon uses it to abandon a request
    mid-solve when its deadline expires or it is cancelled. *)

val certify_box :
  ?config:config ->
  ?pool:Plan.Executor.pool ->
  ?solve_hook:(Plan.Executor.solve -> Plan.Executor.solve) ->
  Nn.Network.t -> lo:float -> hi:float -> delta:float ->
  report
(** Convenience wrapper for a uniform input box. *)
