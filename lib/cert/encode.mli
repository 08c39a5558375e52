(** MILP/LP encodings of (sub-)networks.

    Three encodings over a {!Subnet.view}:

    - {!itne}: the paper's interleaving twin-network encoding — one
      explicit copy ([y], [x]) plus distance variables ([dy], [dx]) per
      neuron; the second copy is implicit.  ReLU relations (both the
      copy-1 relation and the distance relation
      [dx = relu(y + dy) - relu(y)]) are encoded exactly (big-M,
      binaries) or relaxed (triangle Eq. 4 / chord Eq. 6 of the paper).
    - {!btne}: the basic twin-network encoding of Katz et al. — two
      explicit copies, optionally linked by input-distance variables.
    - {!single}: one copy only, for local robustness / output-range
      analysis.

    All encodings take a {!Bounds.t} providing the interval constants
    for big-M terms and relaxations; those intervals must be finite for
    every encoded ReLU (run {!Interval_prop.propagate} first). *)

type mode = Exact | Relaxed

val input_interval : Bounds.t -> Subnet.view -> int -> Interval.t
(** Value interval of a window-input neuron (the network input domain
    when the window starts at layer 0). *)

val input_dist_interval : Bounds.t -> Subnet.view -> int -> Interval.t

type neuron_vars = {
  y : Lp.Model.var;
  dy : Lp.Model.var;
  x : Lp.Model.var option;   (** present iff the neuron's ReLU was encoded *)
  dx : Lp.Model.var option;
  z : Lp.Model.var option;
      (** copy-1 ReLU indicator binary: present iff the neuron was
          encoded exactly and its [y] interval straddles 0.  A solver
          holding a static phase proof can fix it ([1] active, [0]
          inactive) instead of branching. *)
  zhat : Lp.Model.var option;
      (** same for the implicit second copy's ReLU, [relu(y + dy)] *)
}

type itne_enc = {
  model : Lp.Model.t;
  view : Subnet.view;
  vars : (int * int, neuron_vars) Hashtbl.t;  (** (absolute layer, neuron) *)
  in_vars : (Lp.Model.var * Lp.Model.var * Lp.Model.var) array;
      (** window-input (value, distance, twin value) variable triples,
          aligned with [view.input_active].  The twin value [w = v + d]
          is the implicit second copy's input, bounded by the same value
          interval as [v] — both twins range over the input domain.
          These are the first variables created, so a structurally
          identical cone encodes them at the same indices — the handle
          used to replay a deduplicated encoding under another
          instance's input intervals *)
}

val itne :
  ?refined:(int * int) list ->
  ?include_output_relu:bool ->
  mode:mode -> bounds:Bounds.t -> Subnet.view -> itne_enc
(** [refined] lists (absolute layer, neuron) pairs whose relations are
    encoded exactly even under [mode = Relaxed].
    [include_output_relu] (default [false]) also encodes the ReLU of
    the window's last layer, exposing [x]/[dx] for the targets. *)

val itne_vars : itne_enc -> int -> int -> neuron_vars
(** Variables of (absolute layer, neuron); raises [Not_found] if the
    neuron is outside the view's cone. *)

type copy_vars = { cy : Lp.Model.var; cx : Lp.Model.var option }

type phase = Ph_active | Ph_inactive
(** A ReLU whose phase has been fixed by case splitting: [Ph_active]
    adds [x = y, y >= 0]; [Ph_inactive] adds [x = 0, y <= 0]. *)

type relu_split = {
  sp_y : Lp.Model.var;
  sp_x : Lp.Model.var;
  sp_slack : Lp.Model.var;   (** [s] in [x - y - s = 0], [s in [0, -a]] *)
  sp_y_iv : Interval.t;      (** [y]'s bounds as encoded *)
  sp_x_iv : Interval.t;      (** [x]'s bounds as encoded *)
  sp_slack_hi : float;       (** [s]'s upper bound as encoded ([-a]) *)
}
(** An ambiguous ReLU encoded in splittable form (see {!btne}'s
    [split_relus]).  Fixing a phase is a pure bound change:
    [Ph_active] is [s := [0,0]] (with [y]'s lower bound raised to 0);
    [Ph_inactive] is [x := [0,0]] (with [y]'s upper bound lowered to
    0).  Restoring the recorded intervals undoes either. *)

type btne_enc = {
  model : Lp.Model.t;
  view : Subnet.view;
  copy_a : (int * int, copy_vars) Hashtbl.t;
  copy_b : (int * int, copy_vars) Hashtbl.t;
  split_a : (int * int, relu_split) Hashtbl.t;
      (** filled iff [split_relus] was set *)
  split_b : (int * int, relu_split) Hashtbl.t;
  input_a : (int * Lp.Model.var) list;  (** window-input neuron id -> var *)
  input_b : (int * Lp.Model.var) list;
}

val btne :
  ?phases_a:(int * int, phase) Hashtbl.t ->
  ?phases_b:(int * int, phase) Hashtbl.t ->
  ?split_relus:bool ->
  link_input_dist:bool -> mode:mode -> bounds:Bounds.t -> Subnet.view ->
  btne_enc
(** Two explicit copies.  When [link_input_dist] is set, the copies'
    window inputs are constrained to differ by at most the input
    distance intervals of [bounds] (component-wise); otherwise the
    copies are independent (as in decomposed BTNE windows, where the
    distance information is lost).

    [split_relus] (default [false]): encode every ambiguous relaxed
    ReLU with an explicit slack ([x - y - s = 0]) and record it in
    [split_a]/[split_b].  The relaxation is unchanged (the slack's
    bounds are implied by the chord cut), but a case-splitting solver
    can then fix and unfix phases through bound changes alone,
    re-solving one compiled LP warm instead of re-encoding per node. *)

val btne_out_delta : btne_enc -> int -> (Lp.Model.var * float) list
(** Objective terms for [x_b - x_a] (or [y_b - y_a] when the last layer
    has no encoded ReLU) of target neuron [j] in the last layer. *)

type single_enc = {
  model : Lp.Model.t;
  view : Subnet.view;
  svars : (int * int, copy_vars) Hashtbl.t;
}

val single : mode:mode -> bounds:Bounds.t -> Subnet.view -> single_enc

val single_vars : single_enc -> int -> int -> copy_vars
