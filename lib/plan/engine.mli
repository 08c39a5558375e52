(** Bound-query engines and solve statistics.

    An engine answers min/max queries over one encoded model, charging
    a shared {!stats} record.  LP models are served by a warm-started
    {!Lp.Simplex} session (min queries hot-start from the preceding max
    query's basis); integer-marked models fall through to {!Milp}
    branch & bound.  Every caller of the certification stack — the
    certifier's {!Executor}, the encoding variants, the local
    certifier, the Reluplex-style search — queries bounds through this
    module, so solve accounting and audit-mode certificate checks live
    in exactly one place. *)

type stats = {
  mutable lp_solves : int;
  mutable milp_solves : int;
  mutable lp_pivots : int;
  mutable lp_warm : int;    (** solves served from a retained basis *)
}

val zero_stats : unit -> stats

val merge_stats : into:stats -> stats -> unit

type t = {
  run : Lp.Model.dir -> (Lp.Model.var * float) list -> float option;
      (** optimise the sparse objective; [None] on infeasible,
          unbounded or iteration-limited solves *)
  duals : unit -> float array;
      (** row duals of the engine's most recent Optimal solve ([[||]]
          before the first, and always for MILP engines, whose final
          answer has no single dual vector).  Minimisation-sense row
          multipliers, used for dual-guided refinement scoring. *)
}

val session_solution :
  stats ->
  name:string ->
  model:Lp.Model.t ->
  Lp.Simplex.session ->
  objective:Lp.Model.dir * (Lp.Model.var * float) list ->
  Lp.Simplex.solution
(** One audited, counted session solve returning the full solution
    (variable values included) — for callers that need the optimiser's
    point, e.g. incumbent extraction in the Reluplex-style search.
    [name] labels audit diagnostics. *)

val of_session :
  stats -> name:string -> model:Lp.Model.t -> Lp.Simplex.session -> t

val of_milp :
  stats ->
  options:Milp.options ->
  ?bounds:float array * float array ->
  Lp.Model.t -> t
(** [bounds] overrides the model's structural root bounds (see
    {!Milp.solve}); used to replay a deduplicated integer cone under an
    instance's input intervals. *)

val of_model : stats -> options:Milp.options -> name:string -> Lp.Model.t -> t
(** Session engine when the model has no integer marks, MILP engine
    otherwise. *)
