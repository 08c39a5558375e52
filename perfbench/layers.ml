(* Per-layer attribution for the traced run.

   Counts are deltas of the program's own [Obs.Metrics] counters over
   the timed phase.  Times are self times of the spans the program
   already emits ([Obs.Trace]), folded into a table by span name after
   every timed operation (the span lists are then dropped, so memory
   stays flat), plus the FTRAN/BTRAN kernel clocks of [Lp.Simplex]. *)

let tracing = ref false

let base = Hashtbl.create 64

let self = Hashtbl.create 32

(* inclusive time of outermost [simplex.solve] spans, split by whether
   the solve was cold (two-phase from scratch) or warm *)
let cold_incl = ref 0.0

let warm_incl = ref 0.0

(* summed duration of root spans: the time the program spent inside
   its own traced calls *)
let total = ref 0.0

let gc0 = ref (Gc.quick_stat ())

let start () =
  Hashtbl.reset base;
  List.iter (fun (k, v) -> Hashtbl.replace base k v) (Obs.Metrics.dump ());
  Hashtbl.reset self;
  cold_incl := 0.0;
  warm_incl := 0.0;
  total := 0.0;
  Obs.Trace.reset ();
  Lp.Simplex.reset_kernel_times ();
  gc0 := Gc.quick_stat ()

let dur (sp : Obs.Trace.span) = sp.Obs.Trace.sp_stop -. sp.Obs.Trace.sp_start

let add_self name t =
  let prev = Option.value (Hashtbl.find_opt self name) ~default:0.0 in
  Hashtbl.replace self name (prev +. t)

let rec visit ~in_solve (sp : Obs.Trace.span) =
  let children = sp.Obs.Trace.sp_children in
  let d = dur sp in
  add_self sp.Obs.Trace.sp_name
    (List.fold_left (fun acc c -> acc -. dur c) d children);
  let is_solve = sp.Obs.Trace.sp_name = "simplex.solve" in
  if is_solve && not in_solve then begin
    let cold =
      List.exists (fun (k, v) -> k = "cold" && v > 0) sp.Obs.Trace.sp_counters
    in
    if cold then cold_incl := !cold_incl +. d else warm_incl := !warm_incl +. d
  end;
  List.iter (visit ~in_solve:(in_solve || is_solve)) children

(* Call after each timed operation, outside its timing. *)
let collect () =
  if !tracing then begin
    List.iter
      (fun sp ->
        total := !total +. dur sp;
        visit ~in_solve:false sp)
      (Obs.Trace.roots ());
    Obs.Trace.reset ()
  end

let delta name =
  let now = Option.value (Obs.Metrics.find name) ~default:0.0 in
  now -. Option.value (Hashtbl.find_opt base name) ~default:0.0

let self_s names =
  List.fold_left
    (fun acc n -> acc +. Option.value (Hashtbl.find_opt self n) ~default:0.0)
    0.0 names

let share part = if !total > 0.0 then part /. !total else 0.0

(* Every per-layer metric of the traced run, as (name, unit, value).
   [extra] supplies the ones the workload measures itself with its own
   spans around public calls (nn, serve, trace overhead); [scale] is
   the drift factor applied to every time; [cells] divides the GC
   counts. *)
let metrics ~scale ~cells ~extra =
  let c name program_name = (name, "count", delta program_name) in
  let s name v = (name, "s", v *. scale) in
  let ftran, btran = Lp.Simplex.kernel_times () in
  let gc = Gc.quick_stat () in
  let per_cell v = v /. float_of_int (max 1 cells) in
  let x name unit = (name, unit, Option.value (List.assoc_opt name extra) ~default:0.0) in
  [ c "lp.cold_solves" "simplex.cold_solves";
    c "lp.phase1_runs" "simplex.phase1_runs";
    s "lp.phase1_s" (self_s [ "simplex.phase1" ]);
    s "lp.phase2_s" (self_s [ "simplex.phase2" ]);
    ("lp.cold_share", "share", share !cold_incl);
    ("lp.phase1_share", "share", share (self_s [ "simplex.phase1" ]));
    c "lp.warm_solves" "simplex.warm_solves";
    c "lp.pivots" "simplex.pivots";
    c "lp.dual_restarts" "simplex.dual_restarts";
    s "lp.solve_self_s" (self_s [ "simplex.solve" ]);
    ("lp.warm_share", "share", share !warm_incl);
    c "linalg.lu_factors" "simplex.lu_factors";
    c "linalg.refactors" "lp:refactor";
    c "linalg.ftrans" "simplex.ftrans";
    c "linalg.btrans" "simplex.btrans";
    c "linalg.eta_updates" "simplex.eta_updates";
    s "linalg.ftran_s" ftran;
    s "linalg.btran_s" btran;
    c "milp.solves" "milp.solves";
    c "search.nodes" "search.nodes";
    c "search.prunes" "search.prunes";
    c "search.incumbents" "search.incumbents";
    s "milp.self_s" (self_s [ "milp.solve" ]);
    c "cert.bound_queries" "certifier.bound_queries";
    c "cert.encoded_models" "certifier.encoded_models";
    c "cert.dedup_hits" "certifier.dedup_hits";
    c "cert.symbolic_conclusive" "symbolic.conclusive";
    s "cert.plan_self_s"
      (self_s [ "certify"; "certify.layer"; "plan.values"; "plan.dx" ]);
    s "cert.symbolic_s" (self_s [ "symbolic.back_subs" ]);
    c "plan.pool_compiles" "executor.pool_compiles";
    c "plan.pool_hits" "executor.pool_hits";
    s "plan.executor_self_s"
      (self_s
         [ "executor.run"; "executor.unit"; "executor.worker"; "engine.query" ]);
    x "nn.train_s" "s";
    x "serve.recert_s" "s";
    x "serve.recert_share" "share";
    x "serve.server_s" "s";
    x "serve.wire_s" "s";
    x "serve.load_s" "s";
    x "serve.cache_hits" "count";
    x "serve.cache_misses" "count";
    x "serve.routed_max_share" "share";
    x "serve.hit_per_s" "queries/s";
    ("gc.minor_words", "words/cell",
     per_cell (gc.Gc.minor_words -. !gc0.Gc.minor_words));
    ("gc.major_collections", "count/cell",
     per_cell (float_of_int (gc.Gc.major_collections - !gc0.Gc.major_collections)));
    x "trace.cells_per_s" "cells/s" ]

(* The largest self times, for the diagnostics printed before the
   result line. *)
let top_self k =
  let all = Hashtbl.fold (fun n t acc -> (n, t) :: acc) self [] in
  let sorted = List.sort (fun (_, a) (_, b) -> compare b a) all in
  List.filteri (fun i _ -> i < k) sorted
