module Model = Lp.Model

(* The paper's future-work item: the per-neuron sub-problems of one
   layer are independent, so fan them out over OCaml 5 domains.  Each
   worker only reads shared state (compiled matrices, the plan itself);
   results are applied sequentially after the join.

   [init] builds one context per worker (solver sessions plus a
   statistics record): warm starts need per-worker mutable state, and
   the contexts are returned so the caller can merge the statistics.

   If a worker raises, every spawned domain is still joined and every
   produced context — including the failing worker's — is passed to
   [finally] (in the calling domain) before the first exception is
   re-raised with its backtrace.  Partial statistics therefore survive
   a failed run. *)
let parallel_map ?(finally : 'c -> unit = fun _ -> ()) n_domains
    ~(init : unit -> 'c) (items : 'a array) (f : 'c -> 'a -> 'b) :
    'b array * 'c list =
  let n = Array.length items in
  if n_domains <= 1 || n <= 1 then begin
    let ctx = init () in
    match Array.map (f ctx) items with
    | out ->
        finally ctx;
        (out, [ ctx ])
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        finally ctx;
        Printexc.raise_with_backtrace e bt
  end
  else begin
    let k = min n_domains n in
    let chunk d =
      let per = (n + k - 1) / k in
      (* ceil division can overshoot: with n = 5, k = 4 the last chunk
         would start at 6 > n, so clamp both ends into [0, n] (an empty
         chunk, not a negative-length List.init) *)
      let start = min n (d * per) in
      let stop = min n (start + per) in
      (start, stop)
    in
    let workers =
      List.init k (fun d ->
          Domain.spawn (fun () ->
              Obs.Trace.with_span "executor.worker" @@ fun () ->
              let ctx = init () in
              let res =
                match
                  let start, stop = chunk d in
                  List.init (stop - start) (fun i ->
                      (start + i, f ctx items.(start + i)))
                with
                | rs -> Ok rs
                | exception e -> Error (e, Printexc.get_raw_backtrace ())
              in
              (res, ctx)))
    in
    (* join everything before deciding the outcome: re-raising at the
       first failed join would leave later domains unjoined and drop
       their contexts *)
    let joined = List.map Domain.join workers in
    let out = Array.make n None in
    let ctxs =
      List.map
        (fun (res, ctx) ->
          (match res with
           | Ok rs -> List.iter (fun (i, r) -> out.(i) <- Some r) rs
           | Error _ -> ());
          finally ctx;
          ctx)
        joined
    in
    match
      List.find_map
        (function Error e, _ -> Some e | Ok _, _ -> None)
        joined
    with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> (Array.map Option.get out, ctxs)
  end

type config = {
  domains : int;
  milp_options : Milp.options;
}

(* --- cross-run pool ---

   A pool keeps compiled LP matrices alive across [run] calls, keyed
   by the planner's cone signature.  Equal signatures guarantee
   bit-identical models up to input variable bounds (see
   [Cert.Planner.signature]); a pooled matrix is therefore solved
   under the *current* task model's bounds, exactly the dedup-replay
   mechanism, so answers are unchanged.  A [same_structure] check (all
   bounds excepted) guards against cross-run signature collisions.

   Simplex *sessions* are deliberately not retained between runs:
   [solve_session] after a bound-change restart agrees with a cold
   solve only up to solver tolerances, and a certifier answer computed
   from a recycled basis can differ in its last bits from the one-shot
   answer — which then snowballs (layer-k bounds feed layer-k+1
   signatures and results).  Sessions are created fresh per run and
   warm-started only *within* it, the exact solve sequence of an
   unpooled run, so pooled answers stay bitwise-reproducible. *)

type pool_entry = {
  pe_model : Model.t;
  pe_compiled : Lp.Simplex.compiled;
}

type pool = {
  mutable pool_compiles : int;
  mutable pool_hits : int;
  pool_entries : (string, pool_entry) Hashtbl.t;
}

let create_pool () =
  { pool_compiles = 0; pool_hits = 0; pool_entries = Hashtbl.create 64 }

let m_runs = Obs.Metrics.counter "executor.runs"
let m_units = Obs.Metrics.counter "executor.units"
let m_pool_hits = Obs.Metrics.counter "executor.pool_hits"
let m_pool_compiles = Obs.Metrics.counter "executor.pool_compiles"

let pool_counters p = (p.pool_compiles, p.pool_hits)

(* Keep runaway workloads bounded: a pool past this many distinct
   cones is cleared rather than grown. *)
let pool_cap = 512

(* Structural bounds of [model], as fresh arrays. *)
let model_bounds (model : Model.t) =
  let n = Model.n_vars model in
  (Array.init n (Model.var_lo model), Array.init n (Model.var_hi model))

let all_vars model = List.init (Model.n_vars model) Fun.id

(* Where a task's compiled matrix comes from. *)
type task_source =
  | Milp_task                          (* integer marks: no LP compile *)
  | Fresh of Lp.Simplex.compiled       (* compiled from this very model *)
  | Pooled of pool_entry               (* shared matrix from a prior run *)

let compile_task pool (t : Spec.task) =
  if t.Spec.integer then Milp_task
  else
    match pool with
    | Some p when t.Spec.signature <> "" -> (
        match Hashtbl.find_opt p.pool_entries t.Spec.signature with
        | Some e
          when Lp.Model.same_structure ~except:(all_vars t.Spec.model)
                 e.pe_model t.Spec.model ->
            p.pool_hits <- p.pool_hits + 1;
            Obs.Metrics.add m_pool_hits 1;
            Pooled e
        | _ ->
            if Hashtbl.length p.pool_entries >= pool_cap then
              Hashtbl.reset p.pool_entries;
            let cp = Lp.Simplex.compile t.Spec.model in
            let e = { pe_model = t.Spec.model; pe_compiled = cp } in
            p.pool_compiles <- p.pool_compiles + 1;
            Obs.Metrics.add m_pool_compiles 1;
            Hashtbl.replace p.pool_entries t.Spec.signature e;
            Pooled e)
    | _ -> Fresh (Lp.Simplex.compile t.Spec.model)

type request = {
  query : Query.t;
  label : string;
  dir : Model.dir;
  terms : (Model.var * float) list;
}

type solve = request -> float option

type outcome = {
  affine : (Spec.affine * Spec.range) array;
  solved : (Query.t * float option) array;
  dual_sens : ((int * int) * float) array;
  stats : Engine.stats;
}

(* Bounds arrays for a replayed unit: the task model's own structural
   bounds with the instance's input intervals overlaid. *)
let override_bounds (model : Model.t) overrides =
  let n = Model.n_vars model in
  let lo = Array.init n (Model.var_lo model) in
  let hi = Array.init n (Model.var_hi model) in
  List.iter
    (fun (v, (r : Spec.range)) ->
      lo.(v) <- r.Spec.lo;
      hi.(v) <- r.Spec.hi)
    overrides;
  (lo, hi)

let run ?hook ?pool ?partial_stats config (plan : Spec.t) =
  Obs.Trace.with_span "executor.run" @@ fun () ->
  Obs.Metrics.add m_runs 1;
  Obs.Metrics.add m_units (Array.length plan.Spec.units);
  Obs.Trace.count "units" (Array.length plan.Spec.units);
  let affine =
    Array.map (fun a -> (a, Spec.eval_affine a)) plan.Spec.affine
  in
  (* compile LP task matrices once, up front and sequentially: every
     unit that shares a task shares the read-only compiled form, and a
     [pool] carries the compiled matrices of signed cones (plus their
     warm sessions, when running sequentially) across runs *)
  let sources = Array.map (compile_task pool) plan.Spec.tasks in
  (* column slices of the dual-sensitivity probe variables, extracted
     once per probed task (eagerly: workers share them read-only) *)
  let probe_cols =
    Array.map
      (fun (t : Spec.task) ->
        if Array.length t.Spec.probes = 0 then None
        else
          Some
            (Search.Strategy.Columns.make t.Spec.model
               ~vars:(Array.map snd t.Spec.probes)))
      plan.Spec.tasks
  in
  let engine_for (stats, cache) (u : Spec.unit_of_work) =
    let task = plan.Spec.tasks.(u.Spec.task_id) in
    if u.Spec.overrides = [] then begin
      (* the task's defining instance: one persistent engine per worker
         per task, so a per-neuron min/max sweep over a shared dense
         encoding runs as objective-only hot starts *)
      match Hashtbl.find_opt cache u.Spec.task_id with
      | Some e -> e
      | None ->
          let e =
            match sources.(u.Spec.task_id) with
            | Fresh cp ->
                Engine.of_session stats ~name:task.Spec.label
                  ~model:task.Spec.model
                  (Lp.Simplex.create_session cp)
            | Pooled pe ->
                (* bounds come from the *current* model: the pooled
                   matrix is bit-identical up to (overridden) variable
                   bounds, so this answers exactly like a fresh
                   encoding of this task *)
                let lo, hi = model_bounds task.Spec.model in
                Engine.of_session stats ~name:task.Spec.label
                  ~model:task.Spec.model
                  (Lp.Simplex.create_session ~lo ~hi pe.pe_compiled)
            | Milp_task ->
                Engine.of_milp stats ~options:config.milp_options
                  task.Spec.model
          in
          Hashtbl.add cache u.Spec.task_id e;
          e
    end
    else begin
      (* a deduplicated replay: fresh engine over the shared matrix with
         the instance's input bounds, never a warm-started carry-over —
         results must be bitwise-identical to a fresh encoding *)
      let replay cp =
        let lo, hi = model_bounds task.Spec.model in
        List.iter
          (fun (v, (r : Spec.range)) ->
            lo.(v) <- r.Spec.lo;
            hi.(v) <- r.Spec.hi)
          u.Spec.overrides;
        Engine.of_session stats ~name:task.Spec.label ~model:task.Spec.model
          (Lp.Simplex.create_session ~lo ~hi cp)
      in
      match sources.(u.Spec.task_id) with
      | Fresh cp -> replay cp
      | Pooled pe -> replay pe.pe_compiled
      | Milp_task ->
          let bounds = override_bounds task.Spec.model u.Spec.overrides in
          Engine.of_milp stats ~options:config.milp_options ~bounds
            task.Spec.model
    end
  in
  let init () = (Engine.zero_stats (), Hashtbl.create 8) in
  let compute ctx (u : Spec.unit_of_work) =
    Obs.Trace.with_span "executor.unit" @@ fun () ->
    let engine = engine_for ctx u in
    let task = plan.Spec.tasks.(u.Spec.task_id) in
    let probes = task.Spec.probes in
    let acc = Array.make (Array.length probes) 0.0 in
    let base (req : request) = engine.Engine.run req.dir req.terms in
    let solve = match hook with None -> base | Some h -> h base in
    let solved =
      Array.map
        (fun (qs : Spec.query_spec) ->
          let req =
            { query = qs.Spec.q; label = task.Spec.label;
              dir = Query.lp_dir qs.Spec.q.Query.dir; terms = qs.Spec.terms }
          in
          let r = (qs.Spec.q, solve req) in
          (match probe_cols.(u.Spec.task_id) with
           | None -> ()
           | Some cols ->
               (* charge each solve's row duals back to the probed
                  neurons' columns; accumulation is per-unit, merged in
                  unit order after the join, so the totals do not
                  depend on the domain count or schedule *)
               let duals = engine.Engine.duals () in
               if Array.length duals > 0 then
                 Array.iteri
                   (fun k (_, v) ->
                     acc.(k) <-
                       acc.(k)
                       +. Search.Strategy.Columns.sensitivity cols ~duals v)
                   probes);
          r)
        u.Spec.queries
    in
    let sens =
      if Array.length probes = 0 then [||]
      else Array.mapi (fun k (key, _) -> (key, acc.(k))) probes
    in
    (solved, sens)
  in
  let stats = Engine.zero_stats () in
  (* [finally] runs per worker context, after the join, whether or not
     the run failed: the outcome's stats and the caller's
     [partial_stats] accumulator both see every worker's counters, so
     a hook that raises (cancellation, deadline) does not lose the
     solver work already done *)
  let finally ((local : Engine.stats), _) =
    Engine.merge_stats ~into:stats local;
    match partial_stats with
    | Some acc -> Engine.merge_stats ~into:acc local
    | None -> ()
  in
  let per_unit, _ctxs =
    parallel_map ~finally config.domains ~init plan.Spec.units compute
  in
  let solved =
    Array.concat (Array.to_list (Array.map fst per_unit))
  in
  (* sum per-unit sensitivities by neuron, folding units in index order
     (float addition order is fixed, independent of the schedule) *)
  let dual_sens =
    let table = Hashtbl.create 16 and order = ref [] in
    Array.iter
      (fun (_, sens) ->
        Array.iter
          (fun (key, s) ->
            match Hashtbl.find_opt table key with
            | Some prev -> Hashtbl.replace table key (prev +. s)
            | None ->
                Hashtbl.replace table key s;
                order := key :: !order)
          sens)
      per_unit;
    Array.of_list
      (List.rev_map (fun key -> (key, Hashtbl.find table key)) !order)
  in
  Obs.Trace.count "lp_solves" stats.Engine.lp_solves;
  Obs.Trace.count "milp_solves" stats.Engine.milp_solves;
  { affine; solved; dual_sens; stats }
