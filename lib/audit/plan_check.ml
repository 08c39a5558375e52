module Diag = Audit_core.Diag

let pass = "plan"

(* Static consistency audit of a query plan: the planner's counters
   must agree with the plan's actual contents, and every variable a
   unit touches (objective terms, bound overrides) must exist in its
   task's model.  A violation means the executor would either crash or
   silently solve the wrong LP, so everything here is Error-severity
   except the advisory notes at the end. *)
let check ?(name = "plan") (plan : Plan.t) =
  let diags = ref [] in
  let push severity ~code ~loc msg =
    diags := Diag.make severity ~pass ~code ~loc msg :: !diags
  in
  let tasks = plan.Plan.tasks in
  let n_tasks = Array.length tasks in
  if plan.Plan.n_encodes <> n_tasks then
    push Diag.Error ~code:"encode-count" ~loc:(Diag.loc name)
      (Printf.sprintf "n_encodes = %d but plan holds %d tasks"
         plan.Plan.n_encodes n_tasks);
  (* dual-sensitivity probes are only hints (dual accumulation
     targets), but a variable outside the task's model would crash the
     executor's column tables *)
  Array.iteri
    (fun t (task : Plan.task) ->
      let loc = Diag.loc ~row:t name in
      let nv = Lp.Model.n_vars task.Plan.model in
      Array.iter
        (fun ((_, v) : (int * int) * Lp.Model.var) ->
          if v < 0 || v >= nv then
            push Diag.Error ~code:"probe-var-range" ~loc
              (Printf.sprintf
                 "task %S: probe variable %d outside model (%d vars)"
                 task.Plan.label v nv))
        task.Plan.probes)
    tasks;
  let replayed = Array.make (max 1 n_tasks) 0 in
  let queries = ref 0 and replays = ref 0 in
  Array.iteri
    (fun u (unit_ : Plan.unit_of_work) ->
      let loc = Diag.loc ~row:u name in
      queries := !queries + Array.length unit_.Plan.queries;
      if unit_.Plan.task_id < 0 || unit_.Plan.task_id >= n_tasks then
        push Diag.Error ~code:"task-id-range" ~loc
          (Printf.sprintf "unit %d references task %d of %d" u
             unit_.Plan.task_id n_tasks)
      else begin
        let task = tasks.(unit_.Plan.task_id) in
        let model = task.Plan.model in
        let nv = Lp.Model.n_vars model in
        let check_var ~code v =
          if v < 0 || v >= nv then
            push Diag.Error ~code ~loc
              (Printf.sprintf "unit %d (task %S): variable %d outside model \
                               (%d vars)"
                 u task.Plan.label v nv)
        in
        Array.iter
          (fun (qs : Plan.query_spec) ->
            List.iter (fun (v, _) -> check_var ~code:"query-var-range" v)
              qs.Plan.terms)
          unit_.Plan.queries;
        if unit_.Plan.overrides <> [] then begin
          incr replays;
          replayed.(unit_.Plan.task_id) <- replayed.(unit_.Plan.task_id) + 1;
          if task.Plan.signature = "" then
            push Diag.Error ~code:"replay-unsigned" ~loc
              (Printf.sprintf
                 "unit %d replays task %S which has no cone signature" u
                 task.Plan.label);
          List.iter
            (fun (v, (r : Plan.range)) ->
              check_var ~code:"override-var-range" v;
              if not (r.Plan.lo <= r.Plan.hi) then
                push Diag.Error ~code:"override-empty" ~loc
                  (Printf.sprintf
                     "unit %d overrides variable %d with empty range \
                      [%g, %g]" u v r.Plan.lo r.Plan.hi);
              if v >= 0 && v < nv && task.Plan.integer
                 && Lp.Model.is_integer model v then
                push Diag.Warn ~code:"override-integer-var" ~loc
                  (Printf.sprintf
                     "unit %d overrides integer variable %d: replay will \
                      re-round its bounds" u v))
            unit_.Plan.overrides
        end
      end)
    plan.Plan.units;
  if plan.Plan.n_queries <> !queries then
    push Diag.Error ~code:"query-count" ~loc:(Diag.loc name)
      (Printf.sprintf "n_queries = %d but units carry %d queries"
         plan.Plan.n_queries !queries);
  if plan.Plan.dedup_hits <> !replays then
    push Diag.Error ~code:"dedup-count" ~loc:(Diag.loc name)
      (Printf.sprintf
         "dedup_hits = %d but %d units carry bound overrides"
         plan.Plan.dedup_hits !replays);
  Array.iteri
    (fun i (a : Plan.affine) ->
      List.iter
        (fun ((c, r) : float * Plan.range) ->
          if not (Float.is_finite c) then
            push Diag.Error ~code:"affine-coeff" ~loc:(Diag.loc ~row:i name)
              (Printf.sprintf "affine item %d has non-finite coefficient" i);
          if not (r.Plan.lo <= r.Plan.hi) then
            push Diag.Error ~code:"affine-range" ~loc:(Diag.loc ~row:i name)
              (Printf.sprintf "affine item %d has empty input range [%g, %g]"
                 i r.Plan.lo r.Plan.hi))
        a.Plan.a_terms)
    plan.Plan.affine;
  (* advisory summary: how much work dedup saved *)
  Array.iteri
    (fun t k ->
      if k > 0 then
        push Diag.Info ~code:"dedup-replays" ~loc:(Diag.loc name)
          (Printf.sprintf "task %S answers %d replayed cone(s)"
             tasks.(t).Plan.label k))
    (if n_tasks = 0 then [||] else replayed);
  List.rev !diags
