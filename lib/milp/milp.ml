type status = Optimal | Infeasible | Unbounded | Limit | Lp_failure

type result = {
  status : status;
  obj : float;
  bound : float;
  x : float array;
  nodes : int;
  pivots : int;
}

type options = {
  max_nodes : int;
  time_limit : float;
  branch : Search.Strategy.t;
}

let default_options =
  { max_nodes = 200_000; time_limit = infinity;
    branch = Search.Strategy.Most_fractional }

let m_solves = Obs.Metrics.counter "milp.solves"
let m_nodes = Obs.Metrics.counter "milp.nodes"
let m_incumbents = Obs.Metrics.counter "milp.incumbents"

let int_tol = 1e-6

(* Exploration slack: a node is pruned only when its relaxation bound
   exceeds the incumbent by more than this.  Warm node bounds agree
   with exact values only up to solver noise, so pruning exactly at the
   incumbent would let that noise decide — differently per branching
   order — whether a last-bits-better assignment is ever considered;
   with a slack far above the noise floor, every assignment within it
   is considered under every strategy and the reported optimum is a
   function of the problem alone.  Pruning carries no further gap: any
   wider slack would let the exploration order pick among near-tied
   assignments. *)
let tie_slack = 1e-9

(* Audit-mode incumbent check: the claimed MILP solution must satisfy
   the original model's rows and bounds, be integral on the marked
   variables, and reproduce the reported objective — verified
   independently of the branch & bound bookkeeping. *)
let audit_incumbent ?objective model (r : result) =
  match r.status with
  | Optimal | Limit when Float.is_finite r.obj ->
      let diags =
        Audit_core.Certificate.check_point ~name:"milp-incumbent" ?objective
          ~model ~obj:r.obj r.x
      in
      let int_diags =
        List.filter_map
          (fun j ->
            let v = r.x.(j) in
            if Float.abs (v -. Float.round v) > 1e-5 then
              Some
                (Audit_core.Diag.make Audit_core.Diag.Error
                   ~pass:"certificate" ~code:"fractional-incumbent"
                   ~loc:
                     (Audit_core.Diag.loc
                        ~var:(Lp.Model.var_name model j)
                        "milp-incumbent")
                   (Printf.sprintf "integer-marked variable has value %g" v))
            else None)
          (Lp.Model.integer_vars model)
      in
      Audit_core.Mode.report (diags @ int_diags)
  | _ -> ()

let solve_inner ?(options = default_options) ?objective ?bounds model =
  let cp = Lp.Simplex.compile model in
  let n = Lp.Simplex.n_struct cp in
  (* one persistent solver session: each node's LP warm-starts from the
     previously factorised basis (dual restart after the bound change)
     instead of a cold two-phase solve *)
  let session = Lp.Simplex.create_session cp in
  let dir =
    match objective with
    | Some (d, _) -> d
    | None -> let d, _, _ = Lp.Model.objective model in d
  in
  let maximize = dir = Lp.Model.Maximize in
  (* internal key: minimisation; user values converted on output *)
  let to_key obj = if maximize then -.obj else obj in
  let of_key key = if maximize then -.key else key in
  let ints = Array.of_list (Lp.Model.integer_vars model) in
  let root_lo, root_hi = Lp.Simplex.default_bounds cp in
  (match bounds with
   | None -> ()
   | Some (lo, hi) ->
       if Array.length lo <> n || Array.length hi <> n then
         invalid_arg "Milp.solve: bounds arrays must have length n_vars";
       Array.blit lo 0 root_lo 0 n;
       Array.blit hi 0 root_hi 0 n);
  (* round integer bounds inward *)
  Array.iter
    (fun j ->
      root_lo.(j) <- Float.ceil (root_lo.(j) -. int_tol);
      root_hi.(j) <- Float.floor (root_hi.(j) +. int_tol))
    ints;
  Lp.Simplex.set_bounds session ~lo:root_lo ~hi:root_hi;
  (* the search core moves the session between nodes by bound deltas;
     [cur_lo]/[cur_hi] mirror the session's current node bounds so the
     branching logic can read effective bounds in O(1) *)
  let cur_lo = Array.copy root_lo and cur_hi = Array.copy root_hi in
  let set j ~lo ~hi =
    cur_lo.(j) <- lo;
    cur_hi.(j) <- hi;
    Lp.Simplex.set_var_bounds session j ~lo ~hi
  in
  let root = Search.Node.root () in
  let cursor = Search.Cursor.create ~set ~root_lo ~root_hi root in
  let frontier = Search.Frontier.best_first () in
  Search.Frontier.push frontier root;
  let sstats = Search.zero_stats () in
  let best_key = ref infinity in
  let best_x = ref (Array.make n nan) in
  let have_incumbent = ref false in
  let lp_failed = ref false in
  let unbounded = ref false in
  let t0 = Unix.gettimeofday () in
  (* |dual|-weighted column sensitivities for the dual-guided rule;
     built lazily so the default rule never pays for it *)
  let columns =
    lazy (Search.Strategy.Columns.make model ~vars:ints)
  in
  let accept_incumbent key x =
    best_key := key;
    best_x := Array.copy x;
    have_incumbent := true;
    Search.note_incumbent sstats;
    Obs.Metrics.add m_incumbents 1
  in
  let resolve_pivots = ref 0 in
  (* Canonical incumbent acceptance: re-solve the candidate's integer
     assignment cold over the root bounds and compare the cold value
     strictly.  A warm incumbent value depends on the node order (each
     warm restart agrees with a cold solve only up to solver
     tolerances), so without this two branching strategies could
     certify last-bit-different bounds; the cold value is a function of
     the assignment alone, and exact value ties between distinct
     assignments report the same objective whichever is kept. *)
  let consider_assignment_uncached ~warm_key (x : float array) =
    let lo = Array.copy root_lo and hi = Array.copy root_hi in
    Array.iter
      (fun j ->
        let v = Float.round x.(j) in
        lo.(j) <- v;
        hi.(j) <- v)
      ints;
    let sol = Lp.Simplex.solve_compiled ?objective cp ~lo ~hi in
    resolve_pivots := !resolve_pivots + sol.Lp.Simplex.pivots;
    match sol.Lp.Simplex.status with
    | Lp.Simplex.Optimal ->
        let key = to_key sol.Lp.Simplex.obj in
        if key < !best_key then accept_incumbent key sol.Lp.Simplex.x;
        Some key
    | Lp.Simplex.Infeasible | Lp.Simplex.Unbounded
    | Lp.Simplex.Iteration_limit ->
        (* the assignment was feasible at its node, so a failed cold
           re-solve is a solver artefact: keep the warm value rather
           than dropping a real incumbent *)
        if warm_key < !best_key then accept_incumbent warm_key x;
        None
  in
  let assign_key (x : float array) =
    let b = Buffer.create (8 * Array.length ints) in
    Array.iter
      (fun j -> Buffer.add_int64_ne b (Int64.of_float (Float.round x.(j))))
      ints;
    Buffer.contents b
  in
  (* Each distinct assignment is cold re-solved at most once: the tree
     can surface the same assignment at many nodes (rounding hits,
     integral relaxations along a path), and the canonical value is a
     function of the assignment alone.  The memo stores that canonical
     key ([None] when the cold solve failed). *)
  let considered : (string, float option) Hashtbl.t = Hashtbl.create 64 in
  let consider_assignment ~warm_key (x : float array) =
    let key_str = assign_key x in
    match Hashtbl.find_opt considered key_str with
    | Some cached -> cached
    | None ->
        let res = consider_assignment_uncached ~warm_key x in
        Hashtbl.replace considered key_str res;
        res
  in
  (* Rounding heuristic: fix every integer to the nearest integer seen
     in an LP solution and re-solve the continuous rest.  Success gives
     a feasible incumbent, enabling best-bound pruning long before the
     search reaches integral leaves.  Skipped when it cannot produce a
     new incumbent: a model without integer marks, or a node where
     every integer is already fixed (the node LP is the rounded LP). *)
  let try_rounding (x : float array) =
    if
      Array.length ints > 0
      && Array.exists (fun j -> cur_lo.(j) < cur_hi.(j)) ints
      && not (Array.exists (fun j -> Float.is_nan x.(j)) ints)
    then begin
      Array.iter
        (fun j ->
          let v = Float.round x.(j) in
          let v = Float.max cur_lo.(j) (Float.min cur_hi.(j) v) in
          Lp.Simplex.set_var_bounds session j ~lo:v ~hi:v)
        ints;
      let sol = Lp.Simplex.solve_session ?objective session in
      (* restore the node's own bounds before any further solve *)
      Array.iter
        (fun j ->
          Lp.Simplex.set_var_bounds session j ~lo:cur_lo.(j) ~hi:cur_hi.(j))
        ints;
      match sol.Lp.Simplex.status with
      | Lp.Simplex.Optimal ->
          (* the warm value only filters; acceptance re-derives the
             value from a canonical cold solve (slack covers warm/cold
             disagreement at the last bits) *)
          let key = to_key sol.Lp.Simplex.obj in
          if key < !best_key +. tie_slack then
            ignore
              (consider_assignment ~warm_key:key sol.Lp.Simplex.x
               : float option)
      | Lp.Simplex.Infeasible | Lp.Simplex.Unbounded
      | Lp.Simplex.Iteration_limit -> ()
    end
  in
  let heuristic_period = 20 in
  (* Branching candidate: the fractional integer chosen by the strategy
     ([-1] when the solution is integral).  The dual-guided rule weights
     each candidate's distance from integrality by its |dual| column
     sensitivity; a zero-information dual vector degrades to the
     most-fractional rule. *)
  let pick_int_var (sol : Lp.Simplex.solution) =
    let best_j = ref (-1) and best_frac = ref 0.0 in
    Array.iter
      (fun j ->
        let v = sol.Lp.Simplex.x.(j) in
        let f = Float.abs (v -. Float.round v) in
        if f > int_tol && f > !best_frac then begin
          best_j := j;
          best_frac := f
        end)
      ints;
    match options.branch with
    | Search.Strategy.Most_fractional -> !best_j
    | Search.Strategy.Dual_guided ->
        let cols = Lazy.force columns in
        let duals = sol.Lp.Simplex.duals in
        let guided_j = ref (-1) and guided_score = ref 0.0 in
        Array.iter
          (fun j ->
            let v = sol.Lp.Simplex.x.(j) in
            let f = Float.abs (v -. Float.round v) in
            if f > int_tol then begin
              let s =
                f *. Search.Strategy.Columns.sensitivity cols ~duals j
              in
              if s > !guided_score then begin
                guided_j := j;
                guided_score := s
              end
            end)
          ints;
        if !guided_j >= 0 then !guided_j else !best_j
  in
  let visit node =
    Search.Cursor.goto cursor node;
    let sol = Lp.Simplex.solve_session ?objective session in
    match sol.Lp.Simplex.status with
    | Lp.Simplex.Infeasible -> Search.Expand []
    | Lp.Simplex.Unbounded ->
        unbounded := true;
        Search.Halt
    | Lp.Simplex.Iteration_limit ->
        lp_failed := true;
        Search.Halt
    | Lp.Simplex.Optimal ->
        if sstats.Search.nodes mod heuristic_period = 1 then
          try_rounding sol.Lp.Simplex.x;
        let key = to_key sol.Lp.Simplex.obj in
        if key >= !best_key +. tie_slack then Search.Expand []
        else begin
          let expand_branch (bsol : Lp.Simplex.solution) j =
            let v = bsol.Lp.Simplex.x.(j) in
            let lo = cur_lo.(j) and hi = cur_hi.(j) in
            let down_hi = Float.floor v and up_lo = Float.ceil v in
            let children = ref [] in
            if up_lo <= hi then
              children :=
                Search.Node.child node ~tag:() ~delta:[ (j, up_lo, hi) ] ~key
                :: !children;
            if lo <= down_hi then
              children :=
                Search.Node.child node ~tag:() ~delta:[ (j, lo, down_hi) ]
                  ~key
                :: !children;
            Search.Expand !children
          in
          let j = pick_int_var sol in
          if j < 0 then begin
            (* integral: candidate incumbent.  Pure LPs skip the
               canonical re-solve — there is no assignment to pin, the
               root solve is the answer for every strategy. *)
            if Array.length ints = 0 then begin
              accept_incumbent key sol.Lp.Simplex.x;
              Search.Expand []
            end
            else begin
              ignore
                (consider_assignment ~warm_key:key sol.Lp.Simplex.x
                 : float option);
              (* An integral warm relaxation proves the node optimal
                 only up to warm-restart noise: the session's recycled
                 basis can stop a few last bits short of the true
                 optimum, silently hiding a near-tied sibling
                 assignment — and which sibling depends on the
                 branching order.  Verify the closure with one
                 deterministic cold solve of this node's box: if it is
                 integral too, both assignments are considered and the
                 node closes on cold evidence; if it is fractional, the
                 node's true optimum was not at the warm vertex, so
                 keep branching from the cold solution. *)
              let cold =
                Lp.Simplex.solve_compiled ?objective cp
                  ~lo:(Array.copy cur_lo) ~hi:(Array.copy cur_hi)
              in
              resolve_pivots := !resolve_pivots + cold.Lp.Simplex.pivots;
              match cold.Lp.Simplex.status with
              | Lp.Simplex.Optimal ->
                  let jc = pick_int_var cold in
                  if jc < 0 then begin
                    ignore
                      (consider_assignment
                         ~warm_key:(to_key cold.Lp.Simplex.obj)
                         cold.Lp.Simplex.x
                       : float option);
                    Search.Expand []
                  end
                  else expand_branch cold jc
              | Lp.Simplex.Infeasible | Lp.Simplex.Unbounded
              | Lp.Simplex.Iteration_limit ->
                  (* a solver artefact: the warm solve already proved
                     the node integral-optimal, keep its closure *)
                  Search.Expand []
            end
          end
          else expand_branch sol j
        end
  in
  let deadline =
    if options.time_limit = infinity then infinity else t0 +. options.time_limit
  in
  (* the tightest proven bound must also account for pruned-but-
     unexplored nodes; the frontier min key covers those (a stop on
     budget leaves them in place) *)
  let stop =
    Search.run ~span:"milp.node"
      ~prune:(fun key -> key >= !best_key +. tie_slack)
      ~halt_on_prune:true
      ~limits:{ Search.max_nodes = options.max_nodes; deadline }
      ~stats:sstats ~frontier ~visit ()
  in
  ignore (stop : Search.stop);
  (* Plateau polish: breadth-first sweep over the connected component
     of near-tied assignments reachable from the incumbent by single
     integer +-1 flips.  The search's enumeration is complete only up
     to solver noise — a box whose (warm or cold) relaxation stops a
     few last bits short of its true optimum closes while still hiding
     a near-tied assignment, and *which* assignment is hidden depends
     on the branching order.  Strict hill-climbing is not enough: the
     near-ties can form a value-flat plateau whose strict maximum sits
     several flips away, so equal-value (within [tie_slack]) moves are
     taken too, with a dedup'd frontier to terminate.  Every strategy
     reaching any point of the plateau then explores all of it and
     reports the same objective.  Capped: on models with very many
     integers (which in this codebase also run under hard node
     budgets, so the result is a [Limit] bound anyway) the sweep would
     cost more cold solves than the search itself. *)
  let polish_max_ints = 64 in
  let polish_max_visits = 2048 in
  if
    !have_incumbent
    && Array.length ints > 0
    && Array.length ints <= polish_max_ints
  then begin
    let queue = Queue.create () in
    let enqueued : (string, unit) Hashtbl.t = Hashtbl.create 64 in
    let push x =
      let k = assign_key x in
      if not (Hashtbl.mem enqueued k) then begin
        Hashtbl.replace enqueued k ();
        Queue.push x queue
      end
    in
    push (Array.copy !best_x);
    let visits = ref 0 in
    while (not (Queue.is_empty queue)) && !visits < polish_max_visits do
      let x = Queue.pop queue in
      incr visits;
      Array.iter
        (fun j ->
          let cur = Float.round x.(j) in
          List.iter
            (fun v ->
              if v >= root_lo.(j) && v <= root_hi.(j) then begin
                let x' = Array.copy x in
                x'.(j) <- v;
                match consider_assignment ~warm_key:infinity x' with
                | Some key when key < !best_key +. tie_slack -> push x'
                | Some _ | None -> ()
              end)
            [ cur -. 1.0; cur +. 1.0 ])
        ints
    done
  end;
  let nodes = sstats.Search.nodes in
  let heap_key = Search.Frontier.min_key frontier in
  let exhausted =
    Search.Frontier.is_empty frontier
    || heap_key >= !best_key +. tie_slack
  in
  let proven_key = Float.min !best_key heap_key in
  let incumbent_obj = if !have_incumbent then of_key !best_key else nan in
  let pivots =
    (Lp.Simplex.session_stats session).Lp.Simplex.total_pivots
    + !resolve_pivots
  in
  let result =
    if !unbounded then
      { status = Unbounded; obj = nan; bound = of_key neg_infinity;
        x = Array.make n nan; nodes; pivots }
    else if !lp_failed then
      { status = Lp_failure; obj = incumbent_obj; bound = of_key proven_key;
        x = !best_x; nodes; pivots }
    else if exhausted then begin
      if !have_incumbent then
        { status = Optimal; obj = of_key !best_key; bound = of_key !best_key;
          x = !best_x; nodes; pivots }
      else
        { status = Infeasible; obj = nan; bound = nan;
          x = Array.make n nan; nodes; pivots }
    end
    else
      { status = Limit; obj = incumbent_obj; bound = of_key proven_key;
        x = !best_x; nodes; pivots }
  in
  if Audit_core.Mode.enabled () then audit_incumbent ?objective model result;
  result

let solve ?options ?objective ?bounds model =
  Obs.Trace.with_span "milp.solve" (fun () ->
      let r = solve_inner ?options ?objective ?bounds model in
      Obs.Metrics.add m_solves 1;
      Obs.Metrics.add m_nodes r.nodes;
      Obs.Trace.count "nodes" r.nodes;
      Obs.Trace.count "pivots" r.pivots;
      r)

let fixing_bounds model fixed =
  let n = Lp.Model.n_vars model in
  let lo = Array.init n (Lp.Model.var_lo model) in
  let hi = Array.init n (Lp.Model.var_hi model) in
  List.iter
    (fun (v, value) ->
      lo.(v) <- value;
      hi.(v) <- value)
    fixed;
  (lo, hi)
