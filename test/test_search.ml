(* Tests for the shared branch & bound core (Search) and its clients:
   strategy naming, column sensitivity, bound-delta nodes, the cursor's
   LCA walk, frontier orders, the driver loop's budgets, the refinement
   scoring it feeds, and the cross-strategy invariant — every strategy
   certifies the same epsilon, only the tree shape differs. *)

module Model = Lp.Model
module Strategy = Search.Strategy
module Interval = Cert.Interval

let feq ?(eps = 1e-6) a b = Float.abs (a -. b) <= eps

let rng0 () = Random.State.make [| 4321 |]

let random_net ~rng ~dims =
  let rec build = function
    | a :: (b :: _ as rest) ->
        Nn.Layer.dense_random ~relu:(List.length rest > 1) ~rng ~in_dim:a
          ~out_dim:b ()
        :: build rest
    | _ -> []
  in
  Nn.Network.make (build dims)

(* --- Strategy --- *)

let test_strategy_names () =
  List.iter
    (fun s ->
      match Strategy.of_string (Strategy.to_string s) with
      | Some s' when s' = s -> ()
      | _ ->
          Alcotest.failf "strategy %S does not roundtrip"
            (Strategy.to_string s))
    Strategy.all;
  Alcotest.(check bool) "unknown name" true
    (Strategy.of_string "steepest-edge" = None);
  Alcotest.(check int) "two strategies" 2 (List.length Strategy.all)

let test_columns_sensitivity () =
  let m = Model.create () in
  let a = Model.add_var ~lo:0.0 ~hi:1.0 m in
  let b = Model.add_var ~lo:0.0 ~hi:1.0 m in
  let c = Model.add_var ~lo:0.0 ~hi:1.0 m in
  Model.add_constr m [ (a, 2.0); (b, 3.0) ] Model.Le 5.0;
  Model.add_constr m [ (a, 1.0); (c, -4.0) ] Model.Ge (-1.0);
  let cols = Strategy.Columns.make m ~vars:[| a; b |] in
  let duals = [| 2.0; -1.0 |] in
  (* a: |2*2| + |-1*1| ; b: |2*3| ; c excluded from [vars] *)
  Alcotest.(check bool) "a" true
    (feq (Strategy.Columns.sensitivity cols ~duals a) 5.0);
  Alcotest.(check bool) "b" true
    (feq (Strategy.Columns.sensitivity cols ~duals b) 6.0);
  Alcotest.(check bool) "c outside vars" true
    (feq (Strategy.Columns.sensitivity cols ~duals c) 0.0);
  Alcotest.(check bool) "empty duals" true
    (feq (Strategy.Columns.sensitivity cols ~duals:[||] a) 0.0)

(* --- Node --- *)

let test_node_var_bounds () =
  let root = Search.Node.root () in
  let n1 =
    Search.Node.child root ~tag:() ~key:1.0
      ~delta:[ (0, 0.0, 0.5); (1, -1.0, 1.0) ]
  in
  let n2 = Search.Node.child n1 ~tag:() ~key:2.0 ~delta:[ (0, 0.25, 0.5) ] in
  Alcotest.(check int) "depth" 2 (Search.Node.depth n2);
  Alcotest.(check bool) "root has none" true
    (Search.Node.var_bounds root 0 = None);
  (* innermost delta wins *)
  Alcotest.(check bool) "innermost" true
    (Search.Node.var_bounds n2 0 = Some (0.25, 0.5));
  Alcotest.(check bool) "inherited" true
    (Search.Node.var_bounds n2 1 = Some (-1.0, 1.0));
  Alcotest.(check bool) "untouched" true (Search.Node.var_bounds n2 7 = None)

let test_node_fold_tags () =
  let root = Search.Node.root "r" in
  let a = Search.Node.child root ~tag:"a" ~delta:[] ~key:0.0 in
  let b = Search.Node.child a ~tag:"b" ~delta:[] ~key:0.0 in
  Alcotest.(check string) "root-first order" "r/a/b"
    (String.concat "/"
       (List.rev
          (Search.Node.fold_tags b ~init:[] ~f:(fun acc t -> t :: acc))))

(* --- Cursor --- *)

(* A sink made of plain arrays: after every [goto] the arrays must
   equal the target node's effective bounds, whatever path the cursor
   took through the tree. *)
let test_cursor_goto () =
  let n = 3 in
  let root_lo = [| 0.0; 0.0; 0.0 |] and root_hi = [| 1.0; 1.0; 1.0 |] in
  let lo = Array.copy root_lo and hi = Array.copy root_hi in
  let set v ~lo:l ~hi:h =
    lo.(v) <- l;
    hi.(v) <- h
  in
  let root = Search.Node.root () in
  let cursor = Search.Cursor.create ~set ~root_lo ~root_hi root in
  let expect node msg =
    Search.Cursor.goto cursor node;
    for v = 0 to n - 1 do
      let elo, ehi =
        match Search.Node.var_bounds node v with
        | Some b -> b
        | None -> (root_lo.(v), root_hi.(v))
      in
      if lo.(v) <> elo || hi.(v) <> ehi then
        Alcotest.failf "%s: var %d at [%g, %g], expected [%g, %g]" msg v
          lo.(v) hi.(v) elo ehi
    done
  in
  let left =
    Search.Node.child root ~tag:() ~key:0.0 ~delta:[ (0, 0.0, 0.0) ]
  in
  let left_deep =
    Search.Node.child left ~tag:() ~key:0.0
      ~delta:[ (1, 0.5, 1.0); (2, 0.0, 0.25) ]
  in
  let right =
    Search.Node.child root ~tag:() ~key:0.0 ~delta:[ (0, 1.0, 1.0) ]
  in
  expect left_deep "root -> left_deep";
  (* sibling hop: undo two vars through the LCA, apply the other phase *)
  expect right "left_deep -> right";
  expect left "right -> left";
  expect root "left -> root";
  expect left_deep "root -> left_deep again"

(* --- Frontier --- *)

let test_frontier_orders () =
  let heap = Search.Frontier.best_first () in
  let stack = Search.Frontier.dfs () in
  let root = Search.Node.root 0 in
  let keys = [ 3.0; -1.0; 2.0; 0.0; -5.0; 4.0 ] in
  List.iteri
    (fun i k ->
      let n = Search.Node.child root ~tag:i ~delta:[] ~key:k in
      Search.Frontier.push heap n;
      Search.Frontier.push stack n)
    keys;
  Alcotest.(check int) "heap size" 6 (Search.Frontier.size heap);
  Alcotest.(check bool) "heap min" true (Search.Frontier.min_key heap = -5.0);
  Alcotest.(check bool) "stack min" true
    (Search.Frontier.min_key stack = -5.0);
  let drain f =
    let rec go acc =
      match Search.Frontier.pop f with
      | None -> List.rev acc
      | Some n -> go (Search.Node.key n :: acc)
    in
    go []
  in
  Alcotest.(check bool) "heap sorted" true
    (drain heap = List.sort compare keys);
  Alcotest.(check bool) "stack lifo" true (drain stack = List.rev keys);
  Alcotest.(check bool) "empty heap min" true
    (Search.Frontier.min_key heap = infinity);
  Alcotest.(check bool) "empty after drain" true
    (Search.Frontier.is_empty stack)

(* --- run: budgets, pruning, halting --- *)

let binary_tree_frontier depth_limit =
  (* expand a binary tree of the given depth; visit counts leaves *)
  let frontier = Search.Frontier.best_first () in
  Search.Frontier.push frontier (Search.Node.root ());
  let visit node =
    if Search.Node.depth node >= depth_limit then Search.Expand []
    else
      Search.Expand
        [ Search.Node.child node ~tag:() ~delta:[]
            ~key:(float_of_int (Search.Node.depth node));
          Search.Node.child node ~tag:() ~delta:[]
            ~key:(float_of_int (Search.Node.depth node)) ]
  in
  (frontier, visit)

let test_run_exhausts () =
  let frontier, visit = binary_tree_frontier 3 in
  let stats = Search.zero_stats () in
  let stop =
    Search.run ~limits:Search.no_limits ~stats ~frontier ~visit ()
  in
  Alcotest.(check bool) "exhausted" true (stop = Search.Exhausted);
  (* full binary tree of depth 3: 1 + 2 + 4 + 8 nodes *)
  Alcotest.(check int) "nodes" 15 stats.Search.nodes;
  Alcotest.(check int) "no prunes" 0 stats.Search.prunes

let test_run_node_limit () =
  let frontier, visit = binary_tree_frontier 30 in
  let stats = Search.zero_stats () in
  let stop =
    Search.run
      ~limits:{ Search.max_nodes = 10; deadline = infinity }
      ~stats ~frontier ~visit ()
  in
  Alcotest.(check bool) "limit" true (stop = Search.Node_limit);
  Alcotest.(check int) "stopped at budget" 10 stats.Search.nodes;
  (* unexpanded children stay behind for proven-bound accounting *)
  Alcotest.(check bool) "frontier non-empty" false
    (Search.Frontier.is_empty frontier)

let test_run_prune () =
  (* keys equal the parent depth; prune everything below depth 1 *)
  let frontier, visit = binary_tree_frontier 4 in
  let stats = Search.zero_stats () in
  let stop =
    Search.run
      ~prune:(fun key -> key >= 1.0)
      ~limits:Search.no_limits ~stats ~frontier ~visit ()
  in
  Alcotest.(check bool) "exhausted" true (stop = Search.Exhausted);
  (* root + its 2 children expand; the 4 grandchildren are pruned *)
  Alcotest.(check int) "nodes" 3 stats.Search.nodes;
  Alcotest.(check int) "prunes" 4 stats.Search.prunes

let test_run_halt_on_prune () =
  let frontier, visit = binary_tree_frontier 4 in
  let stats = Search.zero_stats () in
  let stop =
    Search.run
      ~prune:(fun key -> key >= 1.0)
      ~halt_on_prune:true ~limits:Search.no_limits ~stats ~frontier ~visit ()
  in
  (* best-first: the first dominated pop dominates all remaining *)
  Alcotest.(check bool) "pruned out" true (stop = Search.Pruned_out);
  Alcotest.(check int) "one prune" 1 stats.Search.prunes

let test_run_halt () =
  let frontier, _ = binary_tree_frontier 4 in
  let stats = Search.zero_stats () in
  let stop =
    Search.run ~limits:Search.no_limits ~stats ~frontier
      ~visit:(fun _ -> Search.Halt)
      ()
  in
  Alcotest.(check bool) "halted" true (stop = Search.Halted)

(* Regression for the Reluplex-style client: the DFS order must live on
   an explicit stack, so a path 200k nodes deep neither overflows the
   OCaml call stack in [run] nor in the cursor's chain walks. *)
let test_deep_dfs_no_overflow () =
  let depth_limit = 200_000 in
  let frontier = Search.Frontier.dfs () in
  Search.Frontier.push frontier (Search.Node.root ());
  let root_lo = [| 0.0 |] and root_hi = [| 1.0 |] in
  let lo = Array.copy root_lo and hi = Array.copy root_hi in
  let set v ~lo:l ~hi:h =
    lo.(v) <- l;
    hi.(v) <- h
  in
  let deepest = ref (Search.Node.root ()) in
  let visit node =
    deepest := node;
    let d = Search.Node.depth node in
    if d >= depth_limit then Search.Expand []
    else
      (* keep shrinking var 0 so every edge carries a delta *)
      let w = 1.0 /. float_of_int (d + 2) in
      Search.Expand
        [ Search.Node.child node ~tag:() ~delta:[ (0, 0.0, w) ] ~key:0.0 ]
  in
  let stats = Search.zero_stats () in
  let stop =
    Search.run ~limits:Search.no_limits ~stats ~frontier ~visit ()
  in
  Alcotest.(check bool) "exhausted" true (stop = Search.Exhausted);
  Alcotest.(check int) "nodes" (depth_limit + 1) stats.Search.nodes;
  Alcotest.(check int) "deepest visited" depth_limit
    (Search.Node.depth !deepest);
  (* materialise the deepest node, then return to the root: two full
     O(depth) cursor walks, neither recursive *)
  let root = Search.Node.root () in
  let deep = ref root in
  for d = 0 to depth_limit do
    let w = 1.0 /. float_of_int (d + 2) in
    deep := Search.Node.child !deep ~tag:() ~delta:[ (0, 0.0, w) ] ~key:0.0
  done;
  let cursor = Search.Cursor.create ~set ~root_lo ~root_hi root in
  Search.Cursor.goto cursor !deep;
  Alcotest.(check bool) "deep bounds applied" true
    (hi.(0) = 1.0 /. float_of_int (depth_limit + 2));
  Search.Cursor.goto cursor root;
  Alcotest.(check bool) "root restored" true
    (lo.(0) = 0.0 && hi.(0) = 1.0)

(* --- Refine scoring --- *)

let test_refine_scores () =
  (* stable neurons score 0 under both rules *)
  Alcotest.(check bool) "triangle active" true
    (feq (Cert.Refine.triangle_score (Interval.make 0.5 2.0)) 0.0);
  Alcotest.(check bool) "triangle inactive" true
    (feq (Cert.Refine.triangle_score (Interval.make (-3.0) (-0.1))) 0.0);
  (* straddling [a, b]: -b*a / (b - a) *)
  Alcotest.(check bool) "triangle straddle" true
    (feq (Cert.Refine.triangle_score (Interval.make (-1.0) 3.0)) 0.75);
  let y = Interval.make (-1.0) 1.0 in
  Alcotest.(check bool) "chord straddle" true
    (feq (Cert.Refine.chord_score ~y ~dy:(Interval.make (-0.5) 0.25)) 0.5);
  (* twin pair provably on the same side: no relaxation error *)
  Alcotest.(check bool) "chord both active" true
    (feq
       (Cert.Refine.chord_score ~y:(Interval.make 1.0 2.0)
          ~dy:(Interval.make (-0.5) 0.5))
       0.0);
  Alcotest.(check bool) "neuron max of two" true
    (feq
       (Cert.Refine.neuron_score ~y ~dy:(Interval.make (-0.5) 0.25))
       0.5)

let test_fraction_budget () =
  let cands n = List.init n (fun j -> (0, j)) in
  Alcotest.(check int) "no refine" 0 (Cert.Refine.budget No_refine (cands 9));
  Alcotest.(check int) "count passes through" 7
    (Cert.Refine.budget (Count 7) (cands 3));
  Alcotest.(check int) "fraction all" 5
    (Cert.Refine.budget (Fraction 1.0) (cands 5));
  Alcotest.(check int) "fraction none" 0
    (Cert.Refine.budget (Fraction 0.0) (cands 5));
  (* round-to-nearest, not floor: 0.5 * 3 = 1.5 -> 2 *)
  Alcotest.(check int) "fraction rounds" 2
    (Cert.Refine.budget (Fraction 0.5) (cands 3));
  Alcotest.(check int) "fraction small" 0
    (Cert.Refine.budget (Fraction 0.1) (cands 3));
  Alcotest.(check int) "empty candidates" 0
    (Cert.Refine.budget (Fraction 1.0) [])

let mk_bounds ~ys ~dys =
  (* a 1-layer bounds record whose layer-0 intervals we control *)
  let n = Array.length ys in
  let w = Linalg.Mat.of_arrays (Array.make_matrix n n 0.1) in
  let net =
    Nn.Network.make
      [ Nn.Layer.dense ~relu:true ~weight:w ~bias:(Array.make n 0.0) () ]
  in
  let input = Cert.Bounds.box_domain net ~lo:0.0 ~hi:1.0 in
  let bounds =
    Cert.Bounds.create net ~input
      ~input_dist:(Cert.Bounds.uniform_delta net 0.01)
  in
  Array.iteri (fun j iv -> bounds.Cert.Bounds.y.(0).(j) <- iv) ys;
  Array.iteri (fun j iv -> bounds.Cert.Bounds.dy.(0).(j) <- iv) dys;
  bounds

let test_refine_select () =
  let bounds =
    mk_bounds
      ~ys:
        [| Interval.make (-1.0) 3.0;     (* triangle 0.75 *)
           Interval.make (-2.0) 2.0;     (* triangle 1.0 *)
           Interval.make 0.5 4.0 |]      (* stable: 0 *)
      ~dys:
        [| Interval.make (-0.1) 0.1; Interval.make (-0.1) 0.1;
           Interval.make (-0.1) 0.1 |]
  in
  let candidates = [ (0, 0); (0, 1); (0, 2) ] in
  Alcotest.(check bool) "static order" true
    (Cert.Refine.select bounds ~candidates ~r:2 = [ (0, 1); (0, 0) ]);
  Alcotest.(check bool) "stable dropped even with room" true
    (Cert.Refine.select bounds ~candidates ~r:3 = [ (0, 1); (0, 0) ]);
  (* a sensitivity table flips the order under the guided strategies
     only; stable neurons stay unselected no matter their sensitivity *)
  let sens = Hashtbl.create 4 in
  Hashtbl.replace sens (0, 0) 10.0;
  Hashtbl.replace sens (0, 2) 1000.0;
  Alcotest.(check bool) "dual-guided reweights" true
    (Cert.Refine.select ~strategy:Strategy.Dual_guided ~sens bounds
       ~candidates ~r:2
    = [ (0, 0); (0, 1) ]);
  Alcotest.(check bool) "stable immune to sens" true
    (Cert.Refine.select ~strategy:Strategy.Dual_guided ~sens bounds
       ~candidates ~r:3
    = [ (0, 0); (0, 1) ]);
  Alcotest.(check bool) "default strategy ignores sens" true
    (Cert.Refine.select ~sens bounds ~candidates ~r:2 = [ (0, 1); (0, 0) ]);
  Alcotest.(check bool) "zero budget" true
    (Cert.Refine.select bounds ~candidates ~r:0 = [])

(* --- cross-strategy invariants on whole solvers --- *)

let strategies_agree ~get_eps ~name results =
  match results with
  | [] -> ()
  | (s0, r0) :: rest ->
      List.iter
        (fun (s, r) ->
          let e0 = get_eps r0 and e = get_eps r in
          Array.iteri
            (fun j e0j ->
              if
                Int64.bits_of_float e0j <> Int64.bits_of_float e.(j)
                && not (feq ~eps:1e-9 e0j e.(j))
              then
                Alcotest.failf "%s: output %d: %s gives %.17g, %s %.17g"
                  name j (Strategy.to_string s0) e0j (Strategy.to_string s)
                  e.(j))
            e0)
        rest

let test_exact_strategy_parity () =
  let rng = rng0 () in
  let net = random_net ~rng ~dims:[ 2; 5; 4; 1 ] in
  let delta = 0.08 in
  let input = Cert.Bounds.box_domain net ~lo:(-1.0) ~hi:1.0 in
  let results =
    List.map
      (fun s -> (s, Cert.Exact.global_btne ~branch:s net ~input ~delta))
      Strategy.all
  in
  List.iter
    (fun ((s : Strategy.t), (r : Cert.Exact.result)) ->
      if not r.Cert.Exact.exact then
        Alcotest.failf "%s did not complete" (Strategy.to_string s))
    results;
  strategies_agree ~name:"exact btne"
    ~get_eps:(fun (r : Cert.Exact.result) -> r.Cert.Exact.eps)
    results

let test_reluplex_strategy_parity () =
  let rng = rng0 () in
  let net = random_net ~rng ~dims:[ 2; 5; 3; 2 ] in
  let delta = 0.08 in
  let input = Cert.Bounds.box_domain net ~lo:(-1.0) ~hi:1.0 in
  let results =
    List.map
      (fun s -> (s, Cert.Reluplex_style.global ~branch:s net ~input ~delta))
      Strategy.all
  in
  List.iter
    (fun ((s : Strategy.t), (r : Cert.Reluplex_style.result)) ->
      if not r.Cert.Reluplex_style.exact then
        Alcotest.failf "%s did not complete" (Strategy.to_string s);
      Array.iteri
        (fun j c ->
          if not c then
            Alcotest.failf "%s: output %d not completed"
              (Strategy.to_string s) j)
        r.Cert.Reluplex_style.completed)
    results;
  strategies_agree ~name:"reluplex"
    ~get_eps:(fun (r : Cert.Reluplex_style.result) ->
      r.Cert.Reluplex_style.eps)
    results

let test_reluplex_budget_slices () =
  (* a starved budget must mark outputs incomplete rather than lie *)
  let rng = rng0 () in
  let net = random_net ~rng ~dims:[ 2; 6; 4; 2 ] in
  let delta = 0.1 in
  let input = Cert.Bounds.box_domain net ~lo:(-1.0) ~hi:1.0 in
  let starved = Cert.Reluplex_style.global ~max_nodes:2 net ~input ~delta in
  Alcotest.(check bool) "starved not exact" false
    starved.Cert.Reluplex_style.exact;
  Alcotest.(check bool) "exact agrees with completed" true
    (starved.Cert.Reluplex_style.exact
    = Array.for_all Fun.id starved.Cert.Reluplex_style.completed);
  let full = Cert.Reluplex_style.global net ~input ~delta in
  Alcotest.(check bool) "full exact" true full.Cert.Reluplex_style.exact;
  Alcotest.(check bool) "full completed" true
    (Array.for_all Fun.id full.Cert.Reluplex_style.completed);
  (* incumbents never exceed the exhaustive maximum *)
  Array.iteri
    (fun j e ->
      if e > full.Cert.Reluplex_style.eps.(j) +. 1e-9 then
        Alcotest.failf "starved incumbent %.9g above exact %.9g at %d" e
          full.Cert.Reluplex_style.eps.(j) j)
    starved.Cert.Reluplex_style.eps

(* Property: the certifier's answer is a function of the problem, not
   of the branching strategy — both strategies certify bitwise-equal
   epsilon on random nets, with refinement exercising the MILP path. *)
let certifier_strategy_parity =
  let gen = QCheck.Gen.(tup2 (int_range 3 5) (float_range 0.02 0.08)) in
  Test_seed.to_alcotest
    (QCheck.Test.make ~count:6 ~name:"certify eps identical across strategies"
       (QCheck.make gen)
       (fun (width, delta) ->
         let rng = rng0 () in
         let net = random_net ~rng ~dims:[ 2; width; width; 1 ] in
         let input = Cert.Bounds.box_domain net ~lo:(-1.0) ~hi:1.0 in
         let eps_of s =
           let config =
             { Cert.Certifier.default_config with
               Cert.Certifier.refine = Cert.Certifier.Fraction 1.0;
               branch = s }
           in
           (Cert.Certifier.certify ~config net ~input ~delta)
             .Cert.Certifier.eps
         in
         match List.map eps_of Strategy.all with
         | [] -> true
         | e0 :: rest ->
             List.for_all
               (fun e ->
                 Array.for_all2
                   (fun a b ->
                     Int64.bits_of_float a = Int64.bits_of_float b)
                   e0 e)
               rest))

let suites =
  [ ( "search:core",
      [ Alcotest.test_case "strategy names" `Quick test_strategy_names;
        Alcotest.test_case "column sensitivity" `Quick
          test_columns_sensitivity;
        Alcotest.test_case "node var_bounds" `Quick test_node_var_bounds;
        Alcotest.test_case "node fold_tags" `Quick test_node_fold_tags;
        Alcotest.test_case "cursor goto" `Quick test_cursor_goto;
        Alcotest.test_case "frontier orders" `Quick test_frontier_orders;
        Alcotest.test_case "run exhausts" `Quick test_run_exhausts;
        Alcotest.test_case "run node limit" `Quick test_run_node_limit;
        Alcotest.test_case "run prune" `Quick test_run_prune;
        Alcotest.test_case "run halt on prune" `Quick
          test_run_halt_on_prune;
        Alcotest.test_case "run halt" `Quick test_run_halt;
        Alcotest.test_case "deep dfs no overflow" `Quick
          test_deep_dfs_no_overflow ] );
    ( "search:refine",
      [ Alcotest.test_case "scores" `Quick test_refine_scores;
        Alcotest.test_case "fraction budget" `Quick test_fraction_budget;
        Alcotest.test_case "select" `Quick test_refine_select ] );
    ( "search:strategy-parity",
      [ Alcotest.test_case "exact btne" `Slow test_exact_strategy_parity;
        Alcotest.test_case "reluplex" `Slow test_reluplex_strategy_parity;
        Alcotest.test_case "reluplex budget slices" `Quick
          test_reluplex_budget_slices;
        certifier_strategy_parity ] ) ]
